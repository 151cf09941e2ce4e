"""Tests of the benchmark's oracles. Run: python3 -m pytest bench"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402

# The 16 gates by name, with the encoding of docs/formats.md:
# id = f(0,0)<<3 | f(0,1)<<2 | f(1,0)<<1 | f(1,1).
NAMED = {
    0: lambda a, b: 0,
    1: lambda a, b: a and b,
    2: lambda a, b: a and not b,
    3: lambda a, b: a,
    4: lambda a, b: not a and b,
    5: lambda a, b: b,
    6: lambda a, b: a != b,
    7: lambda a, b: a or b,
    8: lambda a, b: not (a or b),
    9: lambda a, b: a == b,
    10: lambda a, b: not b,
    11: lambda a, b: a or not b,
    12: lambda a, b: not a,
    13: lambda a, b: not a or b,
    14: lambda a, b: not (a and b),
    15: lambda a, b: 1,
}
CORNERS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_interpreter_reproduces_the_gate_table():
    # one gate per opcode, all reading inputs 0 and 1, on the four input pairs
    rows = np.array(CORNERS, dtype=np.uint8)
    sources = np.tile([0, 1], (16, 1))
    out = oracles.circuit_outputs(2, sources, np.arange(16), 2 + np.arange(16), rows)
    for g, f in NAMED.items():
        assert [int(bool(f(a, b))) for a, b in CORNERS] == out[:, g].tolist(), g
        encoded = sum(int(bool(f(a, b))) << (3 - (2 * a + b)) for a, b in CORNERS)
        assert encoded == g


def test_interpreter_chains_gates_through_wires():
    # xor(a, b) feeding and(xor, c): wire 3 is the xor, wire 4 the and
    rows = np.array([[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)], dtype=np.uint8)
    out = oracles.circuit_outputs(3, np.array([[0, 1], [3, 2]]), np.array([6, 1]), [4, 3], rows)
    assert out[:, 0].tolist() == [int((a != b) and c) for a, b, c in rows]
    assert out[:, 1].tolist() == [int(a != b) for a, b, c in rows]


def test_multilinear_gates_equal_boolean_gates_at_corners():
    a = np.array([x for x, _ in CORNERS], dtype=np.float64)
    b = np.array([y for _, y in CORNERS], dtype=np.float64)
    values = oracles.multilinear_gates(a, b)
    for g, f in NAMED.items():
        assert values[g].tolist() == [float(bool(f(x, y))) for x, y in CORNERS]


def test_multilinear_gates_are_expectations_between_corners():
    a, b = np.array([0.25]), np.array([0.6])
    want = [sum(float(bool(f(x, y))) * (a if x else 1 - a) * (b if y else 1 - b)
                for x, y in CORNERS) for f in NAMED.values()]
    np.testing.assert_allclose(oracles.multilinear_gates(a, b), want, rtol=0, atol=1e-15)


def _small_problem():
    from gatenet.model import LogicNet, ReadoutConfig, build_topology, init_params
    from gatenet.relaxed import backward, forward_relaxed

    topo = build_topology(5, [6, 8, 8, 4])
    net = LogicNet(topo, init_params(topo, 5, np.float64), ReadoutConfig(k=2, tau=0.5, beta=0.1))
    x = np.random.default_rng(5).integers(0, 2, (4, 6)).astype(np.float64)
    y = np.array([0, 1, 1, 0])

    def loss(logits):
        return oracles.cross_entropy(
            oracles.relaxed_scores(topo.connections, logits, 2, 0.5, 0.1, x), y)

    cache = forward_relaxed(net, x)
    grads = backward(net, cache, oracles.cross_entropy_grad(cache.scores, y))
    return net, grads, loss


def test_finite_difference_accepts_the_analytic_gradient():
    net, grads, loss = _small_problem()
    ok, worst, _ = oracles.gradient_agrees(grads, net.logits, loss, seed=0)
    assert ok, worst


def test_finite_difference_rejects_a_perturbed_gradient():
    net, grads, loss = _small_problem()
    for layer in range(len(grads)):
        scaled = [g * 1.001 if i == layer else g for i, g in enumerate(grads)]
        assert not oracles.gradient_agrees(scaled, net.logits, loss, seed=0)[0], layer
        nudged = [g.copy() for g in grads]
        nudged[layer][0, 3] += 1e-4
        assert not oracles.gradient_agrees(nudged, net.logits, loss, seed=0)[0], layer
