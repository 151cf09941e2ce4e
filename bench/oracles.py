"""Reference computations the benchmark checks gatenet's outputs against.

Nothing here calls into gatenet: gates are evaluated from the truth-table
encoding itself (gate id g outputs bit 3 - 2a - b of g on inputs a, b), the
relaxed network from the multilinear extension of those tables in float64,
and gradients by central differences of that float64 evaluation.
"""

from __future__ import annotations

import numpy as np

# (16, 4) truth tables; column 2a+b holds g(a, b).
TRUTH = np.array(
    [[(g >> (3 - (2 * a + b))) & 1 for a in (0, 1) for b in (0, 1)] for g in range(16)],
    dtype=np.uint8,
)


def circuit_outputs(input_width, sources, opcodes, output_wires, rows) -> np.ndarray:
    """Evaluate a netlist gate by gate on 0/1 bytes: (rows, outputs) uint8.

    Wires 0 .. input_width-1 are the inputs; gate ``i`` drives wire
    ``input_width + i`` from the two wires in ``sources[i]``.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    wires = np.empty((input_width + len(opcodes), rows.shape[0]), dtype=np.uint8)
    wires[:input_width] = rows.T
    for i, (g, (s1, s2)) in enumerate(zip(opcodes.tolist(), sources.tolist())):
        wires[input_width + i] = TRUTH[g][2 * wires[s1] + wires[s2]]
    return wires[np.asarray(output_wires, dtype=np.int64)].T


def class_counts(circuit, rows) -> np.ndarray:
    """Per-class counts of set output bits, (rows, k) int64, for a gatenet Circuit."""
    bits = circuit_outputs(
        circuit.input_width, circuit.sources, circuit.opcodes, circuit.output_wires, rows
    )
    k = circuit.readout.k
    return bits.reshape(bits.shape[0], k, -1).sum(axis=2, dtype=np.int64)


def multilinear_gates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All 16 relaxed gates at real inputs: (16,) + a.shape, in float64.

    Each gate is the multilinear extension of its truth table,
    sum over corners (x, y) of g(x, y) * P(A = x) * P(B = y).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    corners = np.stack([(1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b])
    return np.tensordot(TRUTH.astype(np.float64), corners, axes=(1, 0))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def relaxed_scores(connections, logits, k: int, tau: float, beta: float, rows) -> np.ndarray:
    """Float64 scores of a relaxed network: (rows, k).

    ``connections[l]`` is layer l's (width, 2) table of source indices into
    the previous layer and ``logits[l]`` its (width, 16) gate logits. The
    readout sums k contiguous groups of the last layer, divides by ``tau``
    and adds ``beta``.
    """
    act = np.asarray(rows, dtype=np.float64).T  # (features, rows)
    for conn, z in zip(connections, logits):
        p = _softmax(np.asarray(z, dtype=np.float64))  # (width, 16)
        g = multilinear_gates(act[conn[:, 0]], act[conn[:, 1]])  # (16, width, rows)
        act = np.einsum("wg,gwr->wr", p, g)
    sums = act.reshape(k, -1, act.shape[1]).sum(axis=1).T
    return sums / tau + beta


def cross_entropy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy in float64."""
    s = np.asarray(scores, dtype=np.float64)
    s = s - s.max(axis=1, keepdims=True)
    logz = np.log(np.exp(s).sum(axis=1))
    return float((logz - s[np.arange(len(labels)), labels]).mean())


def cross_entropy_grad(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of ``cross_entropy`` with respect to the scores: (softmax - one-hot) / rows."""
    grad = _softmax(np.asarray(scores, dtype=np.float64))
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad / len(labels)


def directional_derivative(loss, logits, direction, h: float) -> float:
    """Central difference of ``loss(logits)`` along ``direction`` with step ``h``."""
    plus = [z + h * d for z, d in zip(logits, direction)]
    minus = [z - h * d for z, d in zip(logits, direction)]
    return (loss(plus) - loss(minus)) / (2 * h)


def gradient_agrees(grads, logits, loss, seed: int, h: float = 1e-2, rtol: float = 1e-5):
    """Compare analytic ``grads`` with central differences of ``loss``, one layer at a time.

    Returns (agrees, worst relative error, per-layer (analytic, numeric)).
    Layer l's direction moves only that layer: its unit analytic gradient
    plus a seeded random unit vector, normalized. The derivative along it
    stays far from zero, and errors orthogonal to the gradient still reach
    it through the random part.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for layer, g in enumerate(grads):
        g = np.asarray(g, dtype=np.float64)
        noise = rng.standard_normal(g.shape)
        d = g / np.linalg.norm(g) + noise / np.linalg.norm(noise)
        d /= np.linalg.norm(d)
        direction = [d if i == layer else np.zeros_like(z) for i, z in enumerate(logits)]
        pairs.append((float((g * d).sum()), directional_derivative(loss, logits, direction, h)))
    worst = max(abs(a - n) / max(abs(a), abs(n)) for a, n in pairs)
    return worst <= rtol, worst, pairs
