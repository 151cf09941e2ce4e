"""Shared fixtures and independent oracles for the test suite.

``eval_hard`` and ``eval_relaxed`` evaluate one gate from the truth tables
and bilinear coefficients of ``gatenet.gates``; the package itself never
evaluates gates one at a time. The oracles here deliberately avoid the
package's fast code paths: the network oracle evaluates all 16 gates explicitly per neuron, and the circuit
oracle applies truth-table lookups gate by gate on 0/1 arrays (no bit
packing, no collapsed coefficients), and the pack oracle moves one byte per
sample and feature before ``packbits``. ``unpack`` inverts ``pack`` with
the package's own word transpose run backwards; the package never unpacks
whole batches. ``adder_counts`` reads an adder aggregation's counter wires
as binary counts and adds the fold's offset, as the emitted kernel does.
Tests compare the real implementations against these.
``check_equivalence`` compares two circuits' output bits through the packed
path, which those oracles check, and ``structurally_equal`` compares their
netlists.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from gatenet import gates
from gatenet.model import (
    Circuit,
    LogicNet,
    ReadoutConfig,
    build_topology,
    discretize,
    init_params,
)
from gatenet.packed import (
    PackedBatch,
    _counted,
    _require_little_endian,
    _transpose_blocks,
    build_adder_aggregation,
    execute_packed,
    pack,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# Sample counts that leave the last 64-bit lane in every state: a single
# partial lane (1, 5 and 63 samples, plus tails that end on a byte, half-word
# and word boundary at 8, 16 and 32), one exact lane (64), and several lanes
# with a partial last one (65 and 2 * 64 + 3).
SAMPLE_COUNTS = (1, 5, 8, 16, 32, 63, 64, 65, 2 * 64 + 3)


def eval_hard(gate: int | np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean gate output for 0/1 inputs, read from ``gates.TRUTH_TABLES``. Broadcasts."""
    gate = np.asarray(gate)
    a = np.asarray(a).astype(np.uint8)
    b = np.asarray(b).astype(np.uint8)
    if np.any((gate < 0) | (gate >= gates.NUM_GATES)):
        raise ValueError("gate id out of range [0, 16)")
    return gates.TRUTH_TABLES[gate, 2 * a + b]


def eval_relaxed(gate: int, a, b):
    """Relaxed gate output for inputs in [0, 1], from ``gates.COEFFS``, in float64.

    Exact at the Boolean corners; returns values in [0, 1] for inputs in
    [0, 1] (bilinear surfaces take their extrema at corners).
    """
    if not 0 <= gate < gates.NUM_GATES:
        raise ValueError("gate id out of range [0, 16)")
    c0, c1, c2, c3 = gates.COEFFS[gate]
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return c0 + c1 * a + c2 * b + c3 * (a * b)


def oracle_net_forward(net: LogicNet, x: np.ndarray) -> np.ndarray:
    """Per-sample, per-gate explicit relaxed evaluation. Returns (batch, k) scores."""
    x = np.asarray(x, dtype=np.float64)
    out = []
    k = net.readout.k
    for s in range(x.shape[0]):
        a = x[s]
        for li, mat in enumerate(net.logits):
            conn = net.topology.connections[li]
            nxt = np.zeros(conn.shape[0])
            for j in range(conn.shape[0]):
                z = np.where(net.gate_mask, mat[j].astype(np.float64), -np.inf)
                z -= z.max()
                p = np.exp(z)
                p /= p.sum()
                acc = 0.0
                for g in range(16):
                    acc += p[g] * float(eval_relaxed(g, a[conn[j, 0]], a[conn[j, 1]]))
                nxt[j] = acc
            a = nxt
        n = len(a)
        sums = a.reshape(k, n // k).sum(axis=1)
        out.append(sums / net.readout.tau + net.readout.beta)
    return np.array(out)


def oracle_pack(samples: np.ndarray) -> np.ndarray:
    """(features, lanes) uint64 words of 0/1 samples, by a byte transpose and ``packbits``."""
    samples = np.asarray(samples).astype(np.uint8)
    n, f = samples.shape
    lanes = -(-n // 64)
    padded = np.zeros((f, lanes * 64), dtype=np.uint8)
    padded[:, :n] = samples.T
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def oracle_circuit_outputs(circuit: Circuit, samples: np.ndarray) -> np.ndarray:
    """Truth-table interpreter: output bits as (samples, outputs) uint8."""
    samples = np.asarray(samples, dtype=np.uint8)
    wires = np.empty((circuit.num_wires, samples.shape[0]), dtype=np.uint8)
    wires[: circuit.input_width] = samples.T
    for g in range(circuit.num_gates):
        s1, s2 = circuit.sources[g]
        wires[circuit.input_width + g] = eval_hard(
            int(circuit.opcodes[g]), wires[s1], wires[s2]
        )
    return wires[circuit.output_wires].T


def oracle_circuit_counts(circuit: Circuit, samples: np.ndarray) -> np.ndarray:
    """Per-class popcounts of the output bits, (samples, k) ints."""
    bits = oracle_circuit_outputs(circuit, samples)
    k = circuit.readout.k
    return bits.reshape(bits.shape[0], k, -1).sum(axis=2).astype(np.int64)


def unpack(batch: PackedBatch) -> np.ndarray:
    """Inverse of ``pack``: (samples, features) uint8, by its word transpose run backwards."""
    _require_little_endian()
    f, lanes = batch.words.shape
    if lanes == 0:
        return np.zeros((0, f), dtype=np.uint8)
    words = np.zeros((-(-f // 8) * 8, lanes), dtype=np.uint64)
    words[:f] = batch.words
    blocks = words.view(np.uint8).reshape(-1, 8, lanes * 8).transpose(0, 2, 1).copy()
    _transpose_blocks(blocks)  # a word: one byte of features for each of 8 samples
    octets = blocks.reshape(-1, lanes * 64)[:, : batch.sample_count].T.copy()
    return np.ascontiguousarray(np.unpackbits(octets, axis=1, bitorder="little")[:, :f])


def adder_counts(circuit: Circuit, samples) -> np.ndarray:
    """(samples, k) scores the emitted kernel gives ``circuit`` on raw 0/1 rows.

    That is the count its adder aggregation's output wires spell, k runs of
    ``bits`` counter wires, class after class, LSB first (bit b of a class's
    run is worth 1 << b), plus the class's offset from ``_counted``.
    """
    adder = build_adder_aggregation(circuit)
    wires = unpack(execute_packed(adder, pack(samples))).astype(np.int64)
    k = adder.readout.k
    bits = wires.shape[1] // k
    counts = (wires.reshape(len(wires), k, bits) << np.arange(bits)).sum(axis=2)
    return counts + _counted(circuit).offset


def structurally_equal(c1: Circuit, c2: Circuit) -> bool:
    """Whether two circuits have the same wiring, opcodes, outputs and readout."""
    return (
        c1.input_width == c2.input_width
        and c1.layer_sizes == c2.layer_sizes
        and np.array_equal(c1.sources, c2.sources)
        and np.array_equal(c1.opcodes, c2.opcodes)
        and np.array_equal(c1.output_wires, c2.output_wires)
        and c1.readout == c2.readout
    )


EXHAUSTIVE_LIMIT = 20
_CHUNK = 1 << 13


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of an output-bit comparison between two circuits."""

    equivalent: bool
    mode: str  # "exhaustive" or "sampled"
    tested: int
    counterexample: np.ndarray | None = None  # first differing input row

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    c1: Circuit,
    c2: Circuit,
    mode: str = "auto",
    samples: int = 10_000,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare two circuits' output bits input by input.

    With ``mode="auto"`` the check is exhaustive over all 2^w assignments
    when the input width w is at most 20, and falls back to ``samples``
    seeded random vectors otherwise. Stops at the first mismatch and reports
    that input row.
    """
    if c1.input_width != c2.input_width:
        raise ValueError("circuits have different input widths")
    if len(c1.output_wires) != len(c2.output_wires):
        raise ValueError("circuits have different output counts")
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError("mode must be 'auto', 'exhaustive', or 'sampled'")
    w = c1.input_width
    if mode == "auto":
        mode = "exhaustive" if w <= EXHAUSTIVE_LIMIT else "sampled"
    if mode == "exhaustive":
        if w > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive check limited to {EXHAUSTIVE_LIMIT} inputs, got {w}")
        total = 1 << w

        def batches():
            cols = np.arange(w, dtype=np.uint32)
            for start in range(0, total, _CHUNK):
                idx = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
                yield ((idx[:, None] >> cols) & 1).astype(np.uint8)

    else:
        total = int(samples)
        gen = np.random.default_rng(seed)

        def batches():
            remaining = total
            while remaining > 0:
                take = min(_CHUNK, remaining)
                remaining -= take
                yield gen.integers(0, 2, size=(take, w), dtype=np.uint8)

    tested = 0
    for x in batches():
        o1 = unpack(execute_packed(c1, pack(x)))
        o2 = unpack(execute_packed(c2, pack(x)))
        if not np.array_equal(o1, o2):
            row = int(np.nonzero((o1 != o2).any(axis=1))[0][0])
            return EquivalenceReport(False, mode, tested + row + 1, x[row].copy())
        tested += len(x)
    return EquivalenceReport(True, mode, tested)


def random_layered_circuit(
    rng: np.random.Generator,
    input_width: int,
    widths: list[int],
    k: int,
) -> Circuit:
    """A random strictly layered circuit (uniform wiring, ~uniform opcodes)."""
    seed = int(rng.integers(2**31))
    topo = build_topology(seed, [input_width, *widths])
    net = LogicNet(topo, init_params(topo, seed), ReadoutConfig(k=k))
    return discretize(net)


def random_netlist(
    rng: np.random.Generator, input_width: int, num_gates: int, k: int, group: int
) -> Circuit:
    """A random general netlist: not layered, with every opcode.

    Each source is read from any earlier wire or, half the time, from the 16
    wires just before its gate, so rows both live long and die early. With
    three or more outputs, one input wire is an output twice and the first
    gate once; the rest are drawn from all wires.
    """
    own = input_width + np.arange(num_gates)
    anywhere = rng.random((num_gates, 2)) * own[:, None]
    recent = own[:, None] - 1 - rng.integers(0, 16, (num_gates, 2))
    sources = np.where(rng.random((num_gates, 2)) < 0.5, anywhere, np.maximum(recent, 0))
    opcodes = rng.permutation(np.resize(np.arange(16, dtype=np.uint8), num_gates))
    outputs = rng.integers(0, input_width + num_gates, k * group)
    if len(outputs) >= 3 and num_gates:
        wire = rng.integers(0, input_width)
        outputs[:3] = wire, input_width, wire
        outputs = rng.permutation(outputs)
    return Circuit(
        input_width=input_width,
        layer_sizes=(num_gates,) if num_gates else (),
        sources=sources.astype(np.int64),
        opcodes=opcodes,
        output_wires=outputs,
        readout=ReadoutConfig(k=k),
    )


def random_small_net(rng: np.random.Generator, dtype=np.float64, mask: int = 0xFFFF) -> LogicNet:
    """A tiny random network for gradient checks; float64 by default."""
    depth = int(rng.integers(1, 4))
    input_width = int(rng.integers(2, 9))
    width = int(rng.integers(2, 17))
    k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
    topo = build_topology(int(rng.integers(2**31)), [input_width] + [width] * depth)
    logits = [m.astype(dtype) for m in init_params(topo, int(rng.integers(2**31)))]
    tau = float(rng.uniform(0.5, 3.0))
    beta = float(rng.uniform(-0.5, 0.5))
    return LogicNet(topo, logits, ReadoutConfig(k=k, tau=tau, beta=beta), allowed_gates=mask)


class ToyData:
    """Minimal stand-in for a loaded dataset."""

    def __init__(self, features, labels, class_count=None):
        self.features = np.asarray(features, dtype=np.uint8)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.width = self.features.shape[1]
        self.class_count = class_count or (int(self.labels.max()) + 1 if len(self.labels) else 0)


@pytest.fixture
def rng(request):
    """A generator seeded from the test's own id, so its draws do not depend on other tests."""
    digest = hashlib.sha256(request.node.nodeid.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# Classes of outputs for the constant-output fold, one string per class:
# x is a gate that depends on the inputs, i an input wire itself, and 0 and 1
# are constant-false and constant-true gates.
FOLD_CASES = {
    "all_false": ("000", "x0x", "1xx"),
    "all_true": ("111", "xx0", "x1x"),
    "mixed": ("x0x1", "1x0x", "xxxx"),
    "no_constants": ("xxx", "xxx"),
    "input_outputs": ("ix0", "x1i"),
    "group_of_one": ("0", "1", "x", "i"),
    "no_false_anywhere": ("11x", "xxx", "1x1"),
    "all_constant": ("10", "11", "00"),
    "all_true_no_false": ("11", "11"),
}


def fold_circuit(classes, input_width: int = 6) -> Circuit:
    """A two-band circuit whose outputs are the kinds ``classes`` spell out (see FOLD_CASES).

    The first band holds four gates over input pairs; each output is a gate
    of its own in the second band, reading the first, or an input wire.
    Opcodes 0 and 15 appear only where a class asks for them.
    """
    hidden = [(1, 0, 1), (6, 2, 3), (7, 4, 5), (14, 1, 4)]  # (opcode, source, source)
    band, outputs = [], []
    for j, kind in enumerate("".join(classes)):
        if kind == "i":
            outputs.append(j % input_width)
            continue
        op = {"0": 0, "1": 15}.get(kind, (6, 1, 9, 13, 7)[j % 5])
        band.append((op, input_width + j % 4, input_width + (j + 1) % 4))
        outputs.append(input_width + len(hidden) + len(band) - 1)
    table = np.array(hidden + band, dtype=np.int64).reshape(-1, 3)
    return Circuit(
        input_width=input_width,
        layer_sizes=(len(hidden), len(band)) if band else (len(hidden),),
        sources=table[:, 1:],
        opcodes=table[:, 0],
        output_wires=np.array(outputs),
        readout=ReadoutConfig(k=len(classes)),
    )
