"""Circuit optimization and analysis: pruning, equivalence checking, histograms.

Pruning walks the netlist once in topological order, tracking for every wire
whether it is (a) a known constant, (b) an alias of an earlier wire up to
negation, or (c) the output of a gate that genuinely depends on two wires and
must be kept. Constant sources are folded into the opcode by restricting the
truth table, negated sources by permuting it, and a gate whose two sources
collapse onto the same wire is restricted to its diagonal. Gates that
degenerate to constants or single-input functions stop existing and merely
redirect their consumers; negation parity composes through chains, so a NOT
feeding a NOT costs nothing. Whatever survives is renumbered after a backward
reachability sweep, and outputs that resolved to a constant or a negation get
one shared const/NOT gate each, materialized as a final band.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .gates import (
    FIX_A,
    FIX_B,
    GATE_NAMES,
    NEGATE_A,
    NEGATE_B,
    NUM_GATES,
    TIE_SAME,
    UNARY_GATES,
)
from .model import Circuit, LogicNet, discretize
from .packed import execute_packed, pack, unpack

EXHAUSTIVE_LIMIT = 20
_CHUNK = 1 << 13


def prune(circuit: Circuit) -> Circuit:
    """Fold constants and pass-through/negation gates, drop unreachable gates.

    Output semantics are preserved exactly: the returned circuit produces the
    same output bits as the original for every input assignment, in the same
    order. Idempotent up to structural equality. Per-gate max-probability
    diagnostics survive for the kept gates (materialized gates get 1.0), and
    counter metadata is carried through the renumbering.
    """
    w_in = circuit.input_width
    n = circuit.num_gates
    nw = circuit.num_wires
    src = circuit.sources.astype(np.int64)
    ops = circuit.opcodes

    const = np.full(nw, -1, dtype=np.int8)  # 0/1 once a wire is known constant
    alias = np.arange(nw, dtype=np.int64)  # terminal wire carrying the value
    parity = np.zeros(nw, dtype=np.uint8)  # 1 when the wire is NOT(alias)
    keep = np.zeros(n, dtype=bool)
    res_src = np.zeros((n, 2), dtype=np.int64)
    res_op = np.zeros(n, dtype=np.uint8)

    for i in range(n):
        w = w_in + i
        g = int(ops[i])
        s1, s2 = int(src[i, 0]), int(src[i, 1])
        if const[s1] >= 0:
            g = int(FIX_A[const[s1]][g])
        else:
            if parity[s1]:
                g = int(NEGATE_A[g])
            s1 = int(alias[s1])
        if const[s2] >= 0:
            g = int(FIX_B[const[s2]][g])
        else:
            if parity[s2]:
                g = int(NEGATE_B[g])
            s2 = int(alias[s2])
        if g not in UNARY_GATES and s1 == s2:
            g = int(TIE_SAME[g])
        if g == 0 or g == 15:
            const[w] = 1 if g == 15 else 0
        elif g == 3:  # a
            alias[w], parity[w] = s1, 0
        elif g == 12:  # not-a
            alias[w], parity[w] = s1, 1
        elif g == 5:  # b
            alias[w], parity[w] = s2, 0
        elif g == 10:  # not-b
            alias[w], parity[w] = s2, 1
        else:
            keep[i] = True
            res_src[i] = (s1, s2)
            res_op[i] = g

    # Resolve every output through the descriptors.
    out_wires = circuit.output_wires.astype(np.int64)
    n_out = len(out_wires)
    out_const = np.full(n_out, -1, dtype=np.int8)
    out_terminal = np.zeros(n_out, dtype=np.int64)
    out_parity = np.zeros(n_out, dtype=np.uint8)
    for j, ow in enumerate(out_wires):
        if const[ow] >= 0:
            out_const[j] = const[ow]
        else:
            out_terminal[j] = alias[ow]
            out_parity[j] = parity[ow]

    # Backward reachability over the kept gates.
    needed = np.zeros(nw, dtype=bool)
    needed[out_terminal[out_const < 0]] = True
    for i in range(n - 1, -1, -1):
        if keep[i] and needed[w_in + i]:
            needed[res_src[i, 0]] = True
            needed[res_src[i, 1]] = True
    live = keep & needed[w_in:]
    live_idx = np.flatnonzero(live)

    remap = np.full(nw, -1, dtype=np.int64)
    remap[:w_in] = np.arange(w_in)
    remap[w_in + live_idx] = w_in + np.arange(live_idx.size)
    kept_sources = remap[res_src[live_idx]]
    kept_opcodes = res_op[live_idx]

    band_of = np.repeat(np.arange(len(circuit.layer_sizes)), circuit.layer_sizes)
    live_per_band = np.bincount(band_of[live_idx], minlength=len(circuit.layer_sizes))
    sizes = [int(c) for c in live_per_band if c]

    # Materialize one shared gate per constant value / negated terminal wire
    # that some output still needs.
    extra_src: list[tuple[int, int]] = []
    extra_ops: list[int] = []
    made: dict[tuple, int] = {}
    next_wire = w_in + live_idx.size

    def materialize(key: tuple, opcode: int, source: int) -> int:
        nonlocal next_wire
        if key not in made:
            extra_src.append((source, source))
            extra_ops.append(opcode)
            made[key] = next_wire
            next_wire += 1
        return made[key]

    new_out = np.empty(n_out, dtype=np.int64)
    for j in range(n_out):
        if out_const[j] >= 0:
            new_out[j] = materialize(("const", int(out_const[j])), 15 if out_const[j] else 0, 0)
        elif out_parity[j]:
            term = int(remap[out_terminal[j]])
            new_out[j] = materialize(("not", term), 12, term)
        else:
            new_out[j] = remap[out_terminal[j]]

    sources_parts = [kept_sources]
    opcode_parts = [kept_opcodes]
    if extra_ops:
        sizes.append(len(extra_ops))
        sources_parts.append(np.array(extra_src, dtype=np.int64))
        opcode_parts.append(np.array(extra_ops, dtype=np.uint8))

    max_probs = None
    if circuit.max_probs is not None:
        max_probs = np.concatenate([circuit.max_probs[live_idx], np.ones(len(extra_ops))])
    counter_bits = None
    if circuit.counter_bits is not None:
        splits = np.cumsum([len(cb) for cb in circuit.counter_bits])[:-1]
        counter_bits = tuple(
            part.astype(np.uint32) for part in np.split(new_out, splits)
        )
    return Circuit(
        input_width=w_in,
        layer_sizes=tuple(sizes),
        sources=np.concatenate(sources_parts, axis=0),
        opcodes=np.concatenate(opcode_parts),
        output_wires=new_out,
        readout=circuit.readout,
        seed=circuit.seed,
        max_probs=max_probs,
        counter_bits=counter_bits,
    )


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


@dataclass(frozen=True)
class CircuitStats:
    """Gate-distribution and structure diagnostics for one model."""

    layer_sizes: tuple[int, ...]
    per_layer: np.ndarray  # (layers, 16) counts, rows sum to the layer widths
    live_gates: int  # gates backward-reachable from the outputs
    depth: int  # longest input-to-output dependency chain
    constant_gates: int  # gates with opcode 0 or 15

    @property
    def total_gates(self) -> int:
        return int(self.per_layer.sum())


def op_histogram(model: Circuit | LogicNet) -> CircuitStats:
    """Per-layer histogram over the 16 gate ids, plus liveness and depth.

    A trainable network is first snapped to its most probable gate per
    neuron, so the histogram describes the circuit it would discretize to.
    """
    circuit = model if isinstance(model, Circuit) else discretize(model)
    if circuit.layer_sizes:
        per_layer = np.stack(
            [
                np.bincount(circuit.opcodes[sl], minlength=NUM_GATES).astype(np.int64)
                for sl in circuit.layer_slices()
            ]
        )
    else:
        per_layer = np.zeros((0, NUM_GATES), dtype=np.int64)

    w_in = circuit.input_width
    src = circuit.sources.astype(np.int64)
    needed = np.zeros(circuit.num_wires, dtype=bool)
    needed[circuit.output_wires.astype(np.int64)] = True
    for i in range(circuit.num_gates - 1, -1, -1):
        if needed[w_in + i]:
            needed[src[i, 0]] = True
            needed[src[i, 1]] = True
    live_mask = needed[w_in:]
    return CircuitStats(
        layer_sizes=circuit.layer_sizes,
        per_layer=per_layer,
        live_gates=int(np.count_nonzero(live_mask)),
        depth=int(circuit.levels()[live_mask].max(initial=0)),
        constant_gates=int(np.isin(circuit.opcodes, (0, 15)).sum()),
    )


def write_histogram_csv(stats: CircuitStats, path) -> None:
    """Write the histogram as CSV rows (layer, gate_id, gate_name, count)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["layer", "gate_id", "gate_name", "count"])
        for li in range(stats.per_layer.shape[0]):
            for g in range(NUM_GATES):
                out.writerow([li, g, GATE_NAMES[g], int(stats.per_layer[li, g])])
