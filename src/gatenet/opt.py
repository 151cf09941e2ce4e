"""Circuit optimization and analysis: pruning and gate histograms.

Pruning walks the netlist one dependency level at a time, all gates of a
level at once, tracking for every wire whether it is (a) a known constant,
(b) an alias of an earlier wire up to negation, or (c) the output of a gate
that genuinely depends on two wires and must be kept. Constant sources are
folded into the opcode by restricting the truth table, negated sources by
permuting it, and a gate whose two sources collapse onto the same wire is
restricted to its diagonal. Gates that degenerate to constants or
single-input functions stop existing and merely redirect their consumers;
negation parity composes through chains, so a NOT feeding a NOT costs
nothing. Whatever survives is renumbered after a backward reachability
sweep, and outputs that resolved to a constant or a negation get one shared
const/NOT gate each, materialized as a final band.
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


def prune(circuit: Circuit) -> Circuit:
    """Fold constants and pass-through/negation gates, drop unreachable gates.

    Output semantics are preserved exactly: the returned circuit produces the
    same output bits as the original for every input assignment, in the same
    order. Per-gate max-probability diagnostics survive for the kept gates
    (materialized gates get 1.0). The result is kept on ``circuit``, which
    is frozen, and is marked as its own pruned form, so ``prune(prune(c))
    is prune(c)`` and scoring a pruned circuit does not prune it again. The
    mark is a flag, not a reference to itself, so that a dropped circuit is
    freed at once, not by a later garbage collection.
    """
    if getattr(circuit, "_is_pruned", False):
        return circuit
    pruned = getattr(circuit, "_pruned", None)
    if pruned is None:
        pruned = _prune(circuit)
        object.__setattr__(pruned, "_is_pruned", True)  # Circuit is frozen
        object.__setattr__(circuit, "_pruned", pruned)
    return pruned


def _prune(circuit: Circuit) -> Circuit:
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
    fix_a, fix_b = np.stack(FIX_A), np.stack(FIX_B)
    unary = np.isin(np.arange(NUM_GATES), list(UNARY_GATES))

    # A gate reads only wires of lower levels, so one level resolves at once.
    level = circuit.levels()
    order = np.argsort(level, kind="stable")
    for wave in np.split(order, np.flatnonzero(np.diff(level[order])) + 1) if n else []:
        g = ops[wave]
        resolved = []
        for s, fix, negate in ((src[wave, 0], fix_a, NEGATE_A), (src[wave, 1], fix_b, NEGATE_B)):
            c = const[s]
            g = np.where(c >= 0, fix[np.maximum(c, 0), g], np.where(parity[s] == 1, negate[g], g))
            resolved.append(np.where(c >= 0, s, alias[s]))
        s1, s2 = resolved
        g = np.where(~unary[g] & (s1 == s2), TIE_SAME[g], g)
        w = w_in + wave
        const[w] = np.select([g == 0, g == 15], [0, 1], -1)
        passes = np.isin(g, (3, 5, 10, 12))  # a, b, not-b, not-a
        alias[w[passes]] = np.where(np.isin(g, (3, 12)), s1, s2)[passes]
        parity[w[passes]] = np.isin(g, (10, 12))[passes]
        kept = ~unary[g]
        keep[wave[kept]] = True
        res_src[wave[kept]] = np.stack([s1, s2], axis=1)[kept]
        res_op[wave[kept]] = g[kept]

    # Resolve every output through the descriptors.
    out_wires = circuit.output_wires.astype(np.int64)
    out_const = const[out_wires]
    is_const = out_const >= 0
    out_terminal = np.where(is_const, 0, alias[out_wires])
    out_parity = np.where(is_const, 0, parity[out_wires])

    # Backward reachability over the kept gates. A resolved source is an
    # ancestor of the original one, so the original levels still order them.
    live = keep & _live_gates(level, res_src, w_in, out_terminal[~is_const])
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
    # that some output still needs, in order of the first output needing it.
    new_out = remap[out_terminal]
    made = is_const | (out_parity == 1)
    key = np.where(is_const, -1 - out_const, new_out)[made]  # -1, -2: constant 0, 1
    uniq, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[by_first] = np.arange(len(uniq))
    new_out[made] = w_in + live_idx.size + rank[inverse]
    extra = uniq[by_first]
    extra_ops = np.select([extra == -1, extra == -2], [0, 15], 12).astype(np.uint8)
    extra_src = np.repeat(np.maximum(extra, 0)[:, None], 2, axis=1)

    if len(extra_ops):
        sizes.append(len(extra_ops))

    max_probs = None
    if circuit.max_probs is not None:
        max_probs = np.concatenate([circuit.max_probs[live_idx], np.ones(len(extra_ops))])
    return Circuit(
        input_width=w_in,
        layer_sizes=tuple(sizes),
        sources=np.concatenate([kept_sources, extra_src]),
        opcodes=np.concatenate([kept_opcodes, extra_ops]),
        output_wires=new_out,
        readout=circuit.readout,
        seed=circuit.seed,
        max_probs=max_probs,
    )


def _live_gates(level: np.ndarray, sources: np.ndarray, input_width: int, roots) -> np.ndarray:
    """Per gate, whether the ``roots`` wires reach back to it through ``sources``.

    Sources must lie at lower ``level``s than their gate; the levels are swept
    deepest first, a whole level at once.
    """
    needed = np.zeros(input_width + len(level), dtype=bool)
    needed[roots] = True
    order = np.argsort(level, kind="stable")
    for wave in reversed(np.split(order, np.flatnonzero(np.diff(level[order])) + 1)):
        needed[sources[wave[needed[input_width + wave]]].ravel()] = True
    return needed[input_width:]


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

    level = circuit.levels()
    live_mask = _live_gates(level, circuit.sources, circuit.input_width, circuit.output_wires)
    return CircuitStats(
        layer_sizes=circuit.layer_sizes,
        per_layer=per_layer,
        live_gates=int(np.count_nonzero(live_mask)),
        depth=int(level[live_mask].max(initial=0)),
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
