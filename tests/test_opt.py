"""Pruning, equivalence checking, and gate histograms.

The independent ground truth throughout is the truth-table interpreter from
conftest, exercised on every input assignment for small circuits.
"""

import csv
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    FOLD_CASES,
    check_equivalence,
    fold_circuit,
    oracle_circuit_outputs,
    random_layered_circuit,
    random_netlist,
    structurally_equal,
    unpack,
)
from gatenet import gates
from gatenet.model import Circuit, ReadoutConfig, build_topology, discretize, init_params, LogicNet
from gatenet.modelfile import save_model
from gatenet.opt import (
    _live_gates,
    CircuitStats,
    op_histogram,
    prune,
    write_histogram_csv,
)
from gatenet.packed import (
    build_adder_aggregation,
    circuit_scores,
    execute_packed,
    pack,
)


def circ(w_in, layer_sizes, sources, opcodes, outputs, k=1):
    return Circuit(
        input_width=w_in,
        layer_sizes=tuple(layer_sizes),
        sources=np.array(sources, dtype=np.uint32).reshape(-1, 2),
        opcodes=np.array(opcodes, dtype=np.uint8),
        output_wires=np.array(outputs, dtype=np.uint32),
        readout=ReadoutConfig(k=k),
    )


def all_inputs(w: int) -> np.ndarray:
    idx = np.arange(1 << w, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(w, dtype=np.uint32)) & 1).astype(np.uint8)


def assert_same_behavior(c1: Circuit, c2: Circuit) -> None:
    x = all_inputs(c1.input_width)
    np.testing.assert_array_equal(oracle_circuit_outputs(c1, x), oracle_circuit_outputs(c2, x))


def loop_prune(circuit: Circuit) -> Circuit:
    """``prune`` one gate and one output at a time: the reference for the vectorized one."""
    w_in, n = circuit.input_width, circuit.num_gates
    const = np.full(circuit.num_wires, -1)
    alias = np.arange(circuit.num_wires)
    parity = np.zeros(circuit.num_wires, dtype=int)
    keep = np.zeros(n, dtype=bool)
    res_src, res_op = np.zeros((n, 2), dtype=np.int64), np.zeros(n, dtype=np.uint8)
    for i in range(n):
        g, (s1, s2) = int(circuit.opcodes[i]), (int(s) for s in circuit.sources[i])
        if const[s1] >= 0:
            g = int(gates.FIX_A[const[s1]][g])
        else:
            g, s1 = int(gates.NEGATE_A[g]) if parity[s1] else g, int(alias[s1])
        if const[s2] >= 0:
            g = int(gates.FIX_B[const[s2]][g])
        else:
            g, s2 = int(gates.NEGATE_B[g]) if parity[s2] else g, int(alias[s2])
        if g not in gates.UNARY_GATES and s1 == s2:
            g = int(gates.TIE_SAME[g])
        w = w_in + i
        if g in (0, 15):
            const[w] = g == 15
        elif g in (3, 5, 10, 12):
            alias[w], parity[w] = (s1 if g in (3, 12) else s2), g in (10, 12)
        else:
            keep[i], res_src[i], res_op[i] = True, (s1, s2), g
    outs = circuit.output_wires.astype(np.int64)
    roots = [alias[w] for w in outs if const[w] < 0]
    live_idx = np.flatnonzero(keep & _live_gates(circuit.levels(), res_src, w_in, roots))
    remap = np.full(circuit.num_wires, -1)
    remap[:w_in] = np.arange(w_in)
    remap[w_in + live_idx] = w_in + np.arange(len(live_idx))
    band = np.repeat(np.arange(len(circuit.layer_sizes)), circuit.layer_sizes)[live_idx]
    sizes = [int(c) for c in np.bincount(band, minlength=len(circuit.layer_sizes)) if c]
    made, extra_src, extra_ops, new_out = {}, [], [], []
    for w in outs:
        if const[w] < 0 and not parity[w]:
            new_out.append(remap[alias[w]])
            continue
        key = ("const", const[w]) if const[w] >= 0 else ("not", remap[alias[w]])
        if key not in made:
            made[key] = w_in + len(live_idx) + len(extra_ops)
            extra_src.append((0, 0) if key[0] == "const" else (key[1], key[1]))
            extra_ops.append((0, 15)[key[1]] if key[0] == "const" else 12)
        new_out.append(made[key])
    max_probs = None
    if circuit.max_probs is not None:
        max_probs = np.concatenate([circuit.max_probs[live_idx], np.ones(len(extra_ops))])
    return Circuit(
        input_width=w_in,
        layer_sizes=tuple(sizes + [len(extra_ops)] * bool(extra_ops)),
        sources=np.concatenate([remap[res_src[live_idx]], np.reshape(extra_src, (-1, 2))]),
        opcodes=np.concatenate([res_op[live_idx], np.array(extra_ops, dtype=np.uint8)]),
        output_wires=np.array(new_out),
        readout=circuit.readout,
        seed=circuit.seed,
        max_probs=max_probs,
    )


class TestPrune:
    def test_matches_per_gate_loop(self, rng, tmp_path):
        for _ in range(40):
            width = int(rng.integers(2, 40))
            k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
            layered = random_layered_circuit(rng, int(rng.integers(2, 30)), [width] * 3, k)
            general = random_netlist(rng, int(rng.integers(1, 12)), int(rng.integers(0, 150)),
                                     int(rng.integers(1, 4)), int(rng.integers(1, 7)))
            for circ in (layered, build_adder_aggregation(layered), general):
                got, want = prune(circ), loop_prune(circ)
                assert structurally_equal(got, want)
                save_model(got, tmp_path / "got.gnet")
                save_model(want, tmp_path / "want.gnet")
                assert (tmp_path / "got.gnet").read_bytes() == (tmp_path / "want.gnet").read_bytes()

    def test_constant_annihilates_and(self):
        # false(x0,x1) feeding and(., x2): the whole output is constant false.
        c = circ(3, (1, 1), [[0, 1], [3, 2]], [0, 1], [4])
        p = prune(c)
        assert p.num_gates == 1 and p.opcodes[0] == 0
        assert_same_behavior(c, p)

    def test_constant_true_dominates_or(self):
        c = circ(3, (1, 1), [[0, 1], [3, 2]], [15, 7], [4])
        p = prune(c)
        assert p.num_gates == 1 and p.opcodes[0] == 15
        assert_same_behavior(c, p)

    def test_double_negation_folds_to_bare_wire(self):
        c = circ(2, (1, 1), [[0, 1], [2, 0]], [12, 12], [3])
        p = prune(c)
        assert p.num_gates == 0
        assert p.layer_sizes == ()
        assert list(p.output_wires) == [0]
        assert_same_behavior(c, p)

    def test_odd_negation_chain_keeps_one_not(self):
        c = circ(2, (1, 1, 1), [[0, 1], [2, 0], [3, 0]], [12, 12, 12], [4])
        p = prune(c)
        assert p.num_gates == 1 and p.opcodes[0] == 12
        assert list(p.sources[0]) == [0, 0] and list(p.output_wires) == [2]
        assert_same_behavior(c, p)

    def test_negated_source_folds_into_opcode(self):
        # xor fed by not(x0) is xnor(x0, x1) outright.
        c = circ(2, (1, 1), [[0, 1], [2, 1]], [12, 6], [3])
        p = prune(c)
        assert p.num_gates == 1 and p.opcodes[0] == 9
        assert list(p.sources[0]) == [0, 1]
        assert_same_behavior(c, p)

    def test_tied_sources_restrict_to_diagonal(self):
        # and(x0, x0) passes x0 straight through.
        c = circ(2, (1,), [[0, 0]], [1], [2])
        p = prune(c)
        assert p.num_gates == 0 and list(p.output_wires) == [0]
        assert_same_behavior(c, p)

    def test_or_with_own_negation_is_true(self):
        c = circ(2, (1, 1), [[0, 1], [0, 2]], [12, 7], [3])
        p = prune(c)
        assert p.num_gates == 1 and p.opcodes[0] == 15
        assert_same_behavior(c, p)

    def test_dead_gates_dropped(self):
        c = circ(
            3,
            (4,),
            [[0, 1], [1, 2], [0, 2], [1, 0]],
            [1, 7, 6, 14],
            [3, 5],
            k=2,
        )
        p = prune(c)
        assert p.num_gates == 2
        assert [int(o) for o in p.opcodes] == [1, 6]
        assert_same_behavior(c, p)

    def test_shared_not_and_const_outputs(self):
        c = circ(2, (1, 1), [[0, 1], [0, 1]], [12, 0], [2, 2, 3], k=1)
        p = prune(c)
        assert p.num_gates == 2
        assert [int(o) for o in p.opcodes] == [12, 0]
        assert list(p.output_wires) == [2, 2, 3]
        assert_same_behavior(c, p)

    def test_random_circuits_equivalent_and_smaller(self, rng):
        for _ in range(12):
            c = random_layered_circuit(rng, 8, [12, 12, 6], k=3)
            p = prune(c)
            assert p.num_gates <= c.num_gates
            assert_same_behavior(c, p)

    def test_idempotent(self, rng):
        for _ in range(8):
            c = random_layered_circuit(rng, 7, [10, 10], k=2)
            p = prune(c)
            assert prune(p) is p and prune(c) is p
            # what prune(p) would build if it ran again: the result it stands for
            assert structurally_equal(prune(replace(p)), p)

    @pytest.mark.parametrize("constant_outputs", [False, True])
    def test_scored_circuits_are_freed_without_a_collection(self, rng, constant_outputs):
        # prune's mark and the fold that scoring caches make no reference
        # cycle, with or without constant outputs to pad
        c = fold_circuit(FOLD_CASES["mixed"]) if constant_outputs else (
            random_layered_circuit(rng, 7, [10, 10], k=2))
        x = (rng.uniform(size=(5, c.input_width)) < 0.5).astype(np.uint8)
        p = prune(c)
        circuit_scores(c, x)
        circuit_scores(p, x)
        refs = [weakref.ref(c), weakref.ref(p)]
        gc.disable()
        try:
            del c, p
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_max_probs_follow_kept_gates(self, rng):
        c = random_layered_circuit(rng, 6, [8, 8], k=2)
        p = prune(c)
        assert p.max_probs is not None and len(p.max_probs) == p.num_gates

    def test_pass_through_outputs_execute_packed(self):
        c = circ(3, (1,), [[1, 0]], [3], [3])
        p = prune(c)
        assert p.num_gates == 0 and list(p.output_wires) == [1]
        x = all_inputs(3)
        got = unpack(execute_packed(p, pack(x)))
        np.testing.assert_array_equal(got, x[:, [1]])

    def test_wide_circuit_sampled_equivalence(self, rng):
        c = random_layered_circuit(rng, 50, [32, 16], k=4)
        report = check_equivalence(c, prune(c), samples=2000, seed=7)
        assert report.equivalent and report.mode == "sampled" and report.tested == 2000


class TestCheckEquivalence:
    def test_self_equivalence_exhaustive(self, rng):
        c = random_layered_circuit(rng, 6, [8, 4], k=2)
        report = check_equivalence(c, c)
        assert report.equivalent and report.mode == "exhaustive"
        assert report.tested == 64 and report.counterexample is None

    def test_flipped_output_gate_found_immediately(self, rng):
        c1 = random_layered_circuit(rng, 6, [8, 4], k=2)
        flipped = c1.opcodes.copy()
        flipped[-1] = 15 - flipped[-1]  # complement: differs on every input
        c2 = Circuit(
            c1.input_width, c1.layer_sizes, c1.sources, flipped, c1.output_wires, c1.readout
        )
        report = check_equivalence(c1, c2)
        assert not report.equivalent and report.tested == 1
        cex = report.counterexample[None, :]
        assert not np.array_equal(oracle_circuit_outputs(c1, cex), oracle_circuit_outputs(c2, cex))

    def test_single_input_disagreement_is_pinpointed(self):
        # and vs or differ exactly on the two mixed assignments.
        c1 = circ(2, (1,), [[0, 1]], [1], [2])
        c2 = circ(2, (1,), [[0, 1]], [7], [2])
        report = check_equivalence(c1, c2)
        assert not report.equivalent
        a, b = report.counterexample
        assert a != b  # first mismatch is a mixed assignment

    def test_sampled_mode_on_wide_circuit(self, rng):
        c1 = random_layered_circuit(rng, 30, [8, 4], k=2)
        flipped = c1.opcodes.copy()
        flipped[-1] = 15 - flipped[-1]
        c2 = Circuit(
            c1.input_width, c1.layer_sizes, c1.sources, flipped, c1.output_wires, c1.readout
        )
        report = check_equivalence(c1, c2, samples=500)
        assert not report.equivalent and report.mode == "sampled" and report.tested == 1

    def test_shape_mismatches_raise(self, rng):
        c1 = random_layered_circuit(rng, 6, [8, 4], k=2)
        c2 = random_layered_circuit(rng, 7, [8, 4], k=2)
        with pytest.raises(ValueError, match="input width"):
            check_equivalence(c1, c2)
        c3 = random_layered_circuit(rng, 6, [8, 8], k=2)
        with pytest.raises(ValueError, match="output count"):
            check_equivalence(c1, c3)

    def test_exhaustive_refused_on_wide_inputs(self, rng):
        c = random_layered_circuit(rng, 21, [4, 4], k=2)
        with pytest.raises(ValueError, match="exhaustive"):
            check_equivalence(c, c, mode="exhaustive")
        with pytest.raises(ValueError, match="mode"):
            check_equivalence(c, c, mode="fuzz")


class TestOpHistogram:
    def test_all_and_circuit(self):
        c = circ(2, (3,), [[0, 1]] * 3, [1, 1, 1], [2, 3, 4], k=1)
        stats = op_histogram(c)
        assert stats.per_layer.shape == (1, 16)
        assert stats.per_layer[0, 1] == 3 and stats.per_layer.sum() == 3

    def test_rows_sum_to_layer_widths(self, rng):
        c = random_layered_circuit(rng, 9, [14, 10, 6], k=3)
        stats = op_histogram(c)
        np.testing.assert_array_equal(stats.per_layer.sum(axis=1), [14, 10, 6])
        assert stats.total_gates == 30

    def test_checkpoint_uses_argmax_gates(self, rng):
        seed = int(rng.integers(2**31))
        topo = build_topology(seed, [6, 8, 8])
        net = LogicNet(topo, init_params(topo, seed), ReadoutConfig(k=2), allowed_gates=0x00F7)
        stats = op_histogram(net)
        np.testing.assert_array_equal(stats.per_layer, op_histogram(discretize(net)).per_layer)
        # masked gates can never appear
        assert stats.per_layer[:, 3].sum() == 0 and stats.per_layer[:, 8:].sum() == 0

    def test_live_and_depth(self, rng):
        c = circ(2, (2, 1), [[0, 1], [0, 1], [2, 3]], [6, 1, 7], [4])
        stats = op_histogram(c)
        assert stats.live_gates == 3 and stats.depth == 2
        dead_mid = circ(2, (2, 1), [[0, 1], [0, 1], [2, 2]], [6, 1, 7], [4])
        stats = op_histogram(dead_mid)
        assert stats.live_gates == 2 and stats.depth == 2
        # the counter band reads its own gates, so depth outgrows the band count
        adder = build_adder_aggregation(random_layered_circuit(rng, 8, [24, 24], k=2))
        w_in = adder.input_width
        level = np.zeros(adder.num_wires, dtype=np.int64)
        for g, (s1, s2) in enumerate(adder.sources):
            level[w_in + g] = 1 + max(level[s1], level[s2])
        needed = np.zeros(adder.num_wires, dtype=bool)
        needed[adder.output_wires] = True
        for g in range(adder.num_gates - 1, -1, -1):
            needed[adder.sources[g]] |= needed[w_in + g]
        np.testing.assert_array_equal(adder.levels(), level[w_in:])
        stats = op_histogram(adder)
        assert stats.live_gates == needed[w_in:].sum()
        assert stats.depth == level[w_in:][needed[w_in:]].max() > len(adder.layer_sizes)

    def test_depth_drops_after_prune(self):
        c = circ(2, (1, 1, 1), [[0, 1], [2, 0], [3, 0]], [12, 12, 12], [4])
        assert op_histogram(c).depth == 3
        assert op_histogram(prune(c)).depth == 1

    def test_constant_gate_count(self):
        c = circ(2, (3,), [[0, 1]] * 3, [0, 6, 15], [2, 3, 4], k=3)
        assert op_histogram(c).constant_gates == 2

    def test_csv_round_trip(self, rng, tmp_path):
        stats = op_histogram(random_layered_circuit(rng, 8, [10, 10], k=2))
        path = tmp_path / "hist.csv"
        write_histogram_csv(stats, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "gate_id", "gate_name", "count"]
        assert len(rows) == 1 + 2 * 16
        for row in rows[1:]:
            li, gid, name, count = int(row[0]), int(row[1]), row[2], int(row[3])
            assert stats.per_layer[li, gid] == count and name
        by_layer = np.zeros(2, dtype=int)
        for row in rows[1:]:
            by_layer[int(row[0])] += int(row[3])
        np.testing.assert_array_equal(by_layer, [10, 10])
