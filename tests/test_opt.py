"""Pruning, equivalence checking, and gate histograms.

The independent ground truth throughout is the truth-table interpreter from
conftest, exercised on every input assignment for small circuits.
"""

import csv

import numpy as np
import pytest

from conftest import oracle_circuit_counts, oracle_circuit_outputs, random_layered_circuit
from gatenet.model import Circuit, ReadoutConfig, build_topology, discretize, init_params, LogicNet
from gatenet.opt import (
    CircuitStats,
    EquivalenceReport,
    check_equivalence,
    op_histogram,
    prune,
    write_histogram_csv,
)
from gatenet.packed import build_adder_aggregation, circuit_scores, execute_packed, pack, unpack


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


class TestPrune:
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
            assert prune(p).structurally_equal(p)

    def test_max_probs_follow_kept_gates(self, rng):
        c = random_layered_circuit(rng, 6, [8, 8], k=2)
        p = prune(c)
        assert p.max_probs is not None and len(p.max_probs) == p.num_gates

    def test_counter_circuit_survives_pruning(self, rng):
        base = random_layered_circuit(rng, 10, [8, 8], k=2)
        adder = build_adder_aggregation(base)
        p = prune(adder)
        assert p.counter_bits is not None
        assert [len(cb) for cb in p.counter_bits] == [len(cb) for cb in adder.counter_bits]
        x = rng.integers(0, 2, size=(333, 10), dtype=np.uint8)
        np.testing.assert_array_equal(circuit_scores(p, x), oracle_circuit_counts(base, x))

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
