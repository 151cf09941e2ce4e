"""Bit-packed circuit execution against the truth-table interpreter."""

import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FOLD_CASES,
    SAMPLE_COUNTS,
    adder_counts,
    eval_hard,
    fold_circuit,
    oracle_circuit_counts,
    oracle_circuit_outputs,
    oracle_pack,
    random_layered_circuit,
    random_netlist,
    structurally_equal,
)
from gatenet import packed
from gatenet.emit import emit_source
from gatenet.model import Circuit, ReadoutConfig
from gatenet.opt import prune
from gatenet.packed import (
    PackedBatch,
    _counted,
    _decode_counts,
    _lane_blocks,
    _plan_for,
    benchmark,
    build_adder_aggregation,
    circuit_scores,
    execute_packed,
    pack,
    popcount_scores,
    unpack,
)


def single_gate_circuit(op: int, k: int = 1) -> Circuit:
    return Circuit(
        input_width=2,
        layer_sizes=(1,),
        sources=np.array([[0, 1]], dtype=np.uint32),
        opcodes=np.array([op], dtype=np.uint8),
        output_wires=np.array([2], dtype=np.uint32),
        readout=ReadoutConfig(k=k),
    )


def scored_rows(circuit: Circuit) -> int:
    """Plane rows of the plan ``circuit_scores`` runs for ``circuit``: its pruned fold's."""
    return _plan_for(_counted(circuit).circuit).rows


def counter_gates(circuit: Circuit, adder: Circuit) -> slice:
    """The gates ``build_adder_aggregation(circuit)`` appended to the pruned base."""
    return slice(_counted(circuit).base.num_gates, adder.num_gates)


def passthrough_circuit(width: int, k: int, op: int = 3) -> Circuit:
    """One band of ``op`` gates, gate i reading input i (op 3 copies it)."""
    return Circuit(
        input_width=width,
        layer_sizes=(width,),
        sources=np.stack([np.arange(width), np.zeros(width, dtype=np.int64)], axis=1),
        opcodes=np.full(width, op, dtype=np.uint8),
        output_wires=np.arange(width, 2 * width),
        readout=ReadoutConfig(k=k),
    )


class TestPack:
    def test_direct_placement(self):
        samples = np.array([[1], [0], [1]], dtype=np.uint8)
        batch = pack(samples)
        assert batch.words.shape == (1, 1)
        assert int(batch.words[0, 0]) == 0b101

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        x = (rng.uniform(size=(1000, 23)) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(unpack(pack(x)), x)

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20)
    def test_round_trip_property(self, f, seed):
        gen = np.random.default_rng(seed)
        for n in SAMPLE_COUNTS:
            x = (gen.uniform(size=(n, f)) < 0.5).astype(np.uint8)
            batch = pack(x)
            assert batch.words.dtype == np.uint64
            assert batch.lanes == -(-n // 64)
            np.testing.assert_array_equal(unpack(batch), x)

    def test_zero_rows_round_trip(self):
        rows = np.zeros((0, 12), dtype=np.uint8)
        empty = PackedBatch(np.zeros((12, 0), dtype=np.uint64), 0)
        for batch in (empty, packed._batch_or_rows(rows)):
            got = unpack(batch)
            assert got.shape == (0, 12) and got.dtype == np.uint8
            np.testing.assert_array_equal(got, rows)

    @pytest.mark.parametrize("lanes, samples", [(1, 100), (2, 64), (0, 1), (2, 0), (1, -1)])
    def test_lanes_must_hold_exactly_the_samples(self, lanes, samples):
        need = max(-(-samples // 64), 0)
        message = f"^{samples} samples need {need} lanes, words have {lanes}$"
        with pytest.raises(ValueError, match=message):
            PackedBatch(np.zeros((12, lanes), dtype=np.uint64), samples)

    @pytest.mark.parametrize("shape", [(12,), (12, 1, 1), ()])
    def test_words_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=f"words must be 2-d .*, got {len(shape)}-d"):
            PackedBatch(np.zeros(shape, dtype=np.uint64), 0)

    def test_padding_bits_are_zero(self):
        for n in SAMPLE_COUNTS:
            words = pack(np.ones((n, 3), dtype=np.uint8)).words
            assert (words[:, :-1] == np.iinfo(np.uint64).max).all()
            assert (words[:, -1] == (1 << (n % 64 or 64)) - 1).all(), n

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            pack(np.array([[0, 2]]))

    @pytest.mark.parametrize("bad", [256, 0.5, 1.9, -1, np.nan, np.inf])
    def test_rejects_values_other_than_exact_0_or_1(self, bad):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            pack(np.array([[0, bad]]))

    def test_accepts_exact_0_1_of_any_dtype(self):
        x = np.random.default_rng(11).integers(0, 2, size=(70, 5), dtype=np.uint8)
        want = pack(x).words
        for dtype in (bool, np.int64, np.float64):
            np.testing.assert_array_equal(pack(x.astype(dtype)).words, want)

    def test_rejects_empty_or_wrong_rank(self):
        for shape in [(0, 4), (5, 0), (4,)]:
            with pytest.raises(ValueError, match="non-empty 2-d sample matrix"):
                pack(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 1000])
    @pytest.mark.parametrize("f", [1, 7, 8, 9, 63, 64, 65, 784])
    def test_matches_oracle_pack(self, n, f):
        gen = np.random.default_rng([n, f])
        x = gen.integers(0, 2, size=(n, 2 * f), dtype=np.uint8)
        want = oracle_pack(x[:, :f])
        for dtype in (np.uint8, bool, np.int64, np.float64):
            np.testing.assert_array_equal(pack(x[:, :f].astype(dtype)).words, want)
        np.testing.assert_array_equal(pack(np.asfortranarray(x[:, :f])).words, want)
        np.testing.assert_array_equal(pack(x[:, ::2]).words, oracle_pack(x[:, ::2]))

    def test_peak_memory_is_a_few_times_the_words(self):
        x = np.random.default_rng(3).integers(0, 2, size=(16384, 784), dtype=np.uint8)
        tracemalloc.start()
        try:
            words = pack(x).words
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * words.nbytes, f"peak {peak / words.nbytes:.1f}x the words"


class TestExecutePacked:
    def test_single_and_gate(self):
        batch = pack(np.array([[1, 1], [1, 0]], dtype=np.uint8))
        out = execute_packed(single_gate_circuit(1), batch)
        np.testing.assert_array_equal(unpack(out), [[1], [0]])

    def test_constant_true_circuit_masks_padding(self):
        circ = single_gate_circuit(15)
        for n in SAMPLE_COUNTS:
            out = execute_packed(circ, pack(np.zeros((n, 2), dtype=np.uint8)))
            np.testing.assert_array_equal(unpack(out), np.ones((n, 1)))
            # padding bits beyond the n samples stay zero in the returned batch
            assert int(out.words[0, -1]) == (1 << (n % 64 or 64)) - 1, n

    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    @pytest.mark.parametrize("step", [1, 3])  # lanes per block of circuit_scores
    def test_matches_oracle_on_random_circuits(self, rng, monkeypatch, n, step):
        for _ in range(6):
            depth = int(rng.integers(1, 5))
            width = int(rng.integers(2, 40))
            k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
            circ = random_layered_circuit(rng, int(rng.integers(2, 30)), [width] * depth, k)
            x = (rng.uniform(size=(n, circ.input_width)) < 0.5).astype(np.uint8)
            got = unpack(execute_packed(circ, pack(x)))
            np.testing.assert_array_equal(got, oracle_circuit_outputs(circ, x))
            monkeypatch.setattr(packed, "BUDGET", 8 * scored_rows(circ) * step)
            counts = circuit_scores(circ, x)
            np.testing.assert_array_equal(counts, oracle_circuit_counts(circ, x))

    def test_all_sixteen_opcodes_exhaustive(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        for op in range(16):
            out = unpack(execute_packed(single_gate_circuit(op), pack(x)))[:, 0]
            want = [eval_hard(op, a, b) for a, b in x]
            np.testing.assert_array_equal(out, want)

    def test_padding_lane_count_does_not_change_results(self, rng):
        # the first n samples alone, and the same samples ahead of more lanes
        circ = random_layered_circuit(rng, 9, [12, 12], 3)
        x = (rng.uniform(size=(3 * 64 + 7, 9)) < 0.5).astype(np.uint8)
        whole = unpack(execute_packed(circ, pack(x)))
        for n in SAMPLE_COUNTS:
            alone = unpack(execute_packed(circ, pack(x[:n])))
            np.testing.assert_array_equal(alone, whole[:n])

    def test_batch_claiming_more_samples_than_lanes_rejected(self):
        # words of one lane cannot hold 100 samples: nothing reads past them
        circ = passthrough_circuit(12, 2)
        with pytest.raises(ValueError, match="100 samples need 2 lanes, words have 1"):
            execute_packed(circ, PackedBatch(np.zeros((12, 1), dtype=np.uint64), 100))
        with pytest.raises(ValueError, match="100 samples need 2 lanes, words have 1"):
            circuit_scores(circ, PackedBatch(np.zeros((12, 1), dtype=np.uint64), 100))

    def test_width_mismatch_rejected(self, rng):
        circ = random_layered_circuit(rng, 9, [12], 3)
        with pytest.raises(ValueError):
            execute_packed(circ, pack(np.zeros((4, 8), dtype=np.uint8)))

    def test_scoring_runs_on_one_thread(self, rng):
        circ = random_layered_circuit(rng, 16, [32, 32], 4)
        x = (rng.uniform(size=(70, 16)) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(circuit_scores(circ, x, threads=1), circuit_scores(circ, x))
        for threads in (0, 2):
            message = f"^scoring runs on one thread, got threads={threads}$"
            with pytest.raises(ValueError, match=message):
                circuit_scores(circ, x, threads=threads)


class TestGeneralNetlists:
    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    @pytest.mark.parametrize("step", [1, 3])  # lanes per block of circuit_scores
    def test_matches_oracle(self, rng, monkeypatch, n, step):
        for _ in range(6):
            k, group = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            width, gate_count = int(rng.integers(1, 20)), int(rng.integers(0, 200))
            circ = random_netlist(rng, width, gate_count, k, group)
            x = (rng.uniform(size=(n, circ.input_width)) < 0.5).astype(np.uint8)
            got = unpack(execute_packed(circ, pack(x)))
            np.testing.assert_array_equal(got, oracle_circuit_outputs(circ, x))
            monkeypatch.setattr(packed, "BUDGET", 8 * scored_rows(circ) * step)
            counts = circuit_scores(circ, x)
            np.testing.assert_array_equal(counts, oracle_circuit_counts(circ, x))

    def test_whole_batch_execute_and_blocked_scores_with_a_partial_last_lane(
        self, rng, monkeypatch
    ):
        # execute_packed runs all the lanes as one block; circuit_scores
        # splits them into four lane blocks
        circ = random_netlist(rng, 8, 3000, 4, 500)
        step = 40  # lanes per block
        monkeypatch.setattr(packed, "BUDGET", 8 * scored_rows(circ) * step)
        lanes = 3 * step + step // 3
        x = (rng.uniform(size=(64 * lanes - 5, 8)) < 0.5).astype(np.uint8)
        batch = pack(x)
        got = execute_packed(circ, batch)
        assert lanes % step and lanes // step >= 3
        for lo in range(0, batch.sample_count, 64 * 64):  # the oracle, 64 lanes at a time
            want = pack(oracle_circuit_outputs(circ, x[lo : lo + 64 * 64])).words
            np.testing.assert_array_equal(got.words[:, lo // 64 : lo // 64 + 64], want)
        want = popcount_scores(got, circ.readout)
        np.testing.assert_array_equal(circuit_scores(circ, batch), want)


class TestChunkedScores:
    """``circuit_scores`` packs, executes and counts one execution block at a time.

    ``BUDGET`` is lowered to 1 or 3 lanes per block, so 453 samples (8 lanes,
    the last one partial) run as 8 chunks of 1 lane, or as chunks of 2, 3 and
    3 lanes.
    """

    @pytest.mark.parametrize("lanes", [1, 2, 3, 7, 8, 64, 257])
    @pytest.mark.parametrize("step", [1, 3, 62])
    def test_lane_blocks_are_fewest_and_even(self, monkeypatch, lanes, step):
        monkeypatch.setattr(packed, "BUDGET", 8 * 100 * step)
        blocks = _lane_blocks(lanes, 100)
        assert len(blocks) == -(-lanes // step)
        assert blocks[0][0] == 0 and blocks[-1][1] == lanes
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) <= step and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 7 * 64 + 5])
    @pytest.mark.parametrize("step", [1, 3])  # lanes per block
    @pytest.mark.parametrize("adder", [False, True])
    def test_matches_whole_batch_readout_and_oracle(self, rng, monkeypatch, n, step, adder):
        circ = random_layered_circuit(rng, 12, [20, 20], 4)
        scored = build_adder_aggregation(circ) if adder else circ
        monkeypatch.setattr(packed, "BUDGET", 8 * scored_rows(circ) * step)
        x = (rng.uniform(size=(n, circ.input_width)) < 0.5).astype(np.uint8)
        whole = popcount_scores(execute_packed(circ, pack(x)), circ.readout)
        np.testing.assert_array_equal(whole, oracle_circuit_counts(circ, x))
        for samples in (x, pack(x)):
            if adder:
                got = adder_counts(scored, samples)
            else:
                got = circuit_scores(scored, samples)
            np.testing.assert_array_equal(got, whole)

    def test_bad_input_raises_the_same_errors(self, rng, monkeypatch):
        circ = random_layered_circuit(rng, 6, [8], 2)
        monkeypatch.setattr(packed, "BUDGET", 8 * scored_rows(circ))  # 1 lane per block
        late = np.zeros((200, 6), dtype=np.uint8)
        late[-1, 0] = 2  # only the last chunk holds the bad value
        cases = [
            (np.zeros((3, 0), dtype=np.uint8), "need a non-empty 2-d sample matrix"),
            (np.zeros(6, dtype=np.uint8), "need a non-empty 2-d sample matrix"),
            (np.full((3, 6), 0.5), "samples must be Boolean (each value exactly 0 or 1)"),
            (late, "samples must be Boolean (each value exactly 0 or 1)"),
            (np.zeros((3, 5), dtype=np.uint8), "batch has 5 features, circuit wants 6"),
            (pack(np.zeros((3, 5), dtype=np.uint8)), "batch has 5 features, circuit wants 6"),
            (np.zeros((0, 5), dtype=np.uint8), "batch has 5 features, circuit wants 6"),
        ]
        for samples, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                circuit_scores(circ, samples)

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_rows_score_as_an_empty_batch(self, rng, k):
        circ = random_layered_circuit(rng, 6, [6], k)
        for dtype in (np.uint8, bool, np.float64):
            got = circuit_scores(circ, np.zeros((0, 6), dtype=dtype))
            assert got.shape == (0, k) and got.dtype == np.int64


class TestPlaneRows:
    def test_layered_plane_holds_inputs_and_two_bands(self, rng):
        for _ in range(10):
            widths = [int(w) for w in rng.integers(2, 60, int(rng.integers(1, 7)))]
            circ = random_layered_circuit(rng, int(rng.integers(2, 40)), widths, 1)
            assert _plan_for(circ).rows <= circ.input_width + 2 * max(widths)

    def test_growing_bands_take_the_two_stack_placement(self, rng):
        # one stack needs 3 + 35 + 26 + 44 = 108 rows: the 44 find only 38 free rows;
        # two stacks put the 44 over the freed inputs and first band, the 26 above
        circ = random_layered_circuit(rng, 3, [35, 26, 44, 6], 2)
        assert _plan_for(circ).rows == 44 + 26
        x = (rng.uniform(size=(131, 3)) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(
            unpack(execute_packed(circ, pack(x))), oracle_circuit_outputs(circ, x)
        )
        np.testing.assert_array_equal(circuit_scores(circ, x), oracle_circuit_counts(circ, x))

    def test_criterion_8_circuit_plane_rows(self):
        circ = random_layered_circuit(np.random.default_rng(48), 784, [8000] * 6, 10)
        assert _plan_for(circ).rows == 784 + 2 * 8000


class TestMnistPreset:
    def test_pruned_scores_equal_unpruned_within_peak(self):
        rng = np.random.default_rng(64000)
        dense = random_layered_circuit(rng, 784, [64000] * 6, 10)
        pruned = prune(dense)
        x = rng.integers(0, 2, size=(16384, 784), dtype=np.uint8)
        # the returned output words plus 64 MB for everything else
        bound = len(pruned.output_wires) * (16384 // 64) * 8 + (64 << 20)
        tracemalloc.start()
        try:
            scores = circuit_scores(pruned, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.0f} MB > bound {bound / 2**20:.0f} MB"
        np.testing.assert_array_equal(scores, circuit_scores(dense, x))


class TestPopcount:
    def test_stated_examples(self):
        out = pack(np.array([[1, 0, 1, 1]], dtype=np.uint8))
        counts = popcount_scores(PackedBatch(out.words, out.sample_count), ReadoutConfig(k=2))
        np.testing.assert_array_equal(counts, [[1, 2]])
        assert counts.argmax(axis=1)[0] == 1

    def test_all_zero_ties_break_low(self):
        counts = popcount_scores(pack(np.zeros((3, 4), dtype=np.uint8)), ReadoutConfig(k=2))
        np.testing.assert_array_equal(counts, 0)
        np.testing.assert_array_equal(counts.argmax(axis=1), 0)

    def test_counts_match_oracle_and_stay_in_range(self, rng):
        circ = random_layered_circuit(rng, 11, [24, 24], 4)
        x = (rng.uniform(size=(300, 11)) < 0.5).astype(np.uint8)
        counts = circuit_scores(circ, x)
        np.testing.assert_array_equal(counts, oracle_circuit_counts(circ, x))
        assert counts.min() >= 0 and counts.max() <= 24 // 4

    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    @pytest.mark.parametrize("group", [1, 2, 5, 7, 8, 15, 16])
    def test_carry_save_matches_oracle(self, rng, n, group):
        # 2**m - 1 fills m count bits; 2**m needs one bit more
        k = 3
        x = (rng.uniform(size=(n, group * k)) < 0.5).astype(np.uint8)
        x[-1], x[-1, :group] = 0, 1  # one full class, the others empty
        x[0] = 1  # every class full
        circ = passthrough_circuit(group * k, k)
        counts = circuit_scores(circ, x)
        np.testing.assert_array_equal(counts, oracle_circuit_counts(circ, x))
        np.testing.assert_array_equal(counts[0], group)
        np.testing.assert_array_equal(counts[-1], [group, 0, 0] if n > 1 else group)
        circ = random_layered_circuit(rng, group * k, [group * k] * 2, k)
        np.testing.assert_array_equal(circuit_scores(circ, x), oracle_circuit_counts(circ, x))

    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    def test_constant_true_padding_never_counts(self, n):
        circ = passthrough_circuit(12, 3, op=15)
        x = np.zeros((n, 12), dtype=np.uint8)
        counts = circuit_scores(circ, x)
        np.testing.assert_array_equal(counts, oracle_circuit_counts(circ, x))
        np.testing.assert_array_equal(counts, 4)
        # the readout alone drops set padding bits too
        lanes = -(-n // 64)
        ones = PackedBatch(np.full((12, lanes), np.iinfo(np.uint64).max, np.uint64), n)
        np.testing.assert_array_equal(popcount_scores(ones, ReadoutConfig(k=3)), np.full((n, 3), 4))

    def test_one_tree_over_lanes_matches_unpacked_sum(self, rng):
        # 64 planes of 14 lanes, the last one partial, counted in one tree
        lanes = 14
        words = rng.integers(0, 2**64, size=(64, lanes), dtype=np.uint64)
        batch = PackedBatch(words, lanes * 64 - 17)
        want = unpack(batch).reshape(batch.sample_count, 4, 16).sum(axis=2)
        np.testing.assert_array_equal(popcount_scores(batch, ReadoutConfig(k=4)), want)

    @pytest.mark.parametrize("group", [16, 48, 69])
    def test_one_tree_over_lanes_matches_per_plane_sum(self, rng, group):
        # 11 lanes, the last one partial, counted in one tree per group;
        # groups of 16, 48 and 69 planes leave an odd number over at no, one
        # and most levels of the tree
        k, lanes = 2, 11
        words = rng.integers(0, 2**64, size=(k * group, lanes), dtype=np.uint64)
        batch = PackedBatch(words, lanes * 64 - 17)
        want = np.zeros((k, batch.sample_count), dtype=np.int64)
        for row, plane in enumerate(words):
            want[row // group] += np.unpackbits(plane.view(np.uint8), bitorder="little")[
                : batch.sample_count
            ]
        np.testing.assert_array_equal(popcount_scores(batch, ReadoutConfig(k=k)), want.T)

    @pytest.mark.parametrize("bits", [1, 8, 9, 16])
    @pytest.mark.parametrize("n", [1, 64, 65, 200])
    def test_decode_counts_per_plane(self, rng, bits, n):
        k, lanes = 3, -(-n // 64)
        planes = rng.integers(0, 2**64, size=(bits, k, lanes), dtype=np.uint64)
        want = np.zeros((n, k), dtype=np.int64)
        for t, plane in enumerate(planes):
            sample_bits = np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little")
            want += sample_bits[:, :n].T.astype(np.int64) << t
        np.testing.assert_array_equal(_decode_counts(planes, n), want)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            popcount_scores(pack(np.zeros((2, 5), dtype=np.uint8)), ReadoutConfig(k=2))


class TestAdderAggregation:
    def test_half_adder_increment_semantics(self):
        # feeding three known bits through one group: counts 0..3 in binary
        circ = Circuit(
            input_width=3,
            layer_sizes=(3,),
            sources=np.array([[0, 1], [1, 2], [2, 0]], dtype=np.uint32),
            opcodes=np.array([3, 3, 3], dtype=np.uint8),  # pass-through of inputs 0, 1, 2
            output_wires=np.array([3, 4, 5], dtype=np.uint32),
            readout=ReadoutConfig(k=1),
        )
        agg = build_adder_aggregation(circ)
        assert len(agg.output_wires) == 2
        x = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=np.uint8)
        scores = adder_counts(agg, x)
        np.testing.assert_array_equal(scores[:, 0], [3, 2, 1, 0])

    def test_counter_uses_only_xor_and_and(self, rng):
        circ = random_layered_circuit(rng, 8, [16, 16], 2)
        agg = build_adder_aggregation(circ)
        new = agg.opcodes[counter_gates(circ, agg)]
        assert set(np.unique(new)) <= {1, 6}

    def test_counter_width(self, rng):
        for width, k in [(16, 2), (24, 4), (10, 10), (7, 7)]:
            circ = random_layered_circuit(rng, 8, [width, width], k)
            agg = build_adder_aggregation(circ)
            g = width // k
            want = int(np.ceil(np.log2(g + 1)))
            assert agg.group_size == want

    def test_matches_popcount_on_random_circuits(self, rng):
        for _ in range(8):
            width = int(rng.integers(2, 40))
            k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
            circ = random_layered_circuit(
                rng, int(rng.integers(2, 20)), [width] * int(rng.integers(1, 4)), k
            )
            agg = build_adder_aggregation(circ)
            x = (rng.uniform(size=(200, circ.input_width)) < 0.5).astype(np.uint8)
            np.testing.assert_array_equal(adder_counts(agg, x), circuit_scores(circ, x))

    def test_gate_count_growth_bound(self, rng):
        # a loose bound, about 2 * n * log2(n/k) for k groups of n/k bits; the
        # column compressor costs at most 5 * n (test_counter_size_and_depth)
        circ = random_layered_circuit(rng, 32, [512, 512], 8)
        agg = build_adder_aggregation(circ)
        g = 512 // 8
        bound = int(2 * 512 * (np.log2(g) + 1))
        assert len(agg.opcodes[counter_gates(circ, agg)]) <= bound

    @pytest.mark.parametrize("group", [7, 8, 63, 64, 800])
    def test_counter_size_and_depth(self, group):
        # the column compressor: a full adder is 5 gates and leaves one plane
        # fewer, so at most 5 gates per counted bit of the widest class, plus
        # one per set bit of a class's constant-true outputs, within the depth
        # bound; constant outputs are added, not counted
        k = 2
        plain = passthrough_circuit(group * k, k)
        ops = plain.opcodes.copy()
        ops[::3] = 15  # every third output true, every fifth false,
        ops[1::5] = 0  # and in class 1 every seventh false too
        ops[group + 2 :: 7] = 0
        folded = replace(plain, opcodes=ops)
        x = np.random.default_rng(group).integers(0, 2, size=(65, group * k), dtype=np.uint8)
        for circ in (plain, folded):
            agg = build_adder_aggregation(circ)
            added = agg.opcodes[counter_gates(circ, agg)]
            ops = circ.opcodes.reshape(k, group)
            widest = np.count_nonzero((ops != 0) & (ops != 15), axis=1).max()
            ones = np.count_nonzero(ops == 15, axis=1)
            assert len(added) <= 5 * k * widest + sum(bin(n).count("1") for n in ones)
            levels = agg.levels()[counter_gates(circ, agg)]
            depth = levels.max() - levels.min() + 1
            assert depth <= int(np.ceil(np.log2(group + 1))) ** 2
            assert set(np.unique(added)) <= {1, 6}
            want = oracle_circuit_counts(circ, x)
            np.testing.assert_array_equal(adder_counts(agg, x), want)
            np.testing.assert_array_equal(circuit_scores(circ, x), want)

    @pytest.mark.parametrize("group", [7, 63])
    def test_all_ones_fill_the_top_column(self, group):
        # 2**m - 1 set bits set every count bit, the top column's included
        k, n = 3, 65
        circ = passthrough_circuit(group * k, k)
        ones = np.ones((n, group * k), dtype=np.uint8)
        want = np.full((n, k), group)
        np.testing.assert_array_equal(popcount_scores(pack(ones), circ.readout), want)
        np.testing.assert_array_equal(adder_counts(build_adder_aggregation(circ), ones), want)


class TestConstantFold:
    """Outputs of opcode-0 and opcode-15 gates are added per class, not counted."""

    @pytest.mark.parametrize("n", [1, 63, 65, 453])
    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_scores_match_oracle(self, case, n):
        circ = fold_circuit(FOLD_CASES[case])
        x = np.random.default_rng(n).integers(0, 2, size=(n, circ.input_width), dtype=np.uint8)
        want = oracle_circuit_counts(circ, x)
        adder = build_adder_aggregation(circ)
        assert set(np.unique(adder.opcodes[counter_gates(circ, adder)])) <= {1, 6}
        group = len(FOLD_CASES[case][0])
        assert adder.group_size == group.bit_length()
        for scores in (circuit_scores(circ, x), circuit_scores(circ, pack(x)),
                       adder_counts(adder, x)):
            np.testing.assert_array_equal(scores, want)

    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_execute_packed_still_returns_every_output(self, case):
        circ = fold_circuit(FOLD_CASES[case])
        x = np.random.default_rng(3).integers(0, 2, size=(70, circ.input_width), dtype=np.uint8)
        got = unpack(execute_packed(circ, pack(x)))
        np.testing.assert_array_equal(got, oracle_circuit_outputs(circ, x))

    @pytest.mark.parametrize(
        "case, counted, offset, pad",
        [
            ("mixed", [2, 2, 4], [1, 1, 0], 0),  # pads are the constant-false wire
            ("no_false_anywhere", [1, 3, 1], [0, 0, 0], 15),  # constant-true pads come off
            ("all_constant", [0, 0, 0], [1, 2, 0], None),
            ("input_outputs", [2, 2], [0, 1], 0),
        ],
    )
    def test_counted_wires_and_offsets(self, case, counted, offset, pad):
        circ = fold_circuit(FOLD_CASES[case])
        fold = _counted(circ)
        assert _counted(circ) is fold  # cached on the circuit
        np.testing.assert_array_equal(fold.counted, counted)
        np.testing.assert_array_equal(fold.offset, offset)
        wires = fold.circuit.output_wires.astype(np.int64).reshape(circ.readout.k, -1)
        assert wires.shape[1] == max(counted)
        # the wires are the pruned base's, so its opcodes name their gates
        ops = np.append(np.full(circ.input_width, 3), fold.base.opcodes)[wires]
        for row, kept, kinds in zip(ops, counted, FOLD_CASES[case]):
            assert not np.isin(row[:kept], (0, 15)).any()
            assert np.all(row[kept:] == pad)
            assert kept == sum(kind in "xi" for kind in kinds)

    def test_nothing_folds_without_constant_outputs(self):
        circ = fold_circuit(FOLD_CASES["no_constants"])
        adder = build_adder_aggregation(circ)
        for c in (circ, adder):
            fold = _counted(c)
            assert fold.circuit is fold.base
            assert structurally_equal(fold.base, prune(c))
            np.testing.assert_array_equal(fold.offset, 0)

    def test_scoring_gathers_only_counted_outputs(self, monkeypatch):
        # circuit_scores calls execute_packed through the module, on the fold's circuit
        circ = fold_circuit(FOLD_CASES["all_true"])
        widths = []

        def spy(circuit, batch):
            out = execute_packed(circuit, batch)
            widths.append(out.feature_count)
            return out

        monkeypatch.setattr(packed, "execute_packed", spy)
        x = np.random.default_rng(4).integers(0, 2, size=(100, circ.input_width), dtype=np.uint8)
        np.testing.assert_array_equal(circuit_scores(circ, x), oracle_circuit_counts(circ, x))
        assert widths == [3 * 2]  # 3 classes of the widest class's 2 counted wires, not 3

    def test_pruned_circuit_counts_fewer_outputs(self, rng):
        # prune resolves constant outputs to shared constant gates
        base = random_layered_circuit(rng, 12, [64, 64, 40], k=4)
        pruned = prune(base)
        fold = _counted(pruned)
        assert fold.counted.sum() < len(pruned.output_wires)
        x = rng.integers(0, 2, size=(453, 12), dtype=np.uint8)
        want = oracle_circuit_counts(base, x)
        np.testing.assert_array_equal(circuit_scores(pruned, x), want)
        np.testing.assert_array_equal(adder_counts(build_adder_aggregation(pruned), x), want)


def dead_passthrough_constant_circuit() -> Circuit:
    """Two bands over 4 inputs with a dead gate, pass-throughs, negations and constants.

    Outputs, two classes of three: AND(i0, i1), OR(i2 copied, AND), true;
    NOT(NOT i0) through a copy, XOR(true, AND) (a NOT of the AND), false.
    """
    table = [  # (opcode, source, source); gate g is wire 4 + g
        (1, 0, 1),  # 4: i0 & i1
        (3, 2, 0),  # 5: a copy of i2
        (15, 0, 1),  # 6: true
        (6, 1, 3),  # 7: dead
        (12, 0, 3),  # 8: ~i0
        (7, 4, 5),  # 9: (i0 & i1) | i2
        (3, 8, 4),  # 10: a copy of ~i0
        (6, 6, 4),  # 11: true ^ (i0 & i1)
        (0, 9, 10),  # 12: false
        (12, 10, 9),  # 13: ~~i0
    ]
    t = np.array(table)
    return Circuit(
        input_width=4,
        layer_sizes=(5, 5),
        sources=t[:, 1:],
        opcodes=t[:, 0],
        output_wires=np.array([4, 9, 6, 13, 11, 12]),
        readout=ReadoutConfig(k=2),
    )


def scoring_cases() -> dict:
    """Circuits to score through their pruned form: random, general and constant-output ones."""
    rng = np.random.default_rng(18)
    cases = {f"fold_{name}": fold_circuit(classes) for name, classes in FOLD_CASES.items()}
    for i in range(4):
        k = int(rng.choice([1, 2, 3, 4]))
        cases[f"layered{i}"] = random_layered_circuit(rng, 10, [24, 24, 12], k)
        cases[f"netlist{i}"] = random_netlist(rng, 9, 150, int(rng.integers(1, 4)), 5)
    cases["dead_passthrough_constant"] = dead_passthrough_constant_circuit()
    return cases


SCORING_CASES = scoring_cases()


class TestPrunedScoring:
    """Scoring and emission run a circuit's ``prune`` form, so a circuit and that form agree."""

    @pytest.mark.parametrize("case", sorted(SCORING_CASES))
    def test_circuit_and_its_pruned_form_fold_alike(self, case):
        circ = SCORING_CASES[case]
        fold, pruned_fold = _counted(circ), _counted(prune(circ))
        np.testing.assert_array_equal(fold.counted, pruned_fold.counted)
        np.testing.assert_array_equal(fold.offset, pruned_fold.offset)
        assert structurally_equal(fold.circuit, pruned_fold.circuit)
        assert structurally_equal(fold.base, prune(circ))
        assert emit_source(circ) == emit_source(prune(circ))

    def test_scoring_runs_the_pruned_gates(self, monkeypatch):
        # circuit_scores calls execute_packed through the module
        circ = dead_passthrough_constant_circuit()
        ran = []

        def spy(circuit, batch):
            ran.append(circuit.num_gates)
            return execute_packed(circuit, batch)

        monkeypatch.setattr(packed, "execute_packed", spy)
        x = np.random.default_rng(6).integers(0, 2, size=(100, 4), dtype=np.uint8)
        np.testing.assert_array_equal(circuit_scores(circ, x), oracle_circuit_counts(circ, x))
        # AND, OR, the shared true and false and the NOT of the AND; not the 10 given
        assert ran == [prune(circ).num_gates] == [5]

    def test_execute_packed_runs_the_circuit_as_given(self):
        circ = dead_passthrough_constant_circuit()
        x = np.random.default_rng(7).integers(0, 2, size=(70, 4), dtype=np.uint8)
        got = unpack(execute_packed(circ, pack(x)))
        np.testing.assert_array_equal(got, oracle_circuit_outputs(circ, x))
        assert _plan_for(circ).group_op.tolist().count(3) == 2  # its two copies ran

    def test_a_scored_circuit_cannot_be_edited_in_place(self, rng):
        # scoring caches a plan and a pruned form on the circuit, which an
        # edit in place would leave stale
        circ = random_layered_circuit(rng, 8, [16, 16], 2)
        x = rng.integers(0, 2, size=(20, 8), dtype=np.uint8)
        want = circuit_scores(circ, x)
        for name in ("opcodes", "sources", "output_wires", "max_probs"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(circ, name)[:] = 15 if name == "opcodes" else 0
        np.testing.assert_array_equal(circuit_scores(circ, x), want)
        edited = replace(circ, opcodes=np.full(circ.num_gates, 15))
        np.testing.assert_array_equal(circuit_scores(edited, x), np.full((20, 2), 8))

    def test_a_scored_circuit_cannot_be_assigned_new_arrays(self, rng):
        # the cached plan and pruned form belong to the arrays the circuit was
        # built with, so a new array comes in only through replace
        circ = random_layered_circuit(rng, 8, [16, 16], 2)
        x = rng.integers(0, 2, size=(20, 8), dtype=np.uint8)
        want = circuit_scores(circ, x)
        ones = np.full(circ.num_gates, 15, dtype=np.uint8)
        for name, value in (("opcodes", ones), ("max_probs", None), ("input_width", 9)):
            with pytest.raises(FrozenInstanceError):
                setattr(circ, name, value)
        np.testing.assert_array_equal(circuit_scores(circ, x), want)
        ops = rng.integers(0, 16, size=circ.num_gates, dtype=np.uint8)
        edited = replace(circ, opcodes=ops)
        np.testing.assert_array_equal(circuit_scores(edited, x), oracle_circuit_counts(edited, x))
        with pytest.raises(ValueError, match="opcodes"):
            replace(circ, opcodes=np.full(circ.num_gates, 16, dtype=np.uint8))

    def test_a_circuit_keeps_its_own_arrays(self):
        ops = np.full(4, 3, dtype=np.uint8)
        circ = replace(passthrough_circuit(4, 2), opcodes=ops)
        ops[:] = 0
        assert circ.opcodes.tolist() == [3, 3, 3, 3]


class TestBenchmark:
    def test_report_shape(self, rng):
        circ = random_layered_circuit(rng, 16, [64, 64], 4)
        batch = pack((rng.uniform(size=(2000, 16)) < 0.5).astype(np.uint8))
        rep = benchmark(circ, batch, repetitions=3)
        gates = prune(circ).num_gates  # the gates that run, not the file's
        assert rep["gates"] == gates < circ.num_gates
        assert rep["samples_per_sec"] > 0
        assert rep["gate_ops_per_sec"] == pytest.approx(rep["samples_per_sec"] * gates)
        for stage in ("pack_ms", "execute_ms", "readout_ms"):
            assert rep[stage] > 0, stage
        assert isinstance(rep["cpu"], str) and rep["cpu"]
