"""Bit-packed circuit execution against the truth-table interpreter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SAMPLE_COUNTS,
    oracle_circuit_counts,
    oracle_circuit_outputs,
    random_layered_circuit,
)
from gatenet import gates
from gatenet.model import Circuit, ReadoutConfig
from gatenet.packed import (
    PackedBatch,
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

    def test_padding_bits_are_zero(self):
        for n in SAMPLE_COUNTS:
            words = pack(np.ones((n, 3), dtype=np.uint8)).words
            assert (words[:, :-1] == np.iinfo(np.uint64).max).all()
            assert (words[:, -1] == (1 << (n % 64 or 64)) - 1).all(), n

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            pack(np.array([[0, 2]]))

    def test_rejects_empty_or_wrong_rank(self):
        with pytest.raises(ValueError):
            pack(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            pack(np.zeros(4, dtype=np.uint8))


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
    @pytest.mark.parametrize("threads", [1, 3])
    def test_matches_oracle_on_random_circuits(self, rng, n, threads):
        for _ in range(6):
            depth = int(rng.integers(1, 5))
            width = int(rng.integers(2, 40))
            k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
            circ = random_layered_circuit(rng, int(rng.integers(2, 30)), [width] * depth, k)
            x = (rng.uniform(size=(n, circ.input_width)) < 0.5).astype(np.uint8)
            got = unpack(execute_packed(circ, pack(x), threads=threads))
            np.testing.assert_array_equal(got, oracle_circuit_outputs(circ, x))

    def test_all_sixteen_opcodes_exhaustive(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        for op in range(16):
            out = unpack(execute_packed(single_gate_circuit(op), pack(x)))[:, 0]
            want = [gates.eval_hard(op, a, b) for a, b in x]
            np.testing.assert_array_equal(out, want)

    def test_padding_lane_count_does_not_change_results(self, rng):
        # the first n samples alone, and the same samples ahead of more lanes
        circ = random_layered_circuit(rng, 9, [12, 12], 3)
        x = (rng.uniform(size=(3 * 64 + 7, 9)) < 0.5).astype(np.uint8)
        whole = unpack(execute_packed(circ, pack(x)))
        for n in SAMPLE_COUNTS:
            alone = unpack(execute_packed(circ, pack(x[:n])))
            np.testing.assert_array_equal(alone, whole[:n])

    def test_width_mismatch_rejected(self, rng):
        circ = random_layered_circuit(rng, 9, [12], 3)
        with pytest.raises(ValueError):
            execute_packed(circ, pack(np.zeros((4, 8), dtype=np.uint8)))

    def test_thread_counts_agree(self, rng):
        circ = random_layered_circuit(rng, 16, [32, 32], 4)
        x = (rng.uniform(size=(500, 16)) < 0.5).astype(np.uint8)
        batch = pack(x)
        a = execute_packed(circ, batch, threads=1)
        b = execute_packed(circ, batch, threads=4)
        np.testing.assert_array_equal(a.words, b.words)


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

    def test_lane_blocks_match_unpacked_sum(self, rng):
        # 64 planes of 8200 lanes span more than one lane block of the readout
        words = rng.integers(0, 2**64, size=(64, 8200), dtype=np.uint64)
        batch = PackedBatch(words, 8200 * 64 - 17)
        want = unpack(batch).reshape(batch.sample_count, 4, 16).sum(axis=2)
        np.testing.assert_array_equal(popcount_scores(batch, ReadoutConfig(k=4)), want)

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
        assert agg.counter_bits is not None and len(agg.counter_bits[0]) == 2
        x = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=np.uint8)
        scores = circuit_scores(agg, x)
        np.testing.assert_array_equal(scores[:, 0], [3, 2, 1, 0])

    def test_counter_uses_only_xor_and_and(self, rng):
        circ = random_layered_circuit(rng, 8, [16, 16], 2)
        agg = build_adder_aggregation(circ)
        new = agg.opcodes[circ.num_gates :]
        assert set(np.unique(new)) <= {1, 6}

    def test_counter_width(self, rng):
        for width, k in [(16, 2), (24, 4), (10, 10), (7, 7)]:
            circ = random_layered_circuit(rng, 8, [width, width], k)
            agg = build_adder_aggregation(circ)
            g = width // k
            want = int(np.ceil(np.log2(g + 1)))
            assert all(len(c) == want for c in agg.counter_bits)

    def test_matches_popcount_on_random_circuits(self, rng):
        for _ in range(8):
            width = int(rng.integers(2, 40))
            k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
            circ = random_layered_circuit(
                rng, int(rng.integers(2, 20)), [width] * int(rng.integers(1, 4)), k
            )
            agg = build_adder_aggregation(circ)
            x = (rng.uniform(size=(200, circ.input_width)) < 0.5).astype(np.uint8)
            np.testing.assert_array_equal(circuit_scores(agg, x), circuit_scores(circ, x))

    def test_idempotent(self, rng):
        circ = random_layered_circuit(rng, 8, [8], 2)
        agg = build_adder_aggregation(circ)
        assert build_adder_aggregation(agg) is agg

    def test_gate_count_growth_bound(self, rng):
        # ~2 * G * log2(G) per group, so k groups cost about 2 * n * log2(n/k)
        circ = random_layered_circuit(rng, 32, [512, 512], 8)
        agg = build_adder_aggregation(circ)
        g = 512 // 8
        bound = int(2 * 512 * (np.log2(g) + 1))
        assert agg.num_gates - circ.num_gates <= bound


class TestBenchmark:
    def test_report_shape(self, rng):
        circ = random_layered_circuit(rng, 16, [64, 64], 4)
        batch = pack((rng.uniform(size=(2000, 16)) < 0.5).astype(np.uint8))
        rep = benchmark(circ, batch, repetitions=3, threads_list=(1, 2))
        assert rep["gates"] == circ.num_gates
        assert set(rep["per_thread"]) == {1, 2}
        one = rep["per_thread"][1]
        assert one["samples_per_sec"] > 0
        assert one["gate_ops_per_sec"] == pytest.approx(
            one["samples_per_sec"] * circ.num_gates
        )
        assert isinstance(rep["cpu"], str) and rep["cpu"]
