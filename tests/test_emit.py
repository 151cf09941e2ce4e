"""Emitted C against the packed interpreter and the truth-table oracle."""

import shutil

import numpy as np
import pytest

from conftest import SAMPLE_COUNTS, oracle_circuit_counts, random_layered_circuit
from gatenet.emit import compile_and_load, emit_source
from gatenet.model import Circuit, ReadoutConfig
from gatenet.opt import prune
from gatenet.packed import build_adder_aggregation, circuit_scores

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on PATH",
)


def xor_circuit() -> Circuit:
    return Circuit(
        input_width=2,
        layer_sizes=(1,),
        sources=np.array([[0, 1]], dtype=np.uint32),
        opcodes=np.array([6], dtype=np.uint8),
        output_wires=np.array([2], dtype=np.uint32),
        readout=ReadoutConfig(k=1),
    )


class TestEmitText:
    def test_single_xor_statement(self):
        text = emit_source(xor_circuit())
        assert "w[2] = w[0] ^ w[1];" in text
        assert text.count("w[2] =") == 1
        assert "#define GN_WORD_BITS 64" in text and "const uint64_t *in" in text

    def test_byte_identical_across_runs(self, rng):
        c = random_layered_circuit(rng, 8, [12, 8], k=2)
        first = emit_source(c)
        circuit_scores(c, rng.integers(0, 2, size=(5, 8), dtype=np.uint8))
        assert emit_source(c) == first

    def test_const_gate_expressions(self):
        c = Circuit(
            input_width=2,
            layer_sizes=(2,),
            sources=np.array([[0, 1], [0, 1]], dtype=np.uint32),
            opcodes=np.array([0, 15], dtype=np.uint8),
            output_wires=np.array([2, 3], dtype=np.uint32),
            readout=ReadoutConfig(k=2),
        )
        text = emit_source(c)
        assert "w[2] = 0;" in text
        assert "w[3] = ~(uint64_t)0;" in text


@needs_cc
class TestCompiled:
    @pytest.mark.parametrize("n", [*SAMPLE_COUNTS, 500])
    def test_matches_interpreter(self, rng, n):
        c = random_layered_circuit(rng, 12, [16, 8], k=2)
        handle = compile_and_load(c)
        x = rng.integers(0, 2, size=(n, 12), dtype=np.uint8)
        np.testing.assert_array_equal(handle.scores(x), circuit_scores(c, x))

    def test_matches_oracle_exhaustively(self, rng):
        c = random_layered_circuit(rng, 10, [8, 4], k=2)
        handle = compile_and_load(c)
        idx = np.arange(1 << 10, dtype=np.uint32)
        x = ((idx[:, None] >> np.arange(10, dtype=np.uint32)) & 1).astype(np.uint8)
        np.testing.assert_array_equal(handle.scores(x), oracle_circuit_counts(c, x))

    def test_counter_readout(self, rng):
        base = random_layered_circuit(rng, 9, [12, 12], k=3)
        adder = build_adder_aggregation(base)
        handle = compile_and_load(adder)
        x = rng.integers(0, 2, size=(321, 9), dtype=np.uint8)
        np.testing.assert_array_equal(handle.scores(x), oracle_circuit_counts(base, x))

    def test_pruned_circuit_with_materialized_gates(self, rng):
        c = random_layered_circuit(rng, 8, [10, 6], k=2)
        p = prune(c)
        handle = compile_and_load(p)
        x = rng.integers(0, 2, size=(200, 8), dtype=np.uint8)
        np.testing.assert_array_equal(handle.scores(x), oracle_circuit_counts(c, x))

    def test_passthrough_outputs(self):
        c = Circuit(
            input_width=3,
            layer_sizes=(),
            sources=np.zeros((0, 2), dtype=np.uint32),
            opcodes=np.zeros(0, dtype=np.uint8),
            output_wires=np.array([1, 2], dtype=np.uint32),
            readout=ReadoutConfig(k=2),
        )
        handle = compile_and_load(c)
        x = np.array([[0, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(handle.scores(x), x[:, [1, 2]].astype(np.int64))

    def test_batch_validation(self, rng):
        c = random_layered_circuit(rng, 6, [8, 4], k=2)
        handle = compile_and_load(c)
        with pytest.raises(ValueError, match="features"):
            handle.scores(np.zeros((4, 5), dtype=np.uint8))

    def test_source_written_to_keep_dir(self, rng, tmp_path):
        c = random_layered_circuit(rng, 6, [8, 4], k=2)
        handle = compile_and_load(c, keep_dir=str(tmp_path))
        assert (tmp_path / "circuit_eval.c").exists()
        assert handle.library_path.endswith(".so")
