"""Emitted C against the packed interpreter and the truth-table oracle."""

import dataclasses
import os
import re
import shlex
import shutil
import subprocess

import numpy as np
import pytest

from conftest import (
    FOLD_CASES,
    SAMPLE_COUNTS,
    adder_counts,
    fold_circuit,
    oracle_circuit_counts,
    random_layered_circuit,
)
from gatenet import packed
from gatenet.emit import compile_and_load, emit_source
from gatenet.model import Circuit, ReadoutConfig
from gatenet.opt import prune
from gatenet.packed import PackedBatch, _plan_for, build_adder_aggregation, circuit_scores, pack

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


def const_circuit() -> Circuit:
    return Circuit(
        input_width=2,
        layer_sizes=(2,),
        sources=np.array([[0, 1], [0, 1]], dtype=np.uint32),
        opcodes=np.array([0, 15], dtype=np.uint8),
        output_wires=np.array([2, 3], dtype=np.uint32),
        readout=ReadoutConfig(k=2),
    )


SENTINEL = np.iinfo(np.int64).min


def kernel_scores(handle, x: np.ndarray) -> np.ndarray:
    """The kernel's scores of raw rows ``x``, checking it writes no row after them.

    The buffer holds 64 sentinel rows after the ``len(x)`` the kernel is
    given, a lane's worth, and those must come back untouched.
    """
    n = len(x)
    out = np.full((n + 64, handle.classes), SENTINEL, dtype=np.int64)
    words = pack(x).words if n else np.zeros((x.shape[1], 0), dtype=np.uint64)
    assert handle._fn(words, n, out) == 0
    np.testing.assert_array_equal(out[n:], SENTINEL)
    return out[:n]


TABLE = re.compile(r"static const \w+ (\w+)\[\d+\] = \{([^}]*)\};\n")


def tables(text: str) -> dict[str, list[int]]:
    return {name: [int(v) for v in values.split(",")] for name, values in TABLE.findall(text)}


class TestEmitText:
    def test_kernel_does_not_depend_on_circuit(self, rng):
        circuits = (xor_circuit(), random_layered_circuit(rng, 8, [12, 10, 8], k=2))
        kernel, other = (TABLE.sub("", emit_source(c)) for c in circuits)
        assert kernel == other
        assert "static const" not in kernel
        assert "int circuit_eval(const uint64_t *in, size_t samples, int64_t *scores) {" in kernel

    def test_byte_identical_across_runs(self, rng):
        c = random_layered_circuit(rng, 8, [12, 8], k=2)
        first = emit_source(c)
        circuit_scores(c, rng.integers(0, 2, size=(5, 8), dtype=np.uint8))
        assert emit_source(c) == first

    @needs_cc
    def test_opcode_table_and_scores(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        # constant outputs are offsets, not gates: the constant circuit runs no group
        for circuit, opcodes, expected in (
            (xor_circuit(), [6], [[0], [1], [1], [0]]),
            (const_circuit(), [], [[0, 1]] * 4),
        ):
            table = tables(emit_source(circuit))
            assert table["gn_group_op"][: table["gn_dims"][3]] == opcodes
            np.testing.assert_array_equal(compile_and_load(circuit).scores(x), expected)

    @needs_cc
    def test_compiles_as_strict_c99(self, rng, tmp_path):
        source = tmp_path / "circuit.c"
        source.write_text(emit_source(random_layered_circuit(rng, 40, [64, 64], k=2)))
        found = shutil.which("cc") or shutil.which("gcc")
        compiler = shlex.split(os.environ.get("CC", "")) or [found]
        flags = ["-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", "-c"]
        proc = subprocess.run(
            [*compiler, *flags, "-o", str(tmp_path / "circuit.o"), str(source)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


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
        handle = compile_and_load(base)
        x = rng.integers(0, 2, size=(321, 9), dtype=np.uint8)
        np.testing.assert_array_equal(handle.scores(x), adder_counts(base, x))
        np.testing.assert_array_equal(handle.scores(x), oracle_circuit_counts(base, x))

    def test_pruned_circuit_with_materialized_gates(self, rng):
        c = random_layered_circuit(rng, 8, [10, 6], k=2)
        p = prune(c)
        handle = compile_and_load(p)
        x = rng.integers(0, 2, size=(200, 8), dtype=np.uint8)
        np.testing.assert_array_equal(handle.scores(x), oracle_circuit_counts(c, x))

    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_constant_outputs_fold_into_offsets(self, case):
        # the kernel runs the adder, which adds constant outputs per class
        c = fold_circuit(FOLD_CASES[case])
        handle = compile_and_load(c)
        for n in (1, 63, 65, 453):
            x = np.random.default_rng(n).integers(0, 2, size=(n, c.input_width), dtype=np.uint8)
            np.testing.assert_array_equal(handle.scores(x), oracle_circuit_counts(c, x))

    def test_all_constant_circuit_returns_its_offsets(self):
        # no counter rows to read: every score is its class's offset
        c = fold_circuit(FOLD_CASES["all_constant"])
        table = tables(emit_source(c))
        assert table["gn_dims"][5] == 0 and table["gn_offset"] == [1, 2, 0]
        handle = compile_and_load(c)
        for n in (1, 65, 130):
            x = np.random.default_rng(n).integers(0, 2, size=(n, c.input_width), dtype=np.uint8)
            np.testing.assert_array_equal(handle.scores(x), np.tile([1, 2, 0], (n, 1)))

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

    def test_failed_allocation_raises_memory_error(self, rng):
        c = random_layered_circuit(rng, 6, [8, 4], k=2)
        handle = dataclasses.replace(compile_and_load(c), _fn=lambda *args: 1)
        x = rng.integers(0, 2, size=(200, 6), dtype=np.uint8)
        rows = handle.plane_rows
        with pytest.raises(MemoryError, match=rf"{rows} x 4-word plane \({rows * 32} bytes\)"):
            handle.scores(x)

    def test_uneven_lane_blocks(self, rng, monkeypatch):
        # 3 lanes per block: 8 lanes run as blocks of 2, 3 and 3, 10 lanes as
        # 2, 3, 2 and 3, and 11 lanes as 2, 3, 3 and 3
        c = random_layered_circuit(rng, 12, [16, 8], k=2)
        rows = _plan_for(build_adder_aggregation(c)).rows
        monkeypatch.setattr(packed, "BUDGET", 8 * rows * 3)
        handle = compile_and_load(c)
        assert tables(emit_source(c))["gn_dims"][2] == 3
        for n in (1, 65, 453, 640, 701):
            x = rng.integers(0, 2, size=(n, 12), dtype=np.uint8)
            np.testing.assert_array_equal(handle.scores(x), circuit_scores(c, x))
        for n in (0, 453):
            x = rng.integers(0, 2, size=(n, 12), dtype=np.uint8)
            np.testing.assert_array_equal(kernel_scores(handle, x), circuit_scores(c, x))

    def test_empty_packed_batch(self, rng):
        # zero raw rows score as (0, k) without packing
        c = random_layered_circuit(rng, 12, [16, 8], k=2)
        handle = compile_and_load(c)
        empty = np.zeros((0, 12), dtype=np.uint8)
        got = circuit_scores(c, empty)
        assert got.shape == (0, 2) and got.dtype == np.int64
        np.testing.assert_array_equal(got, handle.scores(empty))
        for score in (lambda rows: circuit_scores(c, rows), handle.scores):
            with pytest.raises(ValueError, match="non-empty 2-d sample matrix"):
                score(np.zeros(12, dtype=np.uint8))

    def test_a_packed_batch_is_rejected(self, rng):
        # both scorers take raw rows only: packing is part of scoring
        c = random_layered_circuit(rng, 12, [16, 8], k=2)
        handle = compile_and_load(c)
        x = rng.integers(0, 2, size=(70, 12), dtype=np.uint8)
        for batch in (pack(x), PackedBatch(np.zeros((12, 0), dtype=np.uint64), 0)):
            for score in (lambda b: circuit_scores(c, b), handle.scores):
                with pytest.raises(ValueError, match="^need a non-empty 2-d sample matrix$"):
                    score(batch)

    def test_batch_claiming_more_samples_than_lanes_rejected(self, rng):
        # the kernel gets one pack of the rows and their count, from which it
        # counts the pack's lanes, so it never reads past the words
        handle = compile_and_load(random_layered_circuit(rng, 12, [16, 8], k=2))
        calls = []

        def kernel(words, samples, out):
            calls.append((words.shape, samples, out.shape))
            return handle._fn(words, samples, out)

        spied = dataclasses.replace(handle, _fn=kernel)
        for n in (1, 64, 100):
            x = rng.integers(0, 2, size=(n, 12), dtype=np.uint8)
            np.testing.assert_array_equal(spied.scores(x), handle.scores(x))
            lanes = -(-n // 64)
            assert calls.pop() == ((12, lanes), n, (n, 2))

    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    def test_kernel_writes_exactly_samples_rows(self, rng, n):
        c = random_layered_circuit(rng, 12, [16, 8], k=2)
        x = rng.integers(0, 2, size=(n, 12), dtype=np.uint8)
        np.testing.assert_array_equal(kernel_scores(compile_and_load(c), x), circuit_scores(c, x))

    def test_cc_may_carry_flags(self, rng, monkeypatch):
        # $CC is split as a shell splits it, as in CC="ccache gcc"
        compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
        monkeypatch.setenv("CC", f"{compiler} -w")
        c = random_layered_circuit(rng, 12, [16, 8], k=2)
        x = rng.integers(0, 2, size=(70, 12), dtype=np.uint8)
        np.testing.assert_array_equal(compile_and_load(c).scores(x), circuit_scores(c, x))

    def test_empty_packed_batch_of_the_wrong_width(self, rng):
        # zero raw rows of the wrong width are rejected, though nothing runs
        c = random_layered_circuit(rng, 12, [16, 8], k=2)
        handle = compile_and_load(c)
        for score in (lambda rows: circuit_scores(c, rows), handle.scores):
            with pytest.raises(ValueError, match="batch has 5 features, circuit wants 12"):
                score(np.zeros((0, 5), dtype=np.uint8))

    def test_mnist_preset(self):
        rng = np.random.default_rng(64000)
        pruned = prune(random_layered_circuit(rng, 784, [64000] * 6, 10))
        handle = compile_and_load(pruned)
        x = rng.integers(0, 2, size=(1000, 784), dtype=np.uint8)
        np.testing.assert_array_equal(handle.scores(x), circuit_scores(pruned, x))
