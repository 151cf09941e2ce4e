"""Standalone C emission for Boolean circuits, plus a compile-and-load helper.

The emitted translation unit is plain C99 with no dependencies beyond
<stdint.h>/<stddef.h>. It evaluates the circuit word-parallel, one bitwise
statement per gate over 64-bit unsigned words, then folds the output wires
into per-sample class scores (popcount over each output group, or binary
decode of counter wires when the circuit carries an adder aggregation).
Emission is a pure function of the circuit, so the text is byte-identical
across runs; there are no timestamps or environment-dependent parts.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np
from numpy import ctypeslib as npct

from .model import Circuit
from .packed import PackedBatch, pack

# C expression per opcode, over the gate's two source words {a} and {b}.
# {one} is the all-ones word; ~ binds tighter than the binary operators, so
# only the outer negations need parentheses.
_C_EXPRS = (
    "0",
    "{a} & {b}",
    "{a} & ~{b}",
    "{a}",
    "~{a} & {b}",
    "{b}",
    "{a} ^ {b}",
    "{a} | {b}",
    "~({a} | {b})",
    "~({a} ^ {b})",
    "~{b}",
    "{a} | ~{b}",
    "~{a}",
    "~{a} | {b}",
    "~({a} & {b})",
    "{one}",
)


def _const_table(name: str, values, ctype: str = "uint32_t") -> list[str]:
    """A static const array, 12 entries per line."""
    lines = [f"static const {ctype} {name}[{len(values)}] = {{"]
    vals = [str(int(v)) + "u" for v in values]
    for i in range(0, len(vals), 12):
        lines.append("    " + ", ".join(vals[i : i + 12]) + ",")
    lines.append("};")
    return lines


def emit_source(circuit: Circuit, symbol: str = "circuit_eval") -> str:
    """Render the circuit as a self-contained C function.

    The function signature is::

        void <symbol>(const uint64_t *in, size_t lanes,
                      int64_t *scores, size_t samples);

    ``in`` holds one plane of ``lanes`` 64-bit words per input wire,
    wire-major (word of wire i in lane L sits at ``in[i*lanes + L]``); bit b
    of lane L is sample 64*L+b, matching the packed batch layout. ``scores``
    receives samples x k signed counts, sample-major: popcounts of each
    output group, or decoded counter values for adder-aggregated circuits.
    Downstream scaling (count/tau + beta) is left to the caller.
    """
    wt = "uint64_t"
    w_in = circuit.input_width
    k = circuit.readout.k
    n_out = len(circuit.output_wires)
    one = f"~({wt})0"

    head = [
        "/* Word-parallel evaluator for a fixed Boolean circuit.",
        f" * {w_in} input wires, {circuit.num_gates} gates, {n_out} output wires,",
    ]
    if circuit.counter_bits is not None:
        head.append(f" * adder readout: {k} classes decoded from counter wires.")
    else:
        head.append(f" * popcount readout: {k} classes, {n_out // k} output wires each.")
    head += [
        " *",
        f" * in:     one plane of `lanes` {wt} words per input wire, wire-major;",
        " *         bit b of lane L is sample W*L+b (little-endian packing).",
        " * scores: samples x classes int64, sample-major, raw integer counts.",
        " */",
        "#include <stddef.h>",
        "#include <stdint.h>",
        "",
        f"#define GN_INPUTS {w_in}",
        f"#define GN_WIRES {circuit.num_wires}",
        f"#define GN_CLASSES {k}",
        "#define GN_WORD_BITS 64",
        "",
    ]

    body = [
        f"void {symbol}(const {wt} *in, size_t lanes, int64_t *scores, size_t samples) {{",
        f"    {wt} w[GN_WIRES];",
        "    for (size_t lane = 0; lane < lanes; ++lane) {",
        "        size_t base = lane * GN_WORD_BITS;",
        "        size_t valid = samples - base;",
        "        if (valid > GN_WORD_BITS) valid = GN_WORD_BITS;",
        "        for (size_t i = 0; i < GN_INPUTS; ++i) w[i] = in[i * lanes + lane];",
    ]
    src = circuit.sources
    ops = circuit.opcodes
    for g in range(circuit.num_gates):
        expr = _C_EXPRS[int(ops[g])].format(
            a=f"w[{int(src[g, 0])}]", b=f"w[{int(src[g, 1])}]", one=one
        )
        body.append(f"        w[{w_in + g}] = {expr};")
    body += [
        "        for (size_t s = 0; s < valid; ++s)",
        "            for (size_t c = 0; c < GN_CLASSES; ++c)",
        "                scores[(base + s) * GN_CLASSES + c] = 0;",
    ]

    tables: list[str] = []
    if circuit.counter_bits is not None:
        flat = np.concatenate(circuit.counter_bits)
        offsets = np.concatenate([[0], np.cumsum([len(cb) for cb in circuit.counter_bits])])
        tables += _const_table("gn_counter_wires", flat)
        tables += _const_table("gn_counter_offsets", offsets)
        body += [
            "        for (size_t c = 0; c < GN_CLASSES; ++c) {",
            "            size_t lo = gn_counter_offsets[c], hi = gn_counter_offsets[c + 1];",
            "            for (size_t t = lo; t < hi; ++t) {",
            f"                {wt} v = w[gn_counter_wires[t]];",
            "                for (size_t s = 0; s < valid; ++s)",
            "                    scores[(base + s) * GN_CLASSES + c] +=",
            "                        (int64_t)((v >> s) & 1u) << (t - lo);",
            "            }",
            "        }",
        ]
    else:
        tables += _const_table("gn_output_wires", circuit.output_wires)
        group = n_out // k
        body += [
            f"        for (size_t c = 0; c < GN_CLASSES; ++c) {{",
            f"            for (size_t j = 0; j < {group}; ++j) {{",
            f"                {wt} v = w[gn_output_wires[c * {group} + j]];",
            "                for (size_t s = 0; s < valid; ++s)",
            "                    scores[(base + s) * GN_CLASSES + c] += (int64_t)((v >> s) & 1u);",
            "            }",
            "        }",
        ]
    body += ["    }", "}", ""]
    return "\n".join(head + tables + [""] + body)


@dataclass
class CompiledCircuit:
    """A compiled evaluator bound through ctypes; mirrors circuit_scores."""

    input_width: int
    classes: int
    library_path: str
    _fn: object = field(repr=False)
    _keepalive: object = field(repr=False)

    def scores(self, samples) -> np.ndarray:
        """(samples, k) int64 class scores for raw 0/1 rows or a PackedBatch."""
        batch = samples if isinstance(samples, PackedBatch) else pack(samples)
        if batch.feature_count != self.input_width:
            raise ValueError(
                f"batch has {batch.feature_count} features, circuit wants {self.input_width}"
            )
        out = np.zeros((batch.sample_count, self.classes), dtype=np.int64)
        words = np.ascontiguousarray(batch.words)
        self._fn(words, batch.lanes, out, batch.sample_count)
        return out


def compile_and_load(
    circuit: Circuit,
    symbol: str = "circuit_eval",
    cc: str | None = None,
    optimize: str = "-O1",
    keep_dir: str | None = None,
) -> CompiledCircuit:
    """Emit, compile with the system C compiler, and bind the evaluator.

    The shared object lives in a temporary directory owned by the returned
    handle (or in ``keep_dir`` when given, for inspection).
    """
    compiler = cc or os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc)")
    source = emit_source(circuit, symbol=symbol)
    tmp = None
    if keep_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="gatenet_emit_")
        out_dir = tmp.name
    else:
        os.makedirs(keep_dir, exist_ok=True)
        out_dir = keep_dir
    c_path = os.path.join(out_dir, f"{symbol}.c")
    so_path = os.path.join(out_dir, f"{symbol}.so")
    with open(c_path, "w") as fh:
        fh.write(source)
    cmd = [compiler, optimize, "-shared", "-fPIC", "-o", so_path, c_path]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{compiler} failed ({proc.returncode}):\n{proc.stderr}")
    lib = ctypes.CDLL(so_path)
    fn = getattr(lib, symbol)
    fn.restype = None
    fn.argtypes = [
        npct.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS"),
        ctypes.c_size_t,
        npct.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS"),
        ctypes.c_size_t,
    ]
    return CompiledCircuit(
        input_width=circuit.input_width,
        classes=circuit.readout.k,
        library_path=so_path,
        _fn=fn,
        _keepalive=(lib, tmp),
    )
