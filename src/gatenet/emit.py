"""Standalone C emission for Boolean circuits, plus a compile-and-load helper.

The emitted translation unit is plain C99 over the standard library: one
fixed kernel, ``circuit_eval``, plus ``static const`` tables holding the
execution plan that ``execute_packed`` runs, for the pruned circuit with its
adder aggregation (``build_adder_aggregation``), and each class's offset.
The kernel counts its lanes from the sample count, runs the plan over blocks
of 64-bit lanes in a heap plane and decodes each class's counter rows, which
count the fold's padded outputs, into scores that start from the class's
offset, as ``circuit_scores`` adds ``_counted``'s offset to its popcounts.
Only ``_emit`` renders it, and only the tables depend on the circuit: the
text is byte-identical across runs, with no timestamps or environment-
dependent parts, and the same for a circuit and its ``prune`` form.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np
from numpy import ctypeslib as npct

from .model import Circuit
from .packed import (
    _block_lanes,
    _counted,
    _lane_blocks,
    _plan_for,
    _rows,
    build_adder_aggregation,
    pack,
)

_CFLAGS = ("-O2", "-shared", "-fPIC")

_KERNEL = """
/* One gate group: each of its `size` gates writes its plane row from the
 * rows of its two sources, one word per lane of the block. */
#define GN_GATES(expr)                                                   \\
    for (size_t j = 0; j < size; ++j, ++t) {                             \\
        uint64_t *restrict o = out + j * n;                              \\
        const uint64_t *restrict a = plane + (size_t)gn_src_a[t] * n;    \\
        const uint64_t *restrict b = plane + (size_t)gn_src_b[t] * n;    \\
        (void)a, (void)b;                                                \\
        for (size_t l = 0; l < n; ++l) o[l] = (expr);                    \\
    }                                                                    \\
    break;

/* in:     one plane of ceil(samples/64) uint64_t words per input wire,
 *         wire-major; bit b of lane L is sample 64*L+b (little-endian).
 * scores: exactly `samples` rows of `classes` int64 raw counts.
 * Returns 0, at once if samples is 0, or 1 if the plane cannot be allocated. */
int circuit_eval(const uint64_t *in, size_t samples, int64_t *scores) {
    const size_t inputs = gn_dims[0], rows = gn_dims[1], groups = gn_dims[3];
    const size_t classes = gn_dims[4], bits = gn_dims[5];
    const size_t lanes = samples / 64 + (samples % 64 != 0);
    if (lanes == 0) return 0;
    /* the fewest blocks of at most gn_dims[2] lanes, as even as they go:
     * block blk starts at lane lanes*blk/count, found without that product */
    const size_t count = (lanes - 1) / gn_dims[2] + 1;
    const size_t q = lanes / count, r = lanes % count;
    uint64_t *plane = malloc(rows * (q + (r != 0)) * sizeof *plane);
    if (plane == NULL) return 1;
    for (size_t blk = 0; blk < count; ++blk) {
        const size_t lo = blk * q + r * blk / count;
        const size_t n = q + r * (blk + 1) / count - r * blk / count;
        for (size_t i = 0; i < inputs; ++i)
            memcpy(plane + i * n, in + i * lanes + lo, n * sizeof *plane);
        for (size_t g = 0, t = 0; g < groups; ++g) {
            uint64_t *out = plane + (size_t)gn_group_row[g] * n;
            const size_t size = gn_group_size[g];
            switch (gn_group_op[g]) {
            case 0: GN_GATES(0)
            case 1: GN_GATES(a[l] & b[l])
            case 2: GN_GATES(a[l] & ~b[l])
            case 3: GN_GATES(a[l])
            case 4: GN_GATES(~a[l] & b[l])
            case 5: GN_GATES(b[l])
            case 6: GN_GATES(a[l] ^ b[l])
            case 7: GN_GATES(a[l] | b[l])
            case 8: GN_GATES(~(a[l] | b[l]))
            case 9: GN_GATES(~(a[l] ^ b[l]))
            case 10: GN_GATES(~b[l])
            case 11: GN_GATES(a[l] | ~b[l])
            case 12: GN_GATES(~a[l])
            case 13: GN_GATES(~a[l] | b[l])
            case 14: GN_GATES(~(a[l] & b[l]))
            case 15: GN_GATES(~(uint64_t)0)
            }
        }
        /* each class's counter rows are its count in binary, LSB first,
         * added to the class's offset */
        for (size_t l = 0; l < n; ++l) {
            const size_t base = (lo + l) * 64;
            const size_t valid = samples - base < 64 ? samples - base : 64;
            for (size_t c = 0; c < classes; ++c) {
                const uint32_t *counter = gn_outputs + c * bits;
                for (size_t s = 0; s < valid; ++s) {
                    int64_t count = gn_offset[c];
                    for (size_t k = 0; k < bits; ++k)
                        count += (int64_t)(plane[(size_t)counter[k] * n + l] >> s & 1u) << k;
                    scores[(base + s) * classes + c] = count;
                }
            }
        }
    }
    free(plane);
    return 0;
}
"""


def _const_table(name: str, values, ctype: str = "uint32_t") -> str:
    """A static const array, 16 entries per line."""
    vals = [str(v) for v in np.asarray(values).tolist()] or ["0"]  # C has no empty arrays
    lines = (", ".join(vals[i : i + 16]) for i in range(0, len(vals), 16))
    return f"static const {ctype} {name}[{len(vals)}] = {{\n    " + ",\n    ".join(lines) + "\n};\n"


def emit_source(circuit: Circuit) -> str:
    """Render the circuit as a self-contained C function.

    The function signature is::

        int circuit_eval(const uint64_t *in, size_t samples, int64_t *scores);

    ``in`` holds one plane of ``lanes = ceil(samples/64)`` 64-bit words per
    input wire, wire-major (word of wire i in lane L sits at
    ``in[i*lanes + L]``); bit b of lane L is sample 64*L+b, matching ``pack``.
    ``scores`` receives exactly ``samples`` rows of k signed counts,
    sample-major: the plan runs the pruned circuit with the counters of
    ``build_adder_aggregation``, built here from the plain circuit, and the
    kernel decodes their wires and adds ``_counted``'s offset, as
    ``circuit_scores`` does. So ``emit_source(c) == emit_source(prune(c))``,
    and the scores equal ``circuit_scores``, which runs the same pruned
    circuit. Downstream scaling (count/tau + beta) is left to the caller.
    The function returns 0, at once when ``samples`` is 0, or 1 when it
    cannot allocate its plane of ``BUDGET`` bytes per lane block.
    """
    return _emit(circuit)[0]


def _emit(circuit: Circuit) -> tuple[str, Circuit]:
    """The C source for ``circuit`` and the adder aggregation whose plan it holds."""
    adder = build_adder_aggregation(circuit)
    plan = _plan_for(adder)
    dims = (
        adder.input_width,
        plan.rows,
        _block_lanes(plan.rows),
        len(plan.group_op),
        adder.readout.k,
        adder.group_size,
    )
    source = "".join(
        [
            "/* Word-parallel evaluator for a fixed Boolean circuit: one fixed kernel\n"
            " * running the circuit's execution plan, held in the tables below.\n"
            " * gn_dims: input rows, plane rows, lanes per block, opcode groups,\n"
            " * classes, counter bits per class. gn_offset: each class's count of\n"
            " * constant-true outputs less its constant-true pads. */\n",
            "#include <stddef.h>\n#include <stdint.h>\n",
            "#include <stdlib.h>\n#include <string.h>\n\n",
            _const_table("gn_dims", dims),
            _const_table("gn_group_op", plan.group_op, "uint8_t"),
            _const_table("gn_group_row", plan.group_row),
            _const_table("gn_group_size", plan.group_size),
            _const_table("gn_src_a", plan.src_a),
            _const_table("gn_src_b", plan.src_b),
            _const_table("gn_outputs", plan.outputs),
            _const_table("gn_offset", _counted(circuit).offset, "int64_t"),
            _KERNEL,
        ]
    )
    return source, adder


@dataclass
class CompiledCircuit:
    """``circuit_eval`` compiled and bound through ctypes; mirrors circuit_scores.

    Its shared object lives in a temporary directory that the handle keeps.
    """

    input_width: int
    classes: int
    plane_rows: int
    _fn: object = field(repr=False)
    _keepalive: object = field(repr=False)

    def scores(self, samples) -> np.ndarray:
        """(samples, k) int64 class scores for a 2-d matrix of raw 0/1 rows.

        As in ``circuit_scores``, zero rows of the circuit's width score as
        (0, k), and anything but a 2-d matrix of exact 0/1 values of the
        circuit's width is a ValueError.
        """
        samples = _rows(samples, self.input_width)
        n = len(samples)
        out = np.empty((n, self.classes), dtype=np.int64)
        if n == 0:
            return out
        words = pack(samples)
        if self._fn(words, n, out):
            lanes = max(hi - lo for lo, hi in _lane_blocks(words.shape[1], self.plane_rows))
            raise MemoryError(
                f"cannot allocate the {self.plane_rows} x {lanes}-word plane "
                f"({self.plane_rows * lanes * 8} bytes)"
            )
        return out


def compile_and_load(circuit: Circuit) -> CompiledCircuit:
    """Emit, compile with the system C compiler, and bind ``circuit_eval``.

    The compiler is ``$CC``, split as a shell would, so ``CC="ccache gcc"``
    works; else ``cc`` or ``gcc`` from the path. The shared object lives in
    a temporary directory owned by the returned handle.
    """
    found = shutil.which("cc") or shutil.which("gcc")
    compiler = shlex.split(os.environ.get("CC", "")) or ([found] if found else [])
    if not compiler:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc)")
    source, adder = _emit(circuit)
    tmp = tempfile.TemporaryDirectory(prefix="gatenet_emit_")
    c_path = os.path.join(tmp.name, "circuit_eval.c")
    so_path = os.path.join(tmp.name, "circuit_eval.so")
    with open(c_path, "w") as fh:
        fh.write(source)
    cmd = [*compiler, *_CFLAGS, "-o", so_path, c_path]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{shlex.join(compiler)} failed ({proc.returncode}):\n{proc.stderr}")
    lib = ctypes.CDLL(so_path)
    fn = lib.circuit_eval
    fn.restype = ctypes.c_int
    fn.argtypes = [
        npct.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS"),
        ctypes.c_size_t,
        npct.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS"),
    ]
    return CompiledCircuit(
        input_width=circuit.input_width,
        classes=circuit.readout.k,
        plane_rows=_plan_for(adder).rows,
        _fn=fn,
        _keepalive=(lib, tmp),
    )
