"""Word-parallel execution of Boolean circuits.

Samples are bit-transposed: feature i of 64 consecutive samples lives in one
64-bit unsigned word, so a single bitwise operation evaluates one gate for 64
samples at once. ``pack`` gets there without moving single bytes: it packs 8
features of a sample per byte, gathers the bytes of 8 samples into a word,
transposes each word's 8x8 bit matrix (three masked delta swaps) and moves
the resulting bytes, one per 8 samples of a feature, into rows. Input that
is not C-contiguous is copied to C order first. The count decoding runs
the same transpose backwards. All 16 gates lower to
{AND, OR, XOR, NOT} word primitives:

    id  gate            words            id  gate            words
    0   false           0                8   nor             ~(a | b)
    1   and             a & b            9   xnor            ~(a ^ b)
    2   a-and-not-b     a & ~b           10  not-b           ~b
    3   a               a                11  a-or-not-b      a | ~b
    4   not-a-and-b     ~a & b           12  not-a           ~a
    5   b               b                13  not-a-or-b      ~a | b
    6   xor             a ^ b            14  nand            ~(a & b)
    7   or              a | b            15  true            ~0

Every circuit runs on one schedule. Its gates are levelized into dependency
waves, and each wave writes one contiguous block of rows of a wire plane. A
block is recycled once no later wave reads it (linear-scan allocation), so a
strictly layered circuit needs its input rows plus two bands. Inside a wave
the gates are renumbered so that every opcode group fills one contiguous
slice of rows: the group's two operands are gathered with ``np.take`` into
scratch blocks and combined by numpy's bitwise ufuncs with ``out=`` straight
into its slice. ``execute_packed`` runs the (features, lanes) ``np.uint64``
words it is given as one block, its plane and scratch carved from one
buffer. Padding bits in the last lane never influence real samples (bitwise
ops are per-bit independent), so nothing masks them: the readout returns a
row per bit position, and the caller keeps its samples' rows.

Class scores count the set output bits of each group without leaving the
packed words: a column compressor of full adders reduces a group's planes,
three at a time, to one plane per binary digit of the count, and only those
few count planes are unpacked. ``popcount_scores`` counts all the lanes it
is given at once. Scoring and emission never run a circuit as it is given:
``_counted`` prunes it (``opt.prune``), so constant, pass-through, negation
and dead gates do not run, and leaves the outputs of the pruned circuit's
constant gates uncounted, adding each class's constant-true outputs as an
offset. Its fold is cached on the pruned circuit, so a circuit and its
pruned form share one fold and one plan. Both back ends count the fold's
padded outputs with ``_carry_save_count`` and add its one offset: the numpy
readout on words, and the emitted kernel on the counter wires of
``build_adder_aggregation``.

``circuit_scores`` takes raw 0/1 rows, as the paper's images come, and is
the one place that splits them into lane blocks: as few blocks as keep
each block's plane within ``BUDGET`` bytes, of equal size give or take one
lane. It runs them one at a time: it packs a block's rows, executes the
pruned circuit with only the counted wires as outputs and counts those
while they are still in cache, adds the offsets, then joins the blocks'
scores. Scoring runs on one thread, as the paper's single-core throughput
claim does; a second thread over the blocks ran no faster on two cores.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .model import Circuit
from .opt import prune


def _require_little_endian() -> None:
    if sys.byteorder != "little":
        raise RuntimeError("bit packing requires a little-endian host")


def pack(samples: np.ndarray) -> np.ndarray:
    """Bit-transpose a (samples, features) matrix of exact 0/1 values into 64-bit words.

    The words are (features, lanes) ``np.uint64``: bit j (LSB-first) of
    ``words[i, l]`` is feature i of sample 64*l + j. The last lane's bits
    beyond the samples are zero.
    """
    _require_little_endian()
    samples = _sample_matrix(samples)
    exact = True
    if samples.dtype.kind in "ui":
        # one pass: viewed as unsigned, negative integers lie above 1 too
        exact = samples.view(f"u{samples.itemsize}").max() <= 1
    elif samples.dtype.kind != "b":
        # exact 0/1 values equal their truth value (x != 0); 0.5, -1, inf and NaN do not
        bits = samples != 0
        exact = np.array_equal(samples, bits)
        samples = bits.view(np.uint8)
    if not exact:
        raise ValueError("samples must be Boolean (each value exactly 0 or 1)")
    if samples.itemsize > 1:
        samples = samples.astype(np.uint8)  # packbits then reads bytes
    n, f = samples.shape
    lanes = -(-n // 64)
    samples = np.ascontiguousarray(samples)  # packbits is slow along a strided axis
    octets = np.packbits(samples, axis=1, bitorder="little")  # byte j: features 8j .. 8j+7
    blocks = np.zeros((octets.shape[1], lanes * 64), dtype=np.uint8)
    blocks[:, :n] = octets.T  # a word of row j: byte j of 8 samples
    del octets
    _transpose_blocks(blocks)  # ... now 8 samples of each of 8 features
    words = np.empty((blocks.shape[0] * 8, lanes * 8), dtype=np.uint8)
    words.reshape(-1, 8, lanes * 8)[...] = blocks.reshape(-1, lanes * 8, 8).transpose(0, 2, 1)
    return words[:f].view(np.uint64)


def _sample_matrix(samples) -> np.ndarray:
    """``samples`` as an array, which must be a non-empty 2-d matrix."""
    samples = np.asarray(samples)
    if samples.ndim != 2 or 0 in samples.shape:
        raise ValueError("need a non-empty 2-d sample matrix")
    return samples


def _rows(samples, input_width: int) -> np.ndarray:
    """Raw rows to score: a sample matrix, or zero rows, of ``input_width`` features."""
    samples = np.asarray(samples)
    if samples.ndim != 2 or len(samples):
        samples = _sample_matrix(samples)
    _require_width(samples.shape[1], input_width)  # also when no lane block runs
    return samples


# Delta swaps (shift, mask) that transpose the 8x8 bit matrix of a word.
_TRANSPOSE_STEPS = (
    (7, np.uint64(0x00AA00AA00AA00AA)),
    (14, np.uint64(0x0000CCCC0000CCCC)),
    (28, np.uint64(0x00000000F0F0F0F0)),
)
# Words transposed per pass: 256 KB stays in cache across the 18 numpy
# calls of the three delta swaps. On a 16384 x 784 batch (1.6 MB of
# blocks; 2-core 2.0 GHz Xeon, 2 MB L2 per core) passes took the transpose
# from 2.5 to 1.4 ms and pack from 8.8 to 7.9 ms against one whole-array
# pass.
_TRANSPOSE_WORDS = 1 << 15


def _transpose_blocks(blocks: np.ndarray) -> None:
    """Transpose in place the 8x8 bit matrix of every 64-bit word of ``blocks``.

    ``blocks`` is C-contiguous, and each run of 8 bytes is one word: bit c of
    byte r swaps with bit r of byte c. The transpose is its own inverse, so
    ``pack`` moves bytes of features into words of samples with it, and
    ``_decode_counts`` turns 8 count planes back into one count byte per
    sample.
    """
    flat = blocks.reshape(-1).view(np.uint64)
    scratch = np.empty(min(flat.size, _TRANSPOSE_WORDS), dtype=np.uint64)
    for lo in range(0, flat.size, _TRANSPOSE_WORDS):
        x = flat[lo : lo + _TRANSPOSE_WORDS]
        t = scratch[: x.size]
        for shift, mask in _TRANSPOSE_STEPS:  # t = (x ^ x >> s) & m; x ^= t ^ t << s
            np.right_shift(x, shift, out=t)
            t ^= x
            t &= mask
            x ^= t
            np.left_shift(t, shift, out=t)
            x ^= t


# Bytes of wire plane per lane block. Smaller blocks pay numpy's per-call
# overhead more often, larger ones fall out of cache: on the 48000-gate
# criterion-8 circuit 4-16 MB ran alike and 32 MB was slower.
BUDGET = 8 << 20


def _block_lanes(rows: int) -> int:
    """Most lanes per block for a plane of ``rows`` 64-bit words per lane."""
    return max(1, BUDGET // (8 * rows))


def _lane_blocks(lanes: int, rows: int) -> list[tuple[int, int]]:
    """(start, stop) lanes of the fewest blocks of at most ``_block_lanes(rows)`` lanes.

    The blocks differ in size by at most one lane, so no block is left small.
    """
    count = -(-lanes // _block_lanes(rows))
    return [(lanes * i // count, lanes * (i + 1) // count) for i in range(count)]


class _ExecPlan:
    """Execution schedule for one circuit (cached on the instance), as flat tables.

    Gates run in order of ``Circuit.levels()``, then of opcode, then of id.
    Each level's wave takes one contiguous block of plane rows, so every
    opcode group of a wave fills consecutive rows. The blocks come first fit
    from one stack of rows, or from two where that needs fewer rows (see
    ``_place``). The inputs are the first block. A block returns to the free
    list after the deepest level that reads any of its wires; blocks holding
    an output wire are never freed. ``rows`` is the plane's height.
    Group ``g`` writes the ``group_size[g]`` rows from ``group_row[g]`` with
    opcode ``group_op[g]``; ``src_a`` and ``src_b`` hold every gate's source
    rows in run order, so each group reads a contiguous slice of them.
    ``outputs`` are the output wires' rows and ``scratch`` the rows of the
    largest group.
    """

    def __init__(self, circuit: Circuit):
        self.input_width = w_in = circuit.input_width
        level = circuit.levels()
        src = circuit.sources.astype(np.int64)
        last = np.zeros(circuit.num_wires, dtype=np.int64)  # deepest level reading a wire
        np.maximum.at(last, src.ravel(), np.repeat(level, 2))
        last[circuit.output_wires] = np.iinfo(np.int64).max
        order = np.lexsort((circuit.opcodes, level))
        first = np.flatnonzero(np.diff(level[order], prepend=0))  # each wave's first gate
        sizes = np.diff(first, append=len(order))
        dies = np.maximum.reduceat(last[w_in + order], first) if len(order) else first
        waves = (w_in, int(last[:w_in].max()), sizes.tolist(), dies.tolist())
        one, two = _place(*waves, False), _place(*waves, True)
        self.rows, starts = two if two[0] < one[0] else one
        row = np.arange(circuit.num_wires, dtype=np.int64)  # wire id -> plane row
        # a gate's row is its wave's first row plus its place in the wave
        offset = np.array(starts, dtype=np.int64) - first
        row[w_in + order] = np.repeat(offset, sizes) + np.arange(len(order))
        ops = circuit.opcodes[order]
        group = np.flatnonzero(np.diff(level[order] * 16 + ops, prepend=-1))
        self.group_op, self.group_row = ops[group], row[w_in + order[group]]
        self.group_size = np.diff(group, append=len(order))
        self.src_a, self.src_b = row[src[order].T]
        self.outputs = row[circuit.output_wires]
        self.scratch = int(self.group_size.max(initial=0))


def _place(w_in: int, inputs_die: int, sizes: list, dies: list, two_stacks: bool):
    """(plane rows, first row of each wave) for waves placed first fit.

    The rows form one stack, or with ``two_stacks`` two: the inputs and the
    waves of odd level fill the lower one, the waves of even level one on
    top. Wave ``l`` lives through level ``dies[l]``, the inputs through
    ``inputs_die``. Two stacks keep a strictly layered circuit within its
    inputs plus two widest bands, which one stack can exceed when bands grow.
    """
    free, top = [[], []], [w_in, 0]  # per stack: sorted (start, stop) free runs, height
    placed, freed_after = [], {inputs_die: [(0, 0, w_in)]}  # level -> (stack, start, stop)
    for lvl, (size, die) in enumerate(zip(sizes, dies), start=1):
        for s, lo, hi in freed_after.pop(lvl - 1, []):
            free[s].append((lo, hi))
        s = int(two_stacks and lvl % 2 == 0)
        runs = free[s] = _merge_runs(free[s])  # levels have no gaps
        fit = next((i for i, (lo, hi) in enumerate(runs) if hi - lo >= size), None)
        if fit is None:  # grow the stack, from its top free run if that ends at the top
            lo = runs.pop()[0] if runs and runs[-1][1] == top[s] else top[s]
            top[s] = lo + size
        else:
            lo, hi = runs[fit]
            runs[fit : fit + 1] = [(lo + size, hi)] if hi - lo > size else []
        placed.append((s, lo))
        freed_after.setdefault(max(lvl, die), []).append((s, lo, lo + size))
    return sum(top), [lo + s * top[0] for s, lo in placed]


def _merge_runs(runs: list) -> list:
    """Sorted (start, stop) runs with touching runs joined."""
    merged = []
    for lo, hi in sorted(runs):
        if merged and merged[-1][1] == lo:
            lo = merged.pop()[0]
        merged.append((lo, hi))
    return merged


# Word recipe per opcode: (source gathered first, invert it, ufunc that folds
# in the other source, invert the result); 0 and 15 fill a constant instead.
_OP_STEPS = {
    1: (0, False, np.bitwise_and, False),
    2: (1, True, np.bitwise_and, False),
    3: (0, False, None, False),
    4: (0, True, np.bitwise_and, False),
    5: (1, False, None, False),
    6: (0, False, np.bitwise_xor, False),
    7: (0, False, np.bitwise_or, False),
    8: (0, False, np.bitwise_or, True),
    9: (0, False, np.bitwise_xor, True),
    10: (1, True, None, False),
    11: (1, True, np.bitwise_or, False),
    12: (0, True, None, False),
    13: (0, True, np.bitwise_or, False),
    14: (0, False, np.bitwise_and, True),
}


def _run_groups(plan: _ExecPlan, plane: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Write each opcode group of ``plan`` into its rows of ``plane``.

    Sources may lie above or below the rows being written, so a group first
    gathers its operands into the scratch blocks ``a`` and ``b``, which share
    no memory with ``plane``: ``np.take`` then writes them in place instead
    of through a hidden copy.
    """
    rows = (plan.src_a, plan.src_b)
    groups = zip(plan.group_op.tolist(), plan.group_row.tolist(), plan.group_size.tolist())
    stop = 0
    for op, lo, size in groups:
        start, stop = stop, stop + size
        out = plane[lo : lo + size]
        if op in (0, 15):
            out.fill(np.iinfo(out.dtype).max if op else 0)
            continue
        first, pre_not, combine, post_not = _OP_STEPS[op]
        x = np.take(plane, rows[first][start:stop], axis=0, out=a[:size], mode="clip")
        if combine is None:
            if pre_not:
                np.invert(x, out=out)
            else:
                np.copyto(out, x)
            continue
        if pre_not:
            np.invert(x, out=x)
        y = np.take(plane, rows[1 - first][start:stop], axis=0, out=b[:size], mode="clip")
        combine(x, y, out=out)
        if post_not:
            np.invert(out, out=out)


def _plan_for(circuit: Circuit) -> _ExecPlan:
    plan = getattr(circuit, "_exec_plan", None)
    if plan is None:
        plan = _ExecPlan(circuit)
        object.__setattr__(circuit, "_exec_plan", plan)  # Circuit is frozen
    return plan


def _require_width(features: int, input_width: int) -> None:
    if features != input_width:
        raise ValueError(f"batch has {features} features, circuit wants {input_width}")


def execute_packed(circuit: Circuit, words: np.ndarray) -> np.ndarray:
    """Evaluate the circuit on (features, lanes) words as one block: the output wires' words.

    The plane and two scratch blocks are carved from one buffer, so each
    ``out=`` of ``_run_groups`` is C-contiguous. The plane holds every lane:
    34 MB for 16384 rows of the 48000-gate criterion-8 circuit.
    ``circuit_scores`` keeps within ``BUDGET`` by passing one lane block.
    """
    _require_width(len(words), circuit.input_width)
    plan = _plan_for(circuit)
    rows, lanes = plan.rows, words.shape[1]
    buf = np.empty((rows + 2 * plan.scratch) * lanes, dtype=np.uint64)
    plane = buf[: rows * lanes].reshape(rows, lanes)
    a, b = buf[rows * lanes :].reshape(2, plan.scratch, lanes)
    plane[: plan.input_width] = words
    _run_groups(plan, plane, a, b)
    return np.take(plane, plan.outputs, axis=0)


def popcount_scores(words: np.ndarray, k: int) -> np.ndarray:
    """Set-bit counts per contiguous output group: (64 * lanes, k) int64, a row per bit.

    Counting stays on the packed words: each group's G output planes are
    reduced by ``_carry_save_count``'s column compressor, so only the
    ceil(log2(G+1)) count planes per class are unpacked to samples. All
    lanes are counted at once; inside ``circuit_scores`` that is one lane
    block's counted outputs, which leave out constant outputs, so the
    class offsets are added there, not here. Padding bits never reach a
    real sample's count (every word operation is per-bit independent); the
    caller keeps the rows of its samples.
    """
    n, lanes = words.shape
    if n % k:
        raise ValueError(f"output width {n} not divisible by k={k}")
    if n == 0:
        return np.zeros((64 * lanes, k), dtype=np.int64)
    return _decode_counts(_carry_save_count(words.reshape(k, n // k, lanes)))


def _carry_save_count(planes: np.ndarray, xor=np.bitwise_xor, and_=np.bitwise_and) -> np.ndarray:
    """Per-class sums of (k, G, lanes) bit planes as (width, k, lanes) count planes, LSB first.

    A column compressor (Wallace, 1964): the G planes are the weight-1
    column. Each pass replaces every three planes a, b, c of a column by a
    sum plane a ^ b ^ c, kept in the column, and a carry plane
    (a & b) ^ ((a ^ b) & c), sent to the next column; a last pair goes
    through a half adder (a ^ b, a & b). A column is done when one plane is
    left, and that plane is its count bit, so no final ripple add is needed.
    The count has width = G.bit_length() bits, every column below it keeps
    at least one plane, and no sum reaches 2**width, so carries out of the
    top column are never formed. A full adder takes 5 word operations and
    leaves one plane fewer, and a half adder, at most one per column, takes
    2, so a count costs at most 5 per counted bit. The planes a pass leaves
    over go in front of its sums, so the next pass takes them first and, as
    gates, their wires die sooner. Columns are held plane by plane,
    (planes, k, lanes), so that each operand of a pass after the first is
    one contiguous block: numpy runs small strided blocks several times
    slower. Each pass writes a column's next planes into the other of two
    buffers; ``planes`` itself is never written. ``xor`` and ``and_`` are
    called like ufuncs with ``out=``: the defaults compute words, and
    ``build_adder_aggregation`` passes ones that append gates. Either way
    the planes are the fold's padded outputs, and the caller adds
    ``_counted``'s offset.
    """
    k, g, lanes = planes.shape
    width = g.bit_length()
    col = planes.transpose(1, 0, 2)
    counts = np.empty((width, k, lanes), dtype=planes.dtype)
    x = np.empty((g // 3, k, lanes), dtype=planes.dtype)  # a ^ b, then (a ^ b) & c
    bufs = np.empty((2, g // 3 + 2, k, lanes), dtype=planes.dtype)  # no later column is taller
    turn = 0
    for w in range(width):
        top = w + 1 == width
        up, sent = np.empty((len(col) // 2, k, lanes), dtype=planes.dtype), 0
        while len(col) > 1:
            t = max(len(col) // 3, 1)  # full adders, or a half adder on a last pair
            a, b, c, rest = col[:t], col[t : 2 * t], col[2 * t : 3 * t], col[3 * t :]
            nxt = bufs[turn, : len(rest) + t]
            turn ^= 1
            nxt[: len(rest)] = rest
            sums, carry = nxt[len(rest) :], up[sent : sent + t]
            sent += t
            if len(c) == 0:
                if not top:
                    and_(a, b, out=carry)
                xor(a, b, out=sums)
            else:
                xor(a, b, out=x[:t])
                xor(x[:t], c, out=sums)
                if not top:
                    and_(a, b, out=carry)
                    and_(x[:t], c, out=x[:t])
                    xor(carry, x[:t], out=carry)
            col = nxt
        counts[w] = col[0]
        col = up[:sent]
    return counts


def _decode_counts(planes: np.ndarray) -> np.ndarray:
    """Counts held in (bits, k, lanes) LSB-first count planes: (64 * lanes, k) int64.

    Eight planes at a time are bit-transposed, which leaves one byte per
    sample: count bits 0-7, then 8-15, and so on.
    """
    bits, k, lanes = planes.shape
    octets = np.zeros((-(-bits // 8) * 8, k, lanes), dtype=np.uint64)
    octets[:bits] = planes
    blocks = octets.view(np.uint8).reshape(-1, 8, k, lanes * 8).transpose(0, 2, 3, 1).copy()
    _transpose_blocks(blocks)
    counts = np.zeros((k, lanes * 64), dtype=np.int64)
    for i, byte in enumerate(blocks.reshape(-1, k, lanes * 64)):
        counts += np.left_shift(byte, 8 * i, dtype=np.int64)
    return counts.T


def circuit_scores(circuit: Circuit, samples, threads: int = 1) -> np.ndarray:
    """(samples, k) integer class scores for a 2-d matrix of raw 0/1 rows.

    A class's score is the set-bit count of its output wires. What runs is
    ``_counted``'s scoring circuit, the pruned form of ``circuit``, in the
    lane blocks of ``_lane_blocks`` over its plan's plane rows, one at a
    time: each block's rows are packed, executed, and its counted wires, the
    outputs of the pruned circuit's non-constant gates and inputs, are
    counted into its rows of the scores, plus each class's offset for its
    constant-true outputs. The scores are those of ``circuit`` itself, since
    pruning keeps every output bit. Zero raw rows of the circuit's width
    score as (0, k). Anything but a 2-d matrix of exact 0/1 values of the
    circuit's width is a ValueError: packing is part of scoring. Scoring
    runs on one thread: ``threads`` accepts only 1.
    """
    if threads != 1:
        raise ValueError(f"scoring runs on one thread, got threads={threads}")
    return _score_batch(circuit, samples)[0]


def _score_batch(circuit: Circuit, samples) -> tuple[np.ndarray, np.ndarray]:
    """``circuit_scores`` and the seconds of its pack, execute and readout.

    The stage times are summed over the lane blocks.
    """
    samples = _rows(samples, circuit.input_width)
    n = len(samples)
    scores = np.empty((n, circuit.readout.k), dtype=np.int64)
    fold = _counted(circuit)
    scored, offset = fold.circuit, fold.offset
    stages = np.zeros(3)
    for lo, hi in _lane_blocks(-(-n // 64), _plan_for(scored).rows):
        t0 = time.perf_counter()
        words = pack(samples[64 * lo : 64 * hi])
        t1 = time.perf_counter()
        outputs = execute_packed(scored, words)
        t2 = time.perf_counter()
        block = scores[64 * lo : 64 * hi]  # the last block's rows stop at n
        np.add(popcount_scores(outputs, scored.readout.k)[: len(block)], offset, out=block)
        stages += (t1 - t0, t2 - t1, time.perf_counter() - t2)
        # free before the next block allocates: otherwise the heap shrinks and
        # regrows every block, about 1900 page faults per 16384-row call
        del words, outputs
    return scores, stages


class _Fold(NamedTuple):
    """What each class counts, and what it adds: see ``_counted``."""

    circuit: Circuit  # the pruned circuit, its outputs each class's counted wires, then pads
    offset: np.ndarray  # (k,) added to each class's count of those outputs


def _counted(circuit: Circuit) -> _Fold:
    """Which output wires each class counts, and its offset (cached on ``prune(circuit)``).

    The fold names wires of ``prune(circuit)``, which gives every output bit
    of ``circuit`` with no constant, pass-through, negation or dead gate. A
    class's score is the set-bit count of its counted wires plus its
    constant-true outputs. An output wire is not counted when it is the
    output of an opcode-0 or opcode-15 gate, the shared constants ``prune``
    makes for outputs that resolve to a constant; an input wire is always
    counted. Every class is padded to the widest class's count with one
    constant output wire, a constant-false one where there is one, and the
    offset is the class's constant-true outputs less its constant-true pads.
    The fold's circuit is a copy of the pruned circuit with the padded
    wires, class after class, as its outputs. Both back ends count those
    outputs and add the offset: ``_score_batch`` to its popcounts, and the
    emitted kernel to the counters of ``build_adder_aggregation``.

    The fold is cached on the pruned circuit, so ``_counted(c) is
    _counted(prune(c))`` and both score with one plan. Its circuit is a new
    one, never the pruned circuit it is cached on, so the two make no
    reference cycle, which only a garbage collection would free.
    """
    base = prune(circuit)
    fold = getattr(base, "_fold", None)
    if fold is None:
        k, w_in = base.readout.k, base.input_width
        wires = base.output_wires.astype(np.int64).reshape(k, -1)
        op = np.full(wires.shape, 3, dtype=np.uint8)  # inputs count as a pass-through
        gate = wires >= w_in
        op[gate] = base.opcodes[wires[gate] - w_in]
        const, ones = (op == 0) | (op == 15), np.count_nonzero(op == 15, axis=1)
        true, false = (wires[op == value][:1] for value in (15, 0))
        counted = np.count_nonzero(~const, axis=1)
        width = int(counted.max())
        padded = np.take_along_axis(wires, np.argsort(const, axis=1, kind="stable"), 1)
        padded = padded[:, :width]
        padded[np.arange(width) >= counted[:, None]] = false if len(false) else true
        offset = ones - (width - counted) * (len(false) == 0)
        fold = _Fold(replace(base, output_wires=padded.ravel()), offset)
        object.__setattr__(base, "_fold", fold)  # Circuit is frozen
    return fold


def build_adder_aggregation(circuit: Circuit) -> Circuit:
    """The pruned circuit with counters, so class counts come out as binary wires.

    The counters are the readout's column compressor run over wire ids, with
    word operations that append XOR and AND gates instead of computing
    words: the very ``_carry_save_count`` call ``popcount_scores`` makes on
    the outputs of ``_counted(circuit).circuit``, each class's counted wires
    and then its constant pads. The result is pruned, so the gates that
    count a pad fold into their other source, a constant or a negation, and
    the pruned circuit's constant and NOT gates, which only the counters
    read, fold away; the counters may then hold any opcode. A class costs at
    most 5 gates per padded output and ceil(log2(G'+1)) counter wires for
    the widest class's G' counted outputs; its depth is at most
    ceil(log2(G'+1))**2 (50 on the 48000-gate criterion-8 circuit, G' = 457).
    The returned circuit's output wires are the counter wires, class after
    class, LSB first: read as binary, its k runs of ``len(output_wires) //
    k`` bits count the fold's outputs, and adding the fold's offset gives
    the popcount readout's scores exactly, which is what the emitted kernel
    does. A circuit whose outputs are all constant has no counter wires.
    The counters of a circuit and of its ``prune`` form are the same. Only
    emission runs the result; scored or aggregated again, it would count
    its counter wires.
    """
    if circuit.group_size == 0:
        raise ValueError("circuit has no output wires to aggregate")
    scored = _counted(circuit).circuit
    new_src: list[np.ndarray] = []
    new_ops: list[np.ndarray] = []
    added = 0

    def gate(opcode: int, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        nonlocal added
        new_src.append(np.stack([a.ravel(), b.ravel()], axis=1))  # before ``out`` may overwrite a
        first, added = scored.num_wires + added, added + a.size
        out[...] = np.arange(first, first + a.size).reshape(out.shape)
        new_ops.append(np.full(a.size, opcode, dtype=np.uint8))

    k = scored.readout.k
    wires = scored.output_wires.astype(np.int64).reshape(k, -1, 1)
    counts = _carry_save_count(wires, partial(gate, 6), partial(gate, 1))  # (width, k, 1)
    max_probs = scored.max_probs
    if max_probs is not None:
        max_probs = np.concatenate([max_probs, np.ones(added)])
    adder = Circuit(
        input_width=scored.input_width,
        layer_sizes=scored.layer_sizes + (added,),
        sources=np.concatenate([scored.sources, *new_src]),
        opcodes=np.concatenate([scored.opcodes, *new_ops]),
        output_wires=counts.transpose(1, 0, 2).ravel(),
        readout=scored.readout,
        seed=scored.seed,
        max_probs=max_probs,
    )
    return prune(adder)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def benchmark(circuit: Circuit, samples, repetitions: int = 5) -> dict:
    """Median-of-repetitions inference throughput and time per stage, on one thread.

    Each repetition scores the raw 0/1 rows ``samples`` on the path
    ``circuit_scores`` runs, and sums each stage over the lane blocks.
    ``samples_per_sec`` counts pack, execute and readout, raw rows in and
    class scores out; ``pack_ms``, ``execute_ms`` and ``readout_ms`` are the
    stages' medians. ``gates`` is the gate count of the pruned circuit that
    runs, which ``gate_ops_per_sec`` credits. An empty batch or fewer than
    one repetition is a ValueError.
    """
    if repetitions < 1:
        raise ValueError(f"need at least 1 repetition, got repetitions={repetitions}")
    n = len(circuit_scores(circuit, samples))  # warmup + plan build
    if n == 0:
        raise ValueError("the batch has no rows to time")
    gates = prune(circuit).num_gates
    stages = np.array([_score_batch(circuit, samples)[1] for _ in range(repetitions)])
    pack_s, execute_s, readout_s = np.median(stages, axis=0)
    med = float(np.median(stages.sum(axis=1)))
    samples_per_sec = n / med
    return {
        "samples": n,
        "lanes": -(-n // 64),
        "gates": gates,
        "cpu": _cpu_model(),
        "seconds_median": med,
        "samples_per_sec": samples_per_sec,
        "gate_ops_per_sec": samples_per_sec * gates,
        "pack_ms": float(pack_s) * 1e3,
        "execute_ms": float(execute_s) * 1e3,
        "readout_ms": float(readout_s) * 1e3,
    }
