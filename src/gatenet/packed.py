"""Word-parallel execution of Boolean circuits.

Samples are bit-transposed: feature i of 64 consecutive samples lives in one
64-bit unsigned word, so a single bitwise operation evaluates one gate for 64
samples at once. All 16 gates lower to {AND, OR, XOR, NOT} word primitives:

    id  gate            words            id  gate            words
    0   false           0                8   nor             ~(a | b)
    1   and             a & b            9   xnor            ~(a ^ b)
    2   a-and-not-b     a & ~b           10  not-b           ~b
    3   a               a                11  a-or-not-b      a | ~b
    4   not-a-and-b     ~a & b           12  not-a           ~a
    5   b               b                13  not-a-or-b      ~a | b
    6   xor             a ^ b            14  nand            ~(a & b)
    7   or              a | b            15  true            ~0

Strictly layered circuits run with two ping-pong activation planes; general
netlists (pruned or with adder counters appended) are levelized once and run
wave by wave into a full wire plane. Either schedule renumbers the gates of
each band or wave so that every opcode group fills one contiguous slice of
rows; a group is then gathered with ``np.take`` and combined by numpy's
bitwise ufuncs with ``out=`` straight into its slice, with no scatter and no
temporaries beyond one scratch block. Padding bits in the last lane never
influence real samples (bitwise ops are per-bit independent); returned
batches have their padding re-zeroed to keep the layout canonical.

Class scores count the set output bits of each group without leaving the
packed words: a carry-save tree adds a group's planes pairwise as bit-sliced
binary numbers, and only the few resulting count planes are unpacked.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import Circuit, ReadoutConfig


def _require_little_endian() -> None:
    if sys.byteorder != "little":
        raise RuntimeError("bit packing requires a little-endian host")


@dataclass
class PackedBatch:
    """Bit-transposed samples: words[i, l] holds feature i of samples 64*l .. 64*l+63.

    The words are ``np.uint64``; bit j (LSB-first) of that word is sample
    64*l + j. Bits at or beyond sample_count in the last lane are zero.
    """

    words: np.ndarray
    sample_count: int

    @property
    def lanes(self) -> int:
        return self.words.shape[1]

    @property
    def feature_count(self) -> int:
        return self.words.shape[0]


def _pad_mask(sample_count: int, lanes: int) -> np.ndarray:
    """One word per lane with 1s at valid sample bits."""
    mask = np.full(lanes, np.iinfo(np.uint64).max, dtype=np.uint64)
    tail = sample_count % 64
    if tail:
        mask[-1] = (1 << tail) - 1
    return mask


def pack(samples: np.ndarray) -> PackedBatch:
    """Bit-transpose a (samples, features) 0/1 matrix into 64-bit words."""
    _require_little_endian()
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("need a non-empty 2-d sample matrix")
    bits = np.ascontiguousarray(samples.T, dtype=np.uint8)
    if bits.max(initial=0) > 1:
        raise ValueError("samples must be Boolean (0/1)")
    n, f = samples.shape
    lanes = -(-n // 64)
    padded = np.zeros((f, lanes * 64), dtype=np.uint8)
    padded[:, :n] = bits
    words = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    return PackedBatch(words=words, sample_count=n)


def unpack(batch: PackedBatch) -> np.ndarray:
    """Inverse of pack: (samples, features) uint8."""
    _require_little_endian()
    as_bytes = np.ascontiguousarray(batch.words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, : batch.sample_count]
    return np.ascontiguousarray(bits.T)


class _ExecPlan:
    """Pre-grouped execution schedule for one circuit (cached on the instance).

    Gates are renumbered so that every opcode group of a band (layered
    schedule) or of a wave (levelized schedule) fills one contiguous slice
    of rows. Each group is then written in place by ``_run_groups`` without
    a scatter. ``outputs`` maps the circuit's output wires to rows of the
    final plane under that renumbering.
    """

    def __init__(self, circuit: Circuit):
        self.num_wires = circuit.num_wires
        self.input_width = circuit.input_width
        self.layers = self.waves = None
        layered = self._try_layered(circuit, circuit.layer_slices())
        if layered is None:
            self.waves, self.outputs = self._levelize(circuit)
        else:
            self.layers, self.outputs = layered
            self.max_width = max((width for width, _ in self.layers), default=0)

    @staticmethod
    def _try_layered(circuit: Circuit, bands) -> tuple | None:
        """Per-layer schedule when every band reads only the band before it."""
        base = 0  # wire id where the previous band starts
        width_in = circuit.input_width
        layers = []
        prev_width = width_in
        prev_row = None  # plane row of each gate of the previous band
        for li, sl in enumerate(bands):
            src = circuit.sources[sl].astype(np.int64)
            if src.size and (src.min() < base or src.max() >= base + prev_width):
                return None
            local = src - base
            if prev_row is not None:
                local = prev_row[local]
            groups, prev_row = _opcode_groups(circuit.opcodes[sl], local, 0)
            layers.append((sl.stop - sl.start, groups))
            base = width_in if li == 0 else base + prev_width
            prev_width = sl.stop - sl.start
        # outputs must live in the final band for the two-plane fast path
        last_base = base
        out = circuit.output_wires.astype(np.int64)
        if out.min(initial=last_base) < last_base:
            return None
        out -= last_base
        return layers, (out if prev_row is None else prev_row[out])

    @staticmethod
    def _levelize(circuit: Circuit) -> tuple[list, np.ndarray]:
        """Group gates into dependency waves, then by opcode inside each wave.

        Returns the groups, whose rows index the renumbered wire plane
        (inputs first, then wave by wave), and the output wires' rows.
        """
        w_in = circuit.input_width
        row = np.arange(circuit.num_wires, dtype=np.int64)  # wire id -> plane row
        src = circuit.sources
        lvl_gate = circuit.levels()
        waves = []
        order = np.argsort(lvl_gate, kind="stable")
        start = 0
        for wave in np.split(order, np.flatnonzero(np.diff(lvl_gate[order])) + 1):
            # sources lie in earlier waves, whose rows are already final
            local = row[src[wave].astype(np.int64)]
            groups, wave_row = _opcode_groups(circuit.opcodes[wave], local, w_in + start)
            row[w_in + wave] = wave_row
            waves.extend(groups)
            start += len(wave)
        return waves, row[circuit.output_wires.astype(np.int64)]


# Word recipe per opcode: (source copied into the destination first, invert
# it, ufunc that folds in the other source, invert the result); 0 and 15
# fill a constant instead.
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


def _opcode_groups(ops: np.ndarray, sources: np.ndarray, first_row: int):
    """Sort gates by opcode; return their row groups and each gate's new row.

    ``sources`` are the gates' (gates, 2) source rows. The gates take rows
    ``first_row, first_row + 1, ...`` in sorted order, and each group is
    ``(lo, hi, fill, first, pre_not, combine, second, post_not)`` over the
    rows ``lo .. hi``.
    """
    order = np.argsort(ops, kind="stable")
    row = np.empty(len(order), dtype=np.int64)
    row[order] = first_row + np.arange(len(order))
    ops, sources = ops[order], sources[order]
    groups = []
    for op, start, count in zip(*np.unique(ops, return_index=True, return_counts=True)):
        lo, hi = first_row + int(start), first_row + int(start + count)
        if op in (0, 15):
            groups.append((lo, hi, op == 15, None, False, None, None, False))
            continue
        first, pre_not, combine, post_not = _OP_STEPS[int(op)]
        pick = sources[start : start + count]
        a, b = np.ascontiguousarray(pick[:, first]), np.ascontiguousarray(pick[:, 1 - first])
        groups.append((lo, hi, None, a, pre_not, combine, b, post_not))
    return groups, row


def _run_groups(groups, src: np.ndarray | None, dst: np.ndarray) -> None:
    """Write each opcode group into its rows of ``dst``, reading rows of ``src``.

    With ``src`` None a group reads the rows of ``dst`` below its own (the
    levelized wire plane); the read and written rows then never overlap.
    """
    rows_max = max((g[1] - g[0] for g in groups), default=0)
    tmp = np.empty((rows_max, dst.shape[1]), dtype=dst.dtype)
    for lo, hi, fill, first, pre_not, combine, second, post_not in groups:
        out = dst[lo:hi]
        if fill is not None:
            out.fill(np.iinfo(out.dtype).max if fill else 0)
            continue
        rows = dst[:lo] if src is None else src
        np.take(rows, first, axis=0, out=out, mode="clip")
        if pre_not:
            np.invert(out, out=out)
        if combine is not None:
            other = np.take(rows, second, axis=0, out=tmp[: hi - lo], mode="clip")
            combine(out, other, out=out)
        if post_not:
            np.invert(out, out=out)


def _plan_for(circuit: Circuit) -> _ExecPlan:
    plan = getattr(circuit, "_exec_plan", None)
    if plan is None:
        plan = _ExecPlan(circuit)
        circuit._exec_plan = plan
    return plan


def _execute_serial(circuit: Circuit, words: np.ndarray) -> np.ndarray:
    """Output-wire rows for one block of word lanes."""
    plan = _plan_for(circuit)
    lanes = words.shape[1]
    if plan.layers is not None:
        dst, spare = (np.empty((plan.max_width, lanes), dtype=words.dtype) for _ in "ab")
        prev = words
        for width, groups in plan.layers:
            _run_groups(groups, prev, dst[:width])
            prev, dst, spare = dst[:width], spare, dst
        del dst, spare  # only the final plane stays alive for the gather
        return np.take(prev, plan.outputs, axis=0)
    wires = np.empty((plan.num_wires, lanes), dtype=words.dtype)
    wires[: plan.input_width] = words
    _run_groups(plan.waves, None, wires)
    return np.take(wires, plan.outputs, axis=0)


def execute_packed(circuit: Circuit, batch: PackedBatch, threads: int = 1) -> PackedBatch:
    """Evaluate the circuit; returns the output wires as a PackedBatch.

    Results are identical for any thread count (threads split whole word
    lanes, which are independent).
    """
    if batch.feature_count != circuit.input_width:
        raise ValueError(
            f"batch has {batch.feature_count} features, circuit wants {circuit.input_width}"
        )
    lanes = batch.lanes
    if threads > 1 and lanes > 1:
        chunks = np.array_split(np.arange(lanes), min(threads, lanes))
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(
                pool.map(
                    lambda c: _execute_serial(circuit, np.ascontiguousarray(batch.words[:, c])),
                    chunks,
                )
            )
        out = np.concatenate(parts, axis=1)
    else:
        out = _execute_serial(circuit, batch.words)
    out &= _pad_mask(batch.sample_count, lanes)
    return PackedBatch(words=out, sample_count=batch.sample_count)


def popcount_scores(outputs: PackedBatch, readout: ReadoutConfig) -> np.ndarray:
    """Set-bit counts per contiguous output group: (samples, k) int64.

    Counting stays on the packed words: each group's G output planes are
    added pairwise as bit-sliced binary numbers in a carry-save tree, so only
    the ceil(log2(G+1)) count planes per class are unpacked to samples.
    Padding bits never reach a real sample's count (every word operation is
    per-bit independent) and are dropped at the unpack.
    """
    n = outputs.feature_count
    k = readout.k
    if n % k:
        raise ValueError(f"output width {n} not divisible by k={k}")
    group = n // k
    counts = np.zeros((k, outputs.sample_count), dtype=np.int64)
    if group == 0:
        return counts.T
    width = group.bit_length()  # ceil(log2(group + 1)) count planes
    # lane blocks bound the tree's scratch (about 3x the block) at ~12 MB
    step = max(1, (1 << 22) // (outputs.words.itemsize * n))
    done = 0
    for lo in range(0, outputs.lanes, step):
        block = outputs.words[:, lo : lo + step]
        planes = _carry_save_count(block.reshape(k, group, block.shape[1]), width)
        bits = np.unpackbits(
            np.ascontiguousarray(planes).view(np.uint8), axis=-1, bitorder="little"
        )
        take = min(bits.shape[-1], outputs.sample_count - done)
        for t in range(width):
            counts[:, done : done + take] += bits[t, :, :take].astype(np.int64) << t
        done += take
    return counts.T


def _carry_save_count(planes: np.ndarray, width: int) -> np.ndarray:
    """Bit-sliced per-class sums of (k, G, lanes) 0/1 planes: (width, k, lanes).

    Each tree level adds the first half of the numbers to the second half
    with a ripple-carry adder, all pairs and classes at once; an odd number
    left over is carried up zero-extended. Sums never exceed G < 2**width, so
    carries out of the top count plane are never formed.
    """
    k, _, lanes = planes.shape
    nums = planes[None]  # (bits, k, numbers, lanes), LSB plane first
    while nums.shape[2] > 1:
        bits, count = nums.shape[0], nums.shape[2]
        half = count // 2
        a, b = nums[:, :, :half], nums[:, :, half : 2 * half]
        grown = min(bits + 1, width)
        nxt = np.empty((grown, k, half + count % 2, lanes), dtype=planes.dtype)
        if count % 2:
            nxt[:bits, :, half] = nums[:, :, count - 1]
            nxt[bits:, :, half] = 0
        sums = nxt[:, :, :half]
        carry = sums[bits] if grown > bits else np.empty_like(sums[0])
        half_sum = np.empty_like(carry)
        np.bitwise_and(a[0], b[0], out=carry)
        np.bitwise_xor(a[0], b[0], out=sums[0])
        for t in range(1, bits):
            np.bitwise_xor(a[t], b[t], out=half_sum)
            np.bitwise_xor(half_sum, carry, out=sums[t])
            if t + 1 < grown:
                np.bitwise_and(carry, half_sum, out=carry)
                np.bitwise_and(a[t], b[t], out=half_sum)
                np.bitwise_or(carry, half_sum, out=carry)
        nums = nxt
    return nums[:, :, 0]


def _counter_scores(outputs: PackedBatch, circuit: Circuit) -> np.ndarray:
    """Binary-decode per-class counter bits: (samples, k) int64."""
    k = circuit.readout.k
    m = len(circuit.counter_bits[0])
    bits = unpack(outputs)  # (samples, k*m), LSB-first per class
    weights = (1 << np.arange(m, dtype=np.int64))
    return bits.reshape(-1, k, m).astype(np.int64) @ weights


def circuit_scores(circuit: Circuit, samples, threads: int = 1) -> np.ndarray:
    """(samples, k) integer class scores for raw 0/1 samples or a PackedBatch."""
    batch = samples if isinstance(samples, PackedBatch) else pack(samples)
    outputs = execute_packed(circuit, batch, threads=threads)
    if circuit.counter_bits is not None:
        return _counter_scores(outputs, circuit)
    return popcount_scores(outputs, circuit.readout)


def build_adder_aggregation(circuit: Circuit) -> Circuit:
    """Append XOR/AND counter chains so class counts come out as binary wires.

    Each class group of G output bits feeds a ripple counter of
    ceil(log2(G+1)) bits, built one increment at a time: adding bit b to
    counter (c_t) is c_t' = c_t XOR carry_t, carry_{t+1} = c_t AND carry_t
    with carry_0 = b. A new top bit appears only once the running maximum
    reaches the counter's capacity. The result's output wires are the
    concatenated per-class counter bits (LSB first) and its semantics equal
    popcount readout exactly.
    """
    if circuit.counter_bits is not None:
        return circuit
    gsz = circuit.group_size
    if gsz == 0:
        raise ValueError("circuit has no output wires to aggregate")
    new_src: list[tuple[int, int]] = []
    new_ops: list[int] = []
    next_wire = circuit.num_wires

    def add_gate(op: int, s1: int, s2: int) -> int:
        nonlocal next_wire
        new_src.append((s1, s2))
        new_ops.append(op)
        wire = next_wire
        next_wire += 1
        return wire

    xor, and_ = 6, 1
    counters = []
    for c in range(circuit.readout.k):
        group = circuit.output_wires[c * gsz : (c + 1) * gsz]
        counter = [int(group[0])]
        for i in range(2, gsz + 1):
            carry = int(group[i - 1])
            grown = i >= (1 << len(counter))
            nxt = []
            for t, cw in enumerate(counter):
                nxt.append(add_gate(xor, cw, carry))
                if t < len(counter) - 1 or grown:
                    carry = add_gate(and_, cw, carry)
            if grown:
                nxt.append(carry)
            counter = nxt
        counters.append(np.array(counter, dtype=np.uint32))
    max_probs = circuit.max_probs
    if max_probs is not None:
        max_probs = np.concatenate([max_probs, np.ones(len(new_ops))])
    return Circuit(
        input_width=circuit.input_width,
        layer_sizes=circuit.layer_sizes + (len(new_ops),),
        sources=np.concatenate(
            [circuit.sources, np.array(new_src, dtype=np.uint32).reshape(-1, 2)]
        ),
        opcodes=np.concatenate([circuit.opcodes, np.array(new_ops, dtype=np.uint8)]),
        output_wires=np.concatenate(counters),
        readout=circuit.readout,
        seed=circuit.seed,
        max_probs=max_probs,
        counter_bits=tuple(counters),
    )


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


def benchmark(
    circuit: Circuit,
    batch: PackedBatch,
    repetitions: int = 5,
    threads_list: tuple[int, ...] = (1,),
) -> dict:
    """Median-of-repetitions inference throughput (execution plus readout)."""
    report = {
        "samples": batch.sample_count,
        "lanes": batch.lanes,
        "gates": circuit.num_gates,
        "cpu": _cpu_model(),
        "per_thread": {},
    }
    for threads in threads_list:
        circuit_scores(circuit, batch, threads=threads)  # warmup + plan build
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            circuit_scores(circuit, batch, threads=threads)
            times.append(time.perf_counter() - t0)
        med = float(np.median(times))
        samples_per_sec = batch.sample_count / med
        report["per_thread"][threads] = {
            "seconds_median": med,
            "samples_per_sec": samples_per_sec,
            "gate_ops_per_sec": samples_per_sec * circuit.num_gates,
        }
    return report
