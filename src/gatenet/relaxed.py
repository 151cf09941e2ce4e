"""Relaxed (differentiable) execution of a gate network, forward and backward.

Every relaxed gate is bilinear, f_i(a, b) = c0 + c1*a + c2*b + c3*a*b, so a
neuron's softmax mixture over all 16 gates collapses to a single bilinear
form whose coefficients are q = p @ C (C the 16x4 coefficient table, p the
neuron's gate distribution). The forward pass gathers each neuron's operand
rows a1 and a2 and evaluates

    out = (a2*q3 + q1)*a1 + (a2*q2 + q0)

in place: four multiply-adds per neuron instead of sixteen gate evaluations.
The backward pass gathers a2 and a1 again, straight into the two halves of
one (2*width, batch) buffer, and multiplies them there by the output
gradient d, giving t2 = d*a2 and t1 = d*a1. Everything else comes from d, t2
and t1:

    dq = [sum(d), sum(t1), sum(t2), sum(t2*a1)]       (per neuron, over batch)
    dp = dq @ C.T                                      (chain into the mixture)
    dw = p * (dp - <dp, p>)                            (softmax Jacobian)
    da1 = q3*t2 + q1*d,  da2 = q3*t1 + q2*d            (into the inputs)

The sums over the batch are einsums, which run in numpy's own loops and give
the same bits however many BLAS threads there are. da1 and da2 are never
formed: two sparse matrices built from the wiring, whose values are the q3
and the q1 | q2 of each wire's consumers, scatter-add t2 | t1 and d into the
previous layer's gradient rows. The scatter-adds are scipy's CSR kernel,
which the first backward pass loads from its extension file alone
(``_csr_matvecs``), not with all of ``scipy.sparse``; inference never loads
it.

The forward pass runs its gathers and multiply-adds, and the backward pass
its gathers and t2 *= d, over blocks of ``block_rows`` neurons, about
``BLOCK_BYTES`` of (rows, batch) operands, so each block stays in L2 between
the passes over it. Every element sees the same arithmetic in any block, so
the results do not depend on the block size. The forward operands a1 and a2
are one block each. The backward keeps t2 | t1 full width: the einsums and
the scatter read it whole, the scatter because its per-row order of adds
sets the bits, the einsums because split per block they ran slower.

The backward allocates no (width, batch) array besides t2 | t1. It writes
its gradients over the forward results it has finished with: the last
layer's output gradient d over the net's output activations, each layer's
scatter (the previous layer's d) over that layer's input activations,
which only the layer's own gathers read, and each layer's logit gradient
over its gate distribution. The input activations acts[0], the
coefficients and the scores keep what the forward wrote.

The readout scores each of the k contiguous groups of output neurons as
sum/tau + beta, so every output neuron's gradient is its group's score
gradient divided by tau. A group's sum adds its neurons in order for any
batch size, so a row scores the same bits alone as in any batch.
Activations are stored feature-major (width, batch) so gathers are row
slices. Everything runs in the net's dtype, the gate softmax included:
training builds float32 nets, the gradient checks float64 ones.

A :class:`ForwardCache` owns every array of a step: the activations, the
gate distributions, which ``backward`` returns as the gradients, and the
operand block and t2 | t1 buffers. The forward's arrays are views of one
allocation and the backward's scratch of another (``carve``).
``forward_relaxed(net, x, out=cache)`` overwrites a cache made by the same
net for the same batch shape and dtype instead of allocating a new one, so
a training loop that passes its last cache back allocates no (width, batch)
array per step, only a few (width, 8) or smaller temporaries. The gradients
``backward`` returns last until that next ``forward_relaxed`` on the cache.
A cache whose backward has run is spent: its activations are gradients, and
``backward`` refuses it until ``forward_relaxed`` refills it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import gates
from .model import LogicNet, gate_probs

# Bytes of one block of rows: the (rows, batch) forward and backward operands
# here and the (rows, 16) Adam scratch in ``training``. The forward keeps three
# such blocks live (a1, a2 and the activations it writes). One 8000 x 100
# float32 forward layer took 3.69 ms whole and 3.72, 2.95, 2.51, 2.77 and
# 3.11 ms in blocks of 250 to 4000 rows (100 KB to 1.6 MB) on a 2-core Xeon
# with 2 MB of L2 per core.
BLOCK_BYTES = 400 << 10


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes in one block: as many as fit in ``BLOCK_BYTES``, at least one."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


def carve(shapes, dtype, alloc=np.empty) -> list[np.ndarray]:
    """C-contiguous arrays of these shapes, cut one after another from one ``alloc`` call.

    Training's arrays come from a few such allocations, not one each. In
    the benchmark's repeated ``train`` set-ups at the mnist_small shape,
    glibc then kept its heap between runs instead of trimming and growing it
    again: 0 minor page faults per set-up after the second, against about
    9,600 with one allocation per array. numpy also advises huge pages for
    an allocation of 4 MB or more, which the activations' one is.
    """
    ends = np.cumsum([0, *(math.prod(s) for s in shapes)])
    buffer = alloc(int(ends[-1]), dtype)
    return [buffer[lo:hi].reshape(s) for lo, hi, s in zip(ends[:-1], ends[1:], shapes)]


@dataclass(eq=False)
class ForwardCache:
    """One forward call's results for ``backward``, plus the buffers both passes reuse.

    ``forward_relaxed(net, x, out=cache)`` overwrites every array here and
    makes the cache fresh. ``backward(net, cache, ...)`` overwrites
    ``acts[1:]`` with output gradients and ``probs`` with the logit
    gradients it returns, which therefore last until the next
    ``forward_relaxed`` on the cache, and marks the cache ``spent``. It
    leaves ``acts[0]``, ``mix`` and ``scores`` as they were. The activations
    and scores are full width, since ``backward`` reads them all; the
    forward operands in ``work`` are one block of neurons. All but ``work``
    are views of one allocation.
    """

    net: LogicNet
    acts: list[np.ndarray]  # (width, batch) per layer; acts[0] is the input
    probs: list[np.ndarray]  # (width, 16) gate distributions per gate layer
    mix: list[np.ndarray]  # (width, 4) collapsed bilinear coefficients
    scores: np.ndarray  # (batch, k)
    work: "_Work"
    spent: bool = False  # backward has overwritten acts[1:] and probs

    @classmethod
    def empty(cls, net: LogicNet, batch: int) -> "ForwardCache":
        widths = net.topology.layer_widths
        n = len(widths) - 1  # gate layers
        arrays = carve([(w, batch) for w in widths] + [(w, gates.NUM_GATES) for w in widths[1:]]
                       + [(w, 4) for w in widths[1:]] + [(batch, net.readout.k)], net.dtype)
        return cls(
            net=net,
            acts=arrays[: n + 1],
            probs=arrays[n + 1 : 2 * n + 1],
            mix=arrays[2 * n + 1 : 3 * n + 1],
            scores=arrays[-1],
            work=_Work(net, batch),
        )

    @staticmethod
    def nbytes(net: LogicNet, batch: int) -> int:
        """Bytes that ``empty(net, batch)`` allocates, before any ``backward``.

        Per row of the batch: every layer's activation, the k sums and scores,
        and the rows of the two operand blocks, which are full width only
        while a whole layer fits in one block. Per net: the gate
        distributions and coefficients, the wiring and the coefficient table.
        """
        widths, item = net.topology.layer_widths, net.dtype.itemsize
        gates_total = sum(widths[1:])
        block = _Work.rows_for(net, batch)
        per_row = item * (sum(widths) + 2 * block + net.readout.k * 2)
        per_net = gates_total * (item * (gates.NUM_GATES + 4) + 2 * np.dtype(np.intp).itemsize)
        return per_net + item * gates.COEFFS.size + batch * per_row

    def fits(self, net: LogicNet, batch: int) -> bool:
        """Whether a forward pass of ``net`` on ``batch`` rows can reuse this cache."""
        return self.net is net and self.acts[0].shape == (net.input_width, batch) and (
            self.acts[0].dtype == net.dtype
        )


class _Work:
    """Scratch shared by all layers of one cache.

    The forward operands ``a1`` and ``a2`` are one block of ``rows`` neurons
    each. The backward-only buffers are sized by the widest gate layer and
    are allocated by the first ``backward`` call, so a cache used only for
    inference never holds them: t2 | t1 (``halves``), the only
    (width, batch) one, and per-neuron (width, 16) or narrower scratch, all
    views of one allocation. The output and logit gradients need no buffer
    here, since ``backward`` writes them over the cache's activations and
    gate distributions.
    """

    def __init__(self, net: LogicNet, batch: int):
        widths, dtype = net.topology.layer_widths, net.dtype
        self.most, self.batch = max(widths[1:]), batch
        self.rows = self.rows_for(net, batch)
        self.sources = [np.ascontiguousarray(c.T, dtype=np.intp) for c in net.topology.connections]
        self.coeffs = gates.COEFFS.astype(dtype)
        self.a1 = np.empty((self.rows, batch), dtype)  # forward operands, one block
        self.a2 = np.empty((self.rows, batch), dtype)
        self.sums = np.empty((net.readout.k, batch), dtype)
        self.halves = None  # (2 * most, batch): t2 | t1

    @staticmethod
    def rows_for(net: LogicNet, batch: int) -> int:
        """Neurons per block at this batch, never more than the widest layer."""
        return min(max(net.topology.layer_widths[1:]), block_rows(batch * net.dtype.itemsize))

    def backward_buffers(self, net: LogicNet) -> None:
        if self.halves is not None:
            return
        widths, dtype = net.topology.layer_widths, net.dtype
        most, batch = self.most, self.batch
        # t2 | t1, dq, dp, dp * p and its row sums
        self.halves, self.dq, self.dp, self.weighted, self.rowsum = carve(
            [(2 * most, batch), (most, 4), (most, gates.NUM_GATES), (most, gates.NUM_GATES),
             (most, 1)], dtype)
        self.coeffs_t = np.ascontiguousarray(self.coeffs.T)
        self.scatter = [None] + [
            _Scatter(conn, prev, dtype)
            for conn, prev in zip(net.topology.connections[1:], widths[1:])
        ]


class _Scatter:
    """Routes one layer's input gradients back to the rows of the previous layer.

    da1 = q3*t2 + q1*d goes to each neuron's first source row and
    da2 = q3*t1 + q2*d to its second. Two CSR matrices of shape (prev, 2*width)
    and (prev, width) share one sparsity pattern: entry e < width is neuron e's
    first source, entry width+e its second, and each row lists its entries in
    ascending order. Their values are the q3 and the q1 | q2 of those entries,
    gathered from the layer's (width, 4) coefficients on every call, so one
    scatter-add of t2 | t1 and one of d give the previous layer's gradient
    without forming da1 and da2. The scatter-adds are scipy's CSR kernel
    ``csr_matvecs`` (see ``_csr_matvecs``), writing into the cache's
    activations of the previous layer, since ``csr_matrix @`` would allocate
    a new array each call.

    Entry e's place in the pattern is the rank of its unique key
    ``rows[e] * 2*width + e``, which orders the entries as a stable sort of
    ``rows`` does: 0.32 ms against 1.61 ms for 16,000 entries.
    """

    def __init__(self, conn: np.ndarray, prev: int, dtype):
        self.matvecs = _csr_matvecs()
        width = conn.shape[0]
        rows = np.concatenate([conn[:, 0], conn[:, 1]]).astype(np.int64)
        order = np.argsort(rows * len(rows) + np.arange(len(rows)))
        neuron, second = order % width, order >= width
        self.indptr = np.zeros(prev + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=prev), out=self.indptr[1:])
        self.halves_cols = order.astype(np.int32)
        self.d_cols = neuron.astype(np.int32)
        self.q3_at = 4 * neuron + 3  # flat indices into the (width, 4) coefficients
        self.q12_at = 4 * neuron + 1 + second
        self.halves_vals = np.empty(2 * width, dtype)
        self.d_vals = np.empty(2 * width, dtype)

    def __call__(self, q, halves, d, out) -> None:
        """out = S_halves @ halves + S_d @ d, for this layer's coefficients q."""
        prev, batch = out.shape
        np.take(q.ravel(), self.q3_at, out=self.halves_vals)
        np.take(q.ravel(), self.q12_at, out=self.d_vals)
        out.fill(0)
        self.matvecs(prev, halves.shape[0], batch, self.indptr, self.halves_cols,
                     self.halves_vals, halves.ravel(), out.ravel())
        self.matvecs(prev, d.shape[0], batch, self.indptr, self.d_cols,
                     self.d_vals, d.ravel(), out.ravel())


_SPARSETOOLS = "scipy.sparse._sparsetools"
_matvecs = None  # scipy's csr_matvecs, once loaded


def _sparsetools_file() -> str | None:
    """Path of scipy's ``sparse/_sparsetools`` extension, or None; imports nothing."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _csr_matvecs():
    """scipy's C kernel ``csr_matvecs``, loaded once per process by the first backward.

    ``from scipy.sparse import _sparsetools`` imports all of ``scipy.sparse``:
    after ``import gatenet.cli`` it took 0.23 s and 15.6 MB of peak RSS,
    against under 1 ms and 0.1 MB for the extension alone. So the extension
    file is loaded alone, and left out of ``sys.modules``, so that a later
    ``import scipy.sparse`` still sets up the package as usual. The kernel
    is the same either way; only when that file cannot be found, or the
    package is loaded already, is it taken from ``scipy.sparse``.
    """
    global _matvecs
    if _matvecs is None:
        path = None if _SPARSETOOLS in sys.modules else _sparsetools_file()
        if path is None:
            from scipy.sparse import _sparsetools
        else:
            loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, path)
            _sparsetools = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_SPARSETOOLS, loader))
            loader.exec_module(_sparsetools)
            sys.modules.pop(_SPARSETOOLS, None)  # where single-phase init put it
        _matvecs = _sparsetools.csr_matvecs
    return _matvecs


def forward_relaxed(net: LogicNet, x: np.ndarray, out: ForwardCache | None = None) -> ForwardCache:
    """Run the network on a sample-major batch x of shape (batch, input_width).

    Returns the cache holding all layer activations and (batch, k) scores. When
    ``out`` is a cache from an earlier call on this net with the same batch
    shape and dtype, it is overwritten and returned; otherwise a new cache is
    allocated.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != net.input_width:
        raise ValueError(f"input batch must be (batch, {net.input_width}), got {x.shape}")
    batch = x.shape[0]
    cache = out if out is not None and out.fits(net, batch) else ForwardCache.empty(net, batch)
    work = cache.work
    cache.spent = False
    np.copyto(cache.acts[0], x.T, casting="unsafe")
    for li, mat in enumerate(net.logits):
        prev, first, second = cache.acts[li], *work.sources[li]
        p = gate_probs(mat, net.gate_mask, out=cache.probs[li])
        q = np.matmul(p, work.coeffs, out=cache.mix[li])
        for lo in range(0, len(q), work.rows):
            block = slice(lo, lo + work.rows)
            act, qb = cache.acts[li + 1][block], q[block]
            a1, a2 = work.a1[: len(qb)], work.a2[: len(qb)]
            np.take(prev, first[block], axis=0, out=a1, mode="clip")
            np.take(prev, second[block], axis=0, out=a2, mode="clip")
            np.multiply(a2, qb[:, 3:4], out=act)
            act += qb[:, 1:2]
            act *= a1
            np.multiply(a2, qb[:, 2:3], out=a1)
            a1 += qb[:, 0:1]
            act += a1
    k = net.readout.k
    groups = cache.acts[-1].reshape(k, -1, batch)
    if batch == 1:  # np.sum adds one contiguous row pairwise; add it in order, as for more rows
        work.sums[:, 0] = np.cumsum(groups[:, :, 0], axis=1)[:, -1]
    else:
        np.sum(groups, axis=1, out=work.sums)
    np.divide(work.sums.T, net.readout.tau, out=cache.scores)
    cache.scores += net.readout.beta
    return cache


def backward(net: LogicNet, cache: ForwardCache, dscores: np.ndarray) -> list[np.ndarray]:
    """Gradient of the loss w.r.t. every logit, given d(loss)/d(scores).

    dscores is sample-major (batch, k), matching ForwardCache.scores. The
    gradients are written over the cache's gate distributions and returned
    as ``cache.probs``, and each layer's output gradient over its
    activations ``acts[1:]``, so they last until the next
    ``forward_relaxed`` on the cache. That marks the cache spent: a second
    ``backward`` on it raises until ``forward_relaxed`` refills it.
    """
    if cache.net is not net:
        raise ValueError("cache does not match this network (stale or from another net)")
    if cache.spent:
        raise ValueError("this cache's backward has run and overwrote its activations; "
                         "run forward_relaxed on it again first")
    dscores = np.asarray(dscores, dtype=net.dtype)
    if dscores.shape != cache.scores.shape:
        raise ValueError(f"dscores shape {dscores.shape} != scores shape {cache.scores.shape}")
    work = cache.work
    work.backward_buffers(net)
    cache.spent = True
    widths = net.topology.layer_widths
    batch, k = dscores.shape
    d = cache.acts[-1]
    np.divide(dscores.T[:, None, :], net.readout.tau, out=d.reshape(k, -1, batch))
    for li in range(len(net.logits) - 1, -1, -1):
        width = widths[li + 1]
        prev, first, second = cache.acts[li], *work.sources[li]
        p, q = cache.probs[li], cache.mix[li]
        halves = work.halves[: 2 * width]
        t2, t1 = halves[:width], halves[width:]
        for lo in range(0, width, work.rows):
            block = slice(lo, lo + work.rows)
            np.take(prev, second[block], axis=0, out=t2[block], mode="clip")
            t2[block] *= d[block]
            np.take(prev, first[block], axis=0, out=t1[block], mode="clip")
        dq = work.dq[:width]
        np.einsum("ij,ij->i", t2, t1, out=dq[:, 3])
        t1 *= d
        np.einsum("ij->i", d, out=dq[:, 0])
        np.einsum("ij->i", t1, out=dq[:, 1])
        np.einsum("ij->i", t2, out=dq[:, 2])
        dp = np.matmul(dq, work.coeffs_t, out=work.dp[:width])
        weighted = np.multiply(dp, p, out=work.weighted[:width])
        dp -= np.sum(weighted, axis=1, keepdims=True, out=work.rowsum[:width])
        np.multiply(p, dp, out=p)
        if li > 0:  # the gathers above were the last reads of prev
            work.scatter[li](q, halves, d, prev)
            d = prev
    return cache.probs
