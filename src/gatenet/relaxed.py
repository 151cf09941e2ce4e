"""Relaxed (differentiable) execution of a gate network, forward and backward.

Every relaxed gate is bilinear, f_i(a, b) = c0 + c1*a + c2*b + c3*a*b, so a
neuron's softmax mixture over all 16 gates collapses to a single bilinear
form whose coefficients are q = p @ C (C the 16x4 coefficient table, p the
neuron's gate distribution). The batch pass is then four fused
multiply-adds per neuron instead of sixteen gate evaluations; the backward
pass reuses the same algebra:

    dq = [sum(d), sum(d*a1), sum(d*a2), sum(d*a1*a2)]   (per neuron, over batch)
    dp = dq @ C.T                                        (chain into the mixture)
    dw = p * (dp - <dp, p>)                              (softmax Jacobian)
    da1 = d * (q1 + q3*a2),  da2 = d * (q2 + q3*a1)      (into the inputs)

The readout scores each of the k contiguous groups of output neurons as
sum/tau + beta, so every output neuron's gradient is its group's score
gradient divided by tau. Gradients flowing to a previous layer scatter-add
through a sparse matrix built once from the wiring. Activations are stored
feature-major (width, batch) so gathers are row slices. The passes run in the
net's dtype: training builds float32 nets, the gradient checks float64 ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import gates
from .model import LogicNet, ReadoutConfig, gate_probs


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward call."""

    acts: list[np.ndarray]  # (width, batch) per layer; acts[0] is the input
    probs: list[np.ndarray]  # (width, 16) gate distributions per gate layer
    mix: list[np.ndarray]  # (width, 4) collapsed bilinear coefficients
    scores: np.ndarray  # (batch, k)


def group_sum(outputs: np.ndarray, readout: ReadoutConfig) -> np.ndarray:
    """Class scores from output activations (features on the last axis).

    scores_i = (sum over group i)/tau + beta, groups being k contiguous blocks.
    """
    outputs = np.asarray(outputs)
    n = outputs.shape[-1]
    if n % readout.k:
        raise ValueError(f"output width {n} not divisible by k={readout.k}")
    sums = outputs.reshape(outputs.shape[:-1] + (readout.k, n // readout.k)).sum(axis=-1)
    return sums / readout.tau + readout.beta


def neuron_forward(logits: np.ndarray, a1, a2, allowed: np.ndarray | None = None):
    """Single neuron: softmax(logits)-weighted mixture of all 16 gates at (a1, a2)."""
    p = gate_probs(logits, allowed)
    q = p @ gates.COEFFS
    return q[..., 0] + q[..., 1] * a1 + q[..., 2] * a2 + q[..., 3] * (a1 * a2)


def forward_relaxed(net: LogicNet, x: np.ndarray) -> ForwardCache:
    """Run the network on a sample-major batch x of shape (batch, input_width).

    Returns the cache holding all layer activations and (batch, k) scores.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != net.input_width:
        raise ValueError(f"input batch must be (batch, {net.input_width}), got {x.shape}")
    dtype = net.dtype
    coeffs = gates.COEFFS.astype(dtype)
    acts = [np.ascontiguousarray(x.T, dtype=dtype)]
    probs, mix = [], []
    for li, mat in enumerate(net.logits):
        conn = net.topology.connections[li]
        prev = acts[-1]
        a1, a2 = prev[conn[:, 0]], prev[conn[:, 1]]
        p = gate_probs(mat, net.gate_mask).astype(dtype)
        q = p @ coeffs
        out = q[:, 3:4] * (a1 * a2)
        out += q[:, 1:2] * a1
        out += q[:, 2:3] * a2
        out += q[:, 0:1]
        acts.append(out)
        probs.append(p)
        mix.append(q)
    k = net.readout.k
    sums = acts[-1].reshape(k, net.topology.output_width // k, -1).sum(axis=1).T
    scores = sums / net.readout.tau + net.readout.beta
    return ForwardCache(acts=acts, probs=probs, mix=mix, scores=scores)


def _scatter_mats(net: LogicNet) -> list[sp.csr_matrix]:
    """Per layer, the (prev_width, 2*width) matrix routing input-gradient rows.

    Column j (resp. width+j) carries neuron j's gradient into its first
    (resp. second) source row. Built once per net and cached on the instance.
    """
    cache = getattr(net, "_scatter_mats", None)
    if cache is not None:
        return cache
    mats = []
    widths = net.topology.layer_widths
    for li, conn in enumerate(net.topology.connections):
        w = conn.shape[0]
        rows = np.concatenate([conn[:, 0], conn[:, 1]])
        cols = np.arange(2 * w)
        data = np.ones(2 * w, dtype=net.dtype)
        mats.append(sp.csr_matrix((data, (rows, cols)), shape=(widths[li], 2 * w)))
    net._scatter_mats = mats
    return mats


def backward(net: LogicNet, cache: ForwardCache, dscores: np.ndarray) -> list[np.ndarray]:
    """Gradient of the loss w.r.t. every logit, given d(loss)/d(scores).

    dscores is sample-major (batch, k), matching ForwardCache.scores.
    """
    if len(cache.acts) != net.topology.num_gate_layers + 1 or len(cache.probs) != len(
        net.logits
    ):
        raise ValueError("cache does not match this network (stale or from another net)")
    dscores = np.asarray(dscores, dtype=net.dtype)
    if dscores.shape != cache.scores.shape:
        raise ValueError(f"dscores shape {dscores.shape} != scores shape {cache.scores.shape}")
    group = net.topology.output_width // net.readout.k
    d = np.repeat(dscores.T / net.readout.tau, group, axis=0)  # (output width, batch)
    scatters = _scatter_mats(net)
    coeffs_t = gates.COEFFS.T.astype(net.dtype)
    grads: list[np.ndarray] = [None] * len(net.logits)  # type: ignore[list-item]
    for li in range(len(net.logits) - 1, -1, -1):
        conn = net.topology.connections[li]
        prev = cache.acts[li]
        a1, a2 = prev[conn[:, 0]], prev[conn[:, 1]]
        p, q = cache.probs[li], cache.mix[li]
        dq = np.stack(
            [
                d.sum(axis=1),
                (d * a1).sum(axis=1),
                (d * a2).sum(axis=1),
                (d * (a1 * a2)).sum(axis=1),
            ],
            axis=1,
        )
        dp = dq @ coeffs_t
        grads[li] = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        if li > 0:
            da1 = d * (q[:, 1:2] + q[:, 3:4] * a2)
            da2 = d * (q[:, 2:3] + q[:, 3:4] * a1)
            d = scatters[li] @ np.vstack([da1, da2])
    return grads
