"""The loss, the Adam optimizer, the training loop, and evaluation.

Training has one objective: each class group's summed outputs divided by
tau, plus beta, scored by softmax cross-entropy, in float32. It owns a
LogicNet's logits exclusively: forward, analytic backward, Adam step,
repeated over seeded mini-batch epochs. Everything is deterministic given
(seed, config, data) in single-threaded use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    ALL_GATES_MASK,
    Circuit,
    LogicNet,
    ReadoutConfig,
    build_topology,
    init_params,
    mask_to_bools,
)
from .relaxed import ForwardCache, backward, block_rows, carve, forward_relaxed


# Relaxed evaluation keeps each batch's ForwardCache within this many bytes;
# the batch size follows from the net's widths and dtype.
RELAXED_EVAL_BYTES = 64 << 20

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class NumericsError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


def cross_entropy_loss(scores: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the scores.

    Takes (batch, k) scores with (batch,) integer labels. The gradient is that
    of the returned (mean) loss, i.e. (softmax - one_hot) / batch.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = scores.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1, keepdims=True)
    logz = np.log(s[:, 0])
    loss = float((logz - shifted[np.arange(n), labels]).mean())
    grad = e / s
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


@dataclass
class TrainConfig:
    """Architecture plus optimizer settings for one training run."""

    layers: int = 2
    width: int = 16
    classes: int | None = None  # default: the dataset's class count
    tau: float = 1.0
    beta: float = 0.0
    learning_rate: float = 0.01
    batch_size: int = 100
    max_epochs: int = 200
    seed: int = 0
    eval_every: int = 1
    allowed_gates: int = ALL_GATES_MASK

    def __post_init__(self) -> None:
        if self.layers < 1 or self.width < 2:
            raise ValueError("need at least 1 gate layer of width >= 2")
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError("learning_rate must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        ReadoutConfig(k=1, tau=self.tau, beta=self.beta)  # rejects a bad tau or beta
        mask_to_bools(self.allowed_gates)


@dataclass
class AdamState:
    """Bias-corrected Adam moments, one pair of arrays per logit matrix.

    The moments of all matrices are views of one zeroed allocation
    (``relaxed.carve``). ``scratch`` is one (2, rows, 16) work array that
    every logit matrix shares: ``adam_step`` updates each matrix a block of
    ``rows`` rows at a time (``relaxed.block_rows``), so a step allocates no
    temporaries and its scratch stays within ``relaxed.BLOCK_BYTES`` however
    wide the net is. Its finiteness check reads each gradient's minimum and
    maximum, which allocates nothing. Every matrix must have the first one's
    dtype.
    """

    t: int
    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: np.ndarray

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        first = params[0]
        rows = min(max(len(p) for p in params), block_rows(first[:1].nbytes))
        moments = carve([p.shape for p in params] * 2, first.dtype, np.zeros)
        return cls(
            t=0,
            m=moments[: len(params)],
            v=moments[len(params) :],
            scratch=np.empty((2, rows) + first.shape[1:], first.dtype),
        )


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray], config: TrainConfig
) -> None:
    """One in-place Adam update. Refuses non-finite gradients with diagnostics."""
    if len(params) != len(grads) or any(p.shape != g.shape for p, g in zip(params, grads)):
        raise ValueError("parameter/gradient shape mismatch")
    for li, g in enumerate(grads):
        # a NaN anywhere makes min and max NaN, and an infinity is one of them
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):
            bad = int((~np.isfinite(g)).sum())
            raise NumericsError(f"non-finite gradient: layer {li}, {bad} of {g.size} entries")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    lr = config.learning_rate
    rows = state.scratch.shape[1]
    # p -= lr * (m / c1) / (sqrt(v / c2) + epsilon), one rounding step at a time
    for p_all, g_all, m_all, v_all in zip(params, grads, state.m, state.v):
        for lo in range(0, len(p_all), rows):
            block = slice(lo, lo + rows)
            p, g, m, v = p_all[block], g_all[block], m_all[block], v_all[block]
            step, denom = state.scratch[:, : len(p)]
            m *= b1
            m += np.multiply(g, 1 - b1, out=step)
            v *= b2
            np.multiply(g, g, out=step)
            step *= 1 - b2
            v += step
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPSILON
            np.divide(m, c1, out=step)
            step *= lr
            step /= denom
            p -= step


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # (k, k) counts, rows = true class
    count: int


@dataclass
class TrainResult:
    """The trained net (``final``), its history rows and its wall time in seconds."""

    final: LogicNet
    history: list[dict]
    seconds: float


def train(
    config: TrainConfig,
    train_ds,
    eval_ds=None,
    on_record: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Train a fresh network on ``train_ds``.

    ``eval_ds`` (optional) is evaluated every ``eval_every`` epochs. History
    rows carry (epoch, step, split, loss, accuracy); ``on_record`` sees each
    row as it is produced.

    The rows stay in the dataset's own dtype: each batch is cast into its
    ForwardCache's first activation, so the memory a run adds grows with the
    batch and the net, not with the dataset. The caches, one per batch
    length, and the Adam state are the only arrays kept between steps.
    """
    n_samples = len(train_ds.labels)
    if n_samples == 0:
        raise ValueError("training dataset is empty")
    k = config.classes if config.classes is not None else int(train_ds.class_count)
    if k < train_ds.class_count:
        raise ValueError(f"classes={k} is fewer than the dataset's {train_ds.class_count} classes")
    if config.width % k:
        raise ValueError(f"layer width {config.width} not divisible by {k} classes")
    widths = [int(train_ds.width)] + [config.width] * config.layers
    topo = build_topology(config.seed, widths)
    net = LogicNet(
        topo,
        init_params(topo, config.seed),
        ReadoutConfig(k=k, tau=config.tau, beta=config.beta),
        allowed_gates=config.allowed_gates,
    )
    x_all = np.asarray(train_ds.features)
    y_all = np.asarray(train_ds.labels, dtype=np.int64)
    state = AdamState.zeros_like(net.logits)
    shuffle_rng = np.random.default_rng([2, config.seed])
    history: list[dict] = []
    step = 0
    caches: dict = {}  # one ForwardCache per batch length, reused every step
    t0 = time.perf_counter()

    def record(row: dict) -> None:
        history.append(row)
        if on_record is not None:
            on_record(row)

    for epoch in range(config.max_epochs):
        perm = shuffle_rng.permutation(n_samples)
        for lo in range(0, n_samples, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            cache = caches[len(idx)] = forward_relaxed(
                net, x_all[idx], out=caches.get(len(idx))
            )
            loss, dscores = cross_entropy_loss(cache.scores, y_all[idx])
            if not np.isfinite(loss):
                raise NumericsError(f"non-finite loss {loss!r} at epoch {epoch} step {step}")
            grads = backward(net, cache, dscores)
            adam_step(state, net.logits, grads, config)
            step += 1
            record({"epoch": epoch, "step": step, "split": "train", "loss": loss})
        if eval_ds is not None and (epoch + 1) % config.eval_every == 0:
            acc = evaluate(net, eval_ds).accuracy
            record({"epoch": epoch, "step": step, "split": "eval", "accuracy": acc})
    return TrainResult(final=net, history=history, seconds=time.perf_counter() - t0)


def evaluate(model: LogicNet | Circuit, dataset) -> EvalResult:
    """Argmax classification accuracy plus a (true, predicted) confusion matrix.

    A LogicNet is scored in relaxed mode, in batches whose ForwardCache fits
    in ``RELAXED_EVAL_BYTES`` where one row allows; a Circuit runs packed
    Boolean inference with the popcount readout through ``circuit_scores``,
    which executes its pruned form. A model with fewer classes than the
    dataset is rejected.
    """
    if int(dataset.width) != model.input_width:
        raise ValueError(
            f"dataset width {dataset.width} != model input width {model.input_width}"
        )
    y = np.asarray(dataset.labels, dtype=np.int64)
    k = model.readout.k
    if k < dataset.class_count:
        raise ValueError(f"model's class count {k} is below the dataset's {dataset.class_count}")
    if isinstance(model, Circuit):
        from .packed import circuit_scores

        preds = circuit_scores(model, dataset.features).argmax(axis=1)
    else:
        per_net, per_row = ForwardCache.nbytes(model, 0), ForwardCache.nbytes(model, 1)
        rows = max(1, (RELAXED_EVAL_BYTES - per_net) // (per_row - per_net))
        preds = np.empty(len(y), dtype=np.int64)
        cache = None
        for lo in range(0, len(y), rows):
            xb = dataset.features[lo : lo + rows]
            if len(xb) < rows:
                cache = None  # free the full-size batch before the short last one
            cache = forward_relaxed(model, xb, out=cache)
            preds[lo : lo + len(xb)] = cache.scores.argmax(axis=1)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    accuracy = float((preds == y).mean()) if len(y) else 0.0
    return EvalResult(accuracy=accuracy, confusion=confusion, count=len(y))
