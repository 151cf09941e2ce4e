"""The benchmark's three workloads, each run through gatenet's public functions.

Every workload runs on one thread (``threads=1``) and follows one protocol:
set up several times (inputs, circuit or network, and the first, untimed
operation), time operations for the requested seconds in whole rounds, read
the peak RSS, then check the outputs against ``oracles`` outside the timed
region. gatenet functions are always called through their module
(``gatenet.packed.circuit_scores``), so that a traced run's wrappers see
every call.
"""

from __future__ import annotations

import math
import os
import resource
import time

import numpy as np

import gatenet.datasets
import gatenet.model
import gatenet.opt
import gatenet.packed
import gatenet.relaxed
import gatenet.training

import oracles
from spans import Tracer, median

# setup_s is the median of at least SETUPS set-ups that together take at
# least SETUP_SECONDS: set-up time drifts with the host's load, and a median
# over more set-ups drifts less.
SETUPS, SETUP_SECONDS = 5, 3.0

# infer_*: criterion 8's random 784 -> 6x8000, k=10 circuit on raw rows.
INPUTS, WIDTH, LAYERS, CLASSES = 784, 8000, 6, 10
CIRCUIT_SEED = int(np.random.default_rng(48).integers(2**31))
ROWS = 16384  # rows per operation
BATCHES = 4  # distinct batches; one round scores each once
ORACLE_ROWS = 16  # rows per batch checked against the truth-table interpreter

# train_mnist_small: the mnist_small preset shape on synthetic MNIST files.
MNIST_ROWS, MNIST_TEST_ROWS = 1000, 100  # 10 steps per epoch at batch 100
MNIST_CONFIG = dict(layers=6, width=8000, classes=10, tau=1 / 0.1, learning_rate=0.01,
                    batch_size=100)
FLIP = 0.1  # share of prototype bits flipped per row
CHECK_ROWS = 4  # rows in the forward and gradient checks
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class _Stop(Exception):
    """Raised from ``on_record`` to end a training run early."""


class Inference:
    """Raw 0/1 rows to class scores with ``circuit_scores``, one batch per operation."""

    samples_per_op = ROWS

    def __init__(self, name: str, seed: int, tracer: Tracer):
        self.name, self.seed, self.tracer = name, seed, tracer
        self.pruned = name == "infer_pruned"

    def setup(self) -> float:
        """Build inputs and circuit and run the first operation; returns its seconds."""
        self.batches = self.dense = self.circuit = self.first = None  # as in a fresh process
        start = time.perf_counter()
        rng = np.random.default_rng([seed_key(self.name), self.seed])
        self.batches = [np.unpackbits(rng.integers(0, 256, (ROWS, INPUTS // 8), dtype=np.uint8),
                                      axis=1) for _ in range(BATCHES)]
        topo = gatenet.model.build_topology(CIRCUIT_SEED, [INPUTS] + [WIDTH] * LAYERS)
        net = gatenet.model.LogicNet(topo, gatenet.model.init_params(topo, CIRCUIT_SEED),
                                     gatenet.model.ReadoutConfig(k=CLASSES))
        self.dense = gatenet.model.discretize(net)
        self.circuit = gatenet.opt.prune(self.dense) if self.pruned else self.dense
        self.first = gatenet.packed.circuit_scores(self.circuit, self.batches[0], threads=1)
        return time.perf_counter() - start

    def measure(self, seconds: float) -> dict[int, float]:
        """Score whole rounds of batches; returns each operation's seconds by id."""
        self.scores: dict[int, np.ndarray] = {}
        self.op_batch, self.op_ok, times = [], [], []
        group = self.circuit.group_size
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            for b, rows in enumerate(self.batches):
                self.tracer.op = len(times)
                t0 = time.perf_counter()
                scores = gatenet.packed.circuit_scores(self.circuit, rows, threads=1)
                times.append(time.perf_counter() - t0)
                ok = (scores.shape == (ROWS, CLASSES) and scores.min() >= 0
                      and scores.max() <= group)
                ok = ok and np.array_equal(self.scores.setdefault(b, scores), scores)
                self.op_batch.append(b)
                self.op_ok.append(bool(ok))
        return dict(enumerate(times))

    def check(self) -> list[str]:
        """Per-batch checks against the oracle and, when pruned, the unpruned circuit."""
        problems = []
        rng = np.random.default_rng([seed_key(self.name), self.seed, 1])
        picks = {b: rng.choice(ROWS, ORACLE_ROWS, replace=False) for b in self.scores}
        rows = np.concatenate([self.batches[b][picks[b]] for b in self.scores])
        want = oracles.class_counts(self.circuit, rows)
        for i, b in enumerate(self.scores):
            bad = []
            rows_b = slice(i * ORACLE_ROWS, (i + 1) * ORACLE_ROWS)
            if not np.array_equal(self.scores[b][picks[b]], want[rows_b]):
                bad.append("differs from the truth-table interpreter")
            if self.pruned:
                dense = gatenet.packed.circuit_scores(self.dense, self.batches[b], threads=1)
                if not np.array_equal(self.scores[b], dense):
                    bad.append("differs from the unpruned circuit")
            if b == 0 and not np.array_equal(self.first, self.scores[0]):
                bad.append("differs from the set-up operation")
            if bad:
                problems.append(f"batch {b}: " + ", ".join(bad))
                self.op_ok = [ok and ob != b for ok, ob in zip(self.op_ok, self.op_batch)]
        return problems

    def wrap(self, tracer: Tracer, memory: bool) -> None:
        p = gatenet.packed
        tracer.wrap(p, "pack", "packed.pack", memory)
        tracer.wrap(p, "execute_packed", "packed.execute", memory)
        tracer.wrap(p, "popcount_scores", "packed.readout", memory)
        if not memory:
            tracer.wrap(p, "circuit_scores", "packed.circuit_scores")
            tracer.wrap(gatenet.model, "discretize", "model.discretize")
            tracer.wrap(gatenet.opt, "prune", "opt.prune")

    def memory_probe(self) -> None:
        for rows in self.batches:
            gatenet.packed.circuit_scores(self.circuit, rows, threads=1)

    def layer_metrics(self, tracer: Tracer, setups: list[list[dict]], ops) -> dict:
        ms = 1e3
        lanes = -(-ROWS // 64)
        words = self.circuit.num_gates * lanes
        execute_s = median(tracer.durations("packed.execute", ops))
        # two source words read and one word written per gate; constants only write
        touched = np.where(np.isin(self.circuit.opcodes, (0, 15)), 1, 3).sum()
        return {
            "packed.pack_ms": median(tracer.durations("packed.pack", ops)) * ms,
            "packed.execute_ms": execute_s * ms,
            "packed.readout_ms": median(tracer.durations("packed.readout", ops)) * ms,
            "packed.scores_self_ms": median(tracer.self_times("packed.circuit_scores", ops)) * ms,
            "packed.execute_gate_words": words,
            "packed.execute_gate_words_per_s": words / execute_s,
            "packed.execute_bytes_computed": int(touched) * lanes * 8,
            "packed.first_execute_ms": median(first(s, "packed.execute") for s in setups) * ms,
            "model.discretize_s": median(first(s, "model.discretize") for s in setups),
            "opt.prune_s": median(first(s, "opt.prune") for s in setups) if self.pruned else 0.0,
            "opt.gates_after_prune": self.circuit.num_gates if self.pruned else 0,
            "packed.pack_alloc_peak_mb": median(tracer.alloc_peaks["packed.pack"]),
            "packed.execute_alloc_peak_mb": median(tracer.alloc_peaks["packed.execute"]),
            "packed.readout_alloc_peak_mb": median(tracer.alloc_peaks["packed.readout"]),
        }


class Training:
    """``training.train`` at the mnist_small shape, one optimizer step per operation.

    Steps are timed between ``on_record`` callbacks. The rows are ten random
    binary prototypes with ``FLIP`` of their bits flipped, written once per
    run as MNIST IDX files (bit 1 as a pixel above mid-grey) and read back
    through ``datasets.load_dataset`` in every set-up.
    """

    samples_per_op = MNIST_CONFIG["batch_size"]

    def __init__(self, name: str, seed: int, tracer: Tracer):
        self.name, self.seed, self.tracer = name, seed, tracer
        self.op_base = 0
        self.op_samples = []  # one operation's seconds after each set-up, to size a run
        self.data_dir = os.path.join(OUT, f"mnist-seed{seed}")
        rng = np.random.default_rng([seed_key(name), seed])
        self.rows, self.labels = {}, {}
        for split, n in (("train", MNIST_ROWS), ("t10k", MNIST_TEST_ROWS)):
            prototypes = rng.integers(0, 2, (CLASSES, INPUTS), dtype=np.uint8)
            labels = (rng.permutation(n) % CLASSES).astype(np.uint8)
            flips = (rng.random((n, INPUTS)) < FLIP).astype(np.uint8)
            self.rows[split], self.labels[split] = prototypes[labels] ^ flips, labels
            dark = rng.integers(0, 128, (n, INPUTS), dtype=np.uint8)
            pixels = np.where(self.rows[split] == 1, dark + 128, dark).astype(np.uint8)
            _write_idx(os.path.join(self.data_dir, f"{split}-images-idx3-ubyte"),
                       pixels.reshape(n, 28, 28))
            _write_idx(os.path.join(self.data_dir, f"{split}-labels-idx1-ubyte"), labels)

    def _config(self, epochs: int):
        return gatenet.training.TrainConfig(**MNIST_CONFIG, max_epochs=epochs, seed=self.seed)

    def _train(self, config, stop_after: int | None = None):
        """Run ``train``; returns (the end time of each step, result or None when stopped).

        Spans get operation ids ``op_base``, ``op_base + 1``, ... ; the first
        step of every training run builds the net and is set-up.
        """
        stamps, base = [], self.op_base

        def on_record(row):
            stamps.append(time.perf_counter())
            self.tracer.op = base + row["step"]
            if row["step"] == stop_after:
                raise _Stop

        self.tracer.op = base
        try:
            result = gatenet.training.train(config, self.train_ds, on_record=on_record)
        except _Stop:
            result = None
        self.op_base = base + len(stamps) + 1
        return stamps, result

    def setup(self) -> float:
        """Load the data and train up to one step past the first; returns set-up seconds."""
        self.train_ds = None  # as in a fresh process
        start = time.perf_counter()
        self.train_ds, _ = gatenet.datasets.load_dataset("mnist", self.data_dir)
        ends, _ = self._train(self._config(1), stop_after=2)
        self.op_samples.append(ends[1] - ends[0])
        return ends[0] - start

    def measure(self, seconds: float) -> dict[int, float]:
        """One training run of as many whole epochs as fill ``seconds``."""
        steps = seconds / median(self.op_samples) + 1
        config = self._config(math.ceil(steps * MNIST_CONFIG["batch_size"] / MNIST_ROWS))
        base = self.op_base
        ends, self.result = self._train(config)
        self.timed_ops = dict(zip(range(base + 1, base + len(ends)), np.diff(ends).tolist()))
        self.op_ok = [True] * len(self.timed_ops)
        return self.timed_ops

    def check(self) -> list[str]:
        problems = self._check_data() + self._check_forward() + self._check_gradient()
        if problems:
            self.op_ok = [False] * len(self.op_ok)
        return problems

    def _check_data(self) -> list[str]:
        ds = self.train_ds
        if np.array_equal(ds.features, self.rows["train"]) and np.array_equal(
                ds.labels, self.labels["train"]):
            return []
        return ["load_dataset did not return the rows and labels written"]

    def _check_forward(self) -> list[str]:
        """float32 ``forward_relaxed`` against the float64 multilinear oracle."""
        net = self.result.final
        x = self.rows["train"][:CHECK_ROWS]
        got = gatenet.relaxed.forward_relaxed(net, x).scores
        want = oracles.relaxed_scores(net.topology.connections, net.logits, net.readout.k,
                                      net.readout.tau, net.readout.beta, x)
        # float32 rounding of each activation, summed over a group and scaled by 1/tau
        group = net.topology.output_width // net.readout.k
        tol = 64 * np.finfo(np.float32).eps * group / net.readout.tau
        err = float(np.abs(got - want).max())
        return [] if err <= tol else [f"forward scores off by {err:.3g} > {tol:.3g}"]

    def _check_gradient(self) -> list[str]:
        """``backward`` on a float64 copy against a central difference of the oracle loss."""
        net = self.result.final
        net64 = gatenet.model.LogicNet(net.topology, [z.astype(np.float64) for z in net.logits],
                                       net.readout, net.allowed_gates)
        x = self.rows["train"][:CHECK_ROWS]
        y = self.labels["train"][:CHECK_ROWS].astype(np.int64)
        r = net.readout

        def loss(logits):
            return oracles.cross_entropy(oracles.relaxed_scores(
                net.topology.connections, logits, r.k, r.tau, r.beta, x), y)

        cache = gatenet.relaxed.forward_relaxed(net64, x)
        grads = gatenet.relaxed.backward(net64, cache, oracles.cross_entropy_grad(cache.scores, y))
        ok, worst, pairs = oracles.gradient_agrees(grads, net64.logits, loss, self.seed)
        return [] if ok else [f"backward off a central difference by {worst:.3g}: {pairs}"]

    def wrap(self, tracer: Tracer, memory: bool) -> None:
        t = gatenet.training
        tracer.wrap(t, "forward_relaxed", "relaxed.forward", memory)
        tracer.wrap(t, "backward", "relaxed.backward", memory)
        if not memory:
            tracer.wrap(t, "cross_entropy_loss", "training.loss")
            tracer.wrap(t, "adam_step", "training.adam")
            tracer.wrap(t, "train", "training.train")
            tracer.wrap(gatenet.datasets, "load_dataset", "datasets.load")

    def memory_probe(self) -> None:
        self._train(self._config(1), stop_after=3)

    def layer_metrics(self, tracer: Tracer, setups: list[list[dict]], ops) -> dict:
        ms = 1e3
        covered = tracer.per_op_sum(
            {"relaxed.forward", "relaxed.backward", "training.loss", "training.adam"}, ops)
        return {
            "relaxed.forward_ms": median(tracer.durations("relaxed.forward", ops)) * ms,
            "relaxed.backward_ms": median(tracer.durations("relaxed.backward", ops)) * ms,
            "training.loss_ms": median(tracer.durations("training.loss", ops)) * ms,
            "training.adam_ms": median(tracer.durations("training.adam", ops)) * ms,
            "training.step_self_ms": median(self.timed_ops[o] - covered[o] for o in ops) * ms,
            "relaxed.first_backward_ms": median(first(s, "relaxed.backward") for s in setups) * ms,
            "datasets.load_s": median(first(s, "datasets.load") for s in setups),
            "relaxed.forward_alloc_peak_mb": median(tracer.alloc_peaks["relaxed.forward"]),
            "relaxed.backward_alloc_peak_mb": median(tracer.alloc_peaks["relaxed.backward"]),
        }


def _write_idx(path: str, array: np.ndarray) -> None:
    """Write a uint8 array in the IDX format of the MNIST files."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    header = bytes([0, 0, 8, array.ndim]) + b"".join(d.to_bytes(4, "big") for d in array.shape)
    with open(path, "wb") as fh:
        fh.write(header + array.tobytes())


def seed_key(name: str) -> int:
    """A per-workload constant mixed into the seed, so workloads draw different inputs."""
    return sum(name.encode())


def first(spans: list[dict], name: str) -> float:
    return next(s["end"] - s["start"] for s in spans if s["name"] == name)


WORKLOADS = {"infer_dense": Inference, "infer_pruned": Inference, "train_mnist_small": Training}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
