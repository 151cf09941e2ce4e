"""Acceptance gate: every shipped guarantee, one [PASS]/[FAIL] line each.

The lines print straight to the terminal (bypassing capture) so a plain
``pytest -v`` run shows the verdicts inline. Criteria that need datasets
which cannot be bundled (Adult, Breast Cancer, MNIST) skip loudly when the
files are absent and say exactly what to place in the data directory; the
structural criteria that only need a 48000-gate circuit of the MNIST shape
run on a random circuit of identical dimensions instead, which exercises
the same code paths and costs. The full-length MNIST training run
additionally requires GATENET_FULL_MNIST=1 (hours of CPU).
"""

import os
import shutil
import time

import numpy as np
import pytest

from conftest import (
    adder_counts,
    check_equivalence,
    eval_hard,
    eval_relaxed,
    oracle_circuit_counts,
    oracle_circuit_outputs,
    random_layered_circuit,
    random_small_net,
    unpack,
)
from gatenet.datasets import load_dataset, resolve_data_dir
from gatenet.emit import compile_and_load
from gatenet.model import discretize
from gatenet.opt import op_histogram, prune
from gatenet.packed import (
    benchmark,
    build_adder_aggregation,
    circuit_scores,
    execute_packed,
    pack,
    popcount_scores,
)
from gatenet.presets import get_preset, train_config
from gatenet.relaxed import backward, forward_relaxed
from gatenet.training import evaluate, train

DATA_DIR = resolve_data_dir(None)
SEEDS = (0, 1, 2)


@pytest.fixture
def report(capsys):
    def _report(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2} ({name}): {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _skip(capsys, num: int, name: str, reason: str):
    with capsys.disabled():
        print(f"[SKIP] criterion {num:>2} ({name}): {reason}", flush=True)
    pytest.skip(reason)


def _find(*names: str) -> str | None:
    for name in names:
        for cand in (name, name + ".gz"):
            path = os.path.join(DATA_DIR, cand)
            if os.path.exists(path):
                return path
    return None


def _missing_adult_bc() -> list[str]:
    missing = []
    if _find("adult.data") is None:
        missing.append("adult.data")
    if _find("adult.test") is None:
        missing.append("adult.test")
    if _find("breast-cancer.data") is None:
        missing.append("breast-cancer.data")
    return missing


def _missing_mnist() -> list[str]:
    pairs = (
        ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
        ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
        ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
        ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
    )
    return [names[0] for names in pairs if _find(*names) is None]


def _cpu_frequency() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("cpu mhz"):
                    return f"{float(line.split(':', 1)[1]) / 1000:.2f} GHz"
    except (OSError, ValueError):
        pass
    return "frequency unknown"


def _train_preset(name: str, seed: int, epochs: int | None = None):
    p = get_preset(name)
    train_ds, test_ds = load_dataset(p["dataset"], DATA_DIR, seed=seed)
    config = train_config({**p, "seed": seed, "epochs": p["epochs"] if epochs is None else epochs})
    net = train(config, train_ds).final
    return net, test_ds


@pytest.fixture(scope="module")
def monk_runs():
    """All nine MONK runs (3 presets x 3 seeds): (mean, accs, seed-0 net)."""
    results = {}
    for name in ("monk1", "monk2", "monk3"):
        accs, first_net = [], None
        for seed in SEEDS:
            net, test_ds = _train_preset(name, seed)
            if first_net is None:
                first_net = net
            accs.append(evaluate(discretize(net), test_ds).accuracy)
        results[name] = (float(np.mean(accs)), accs, first_net)
    return results


@pytest.fixture(scope="module")
def big_circuit():
    """A 48000-gate circuit with the MNIST-small shape (784 in, 6x8000, k=10)."""
    rng = np.random.default_rng(48)
    return random_layered_circuit(rng, 784, [8000] * 6, 10)


_MNIST_CACHE: dict = {}


def _mnist_reduced_run():
    """Train the MNIST-small preset for 20 epochs once; cache the results."""
    if "reduced" not in _MNIST_CACHE:
        net, test_ds = _train_preset("mnist_small", seed=0, epochs=20)
        relaxed = evaluate(net, test_ds).accuracy
        circuit = discretize(net)
        disc = evaluate(circuit, test_ds).accuracy
        _MNIST_CACHE["reduced"] = (relaxed, disc, circuit, test_ds)
    return _MNIST_CACHE["reduced"]


def test_criterion_01_gate_semantics(report):
    rng = np.random.default_rng(1)
    for g in range(16):
        for a in (0, 1):
            for b in (0, 1):
                expect = (g >> (3 - (2 * a + b))) & 1  # truth-table encoding
                assert eval_relaxed(g, float(a), float(b)) == float(expect)
                assert eval_hard(g, a, b) == expect
    pts = rng.uniform(0.0, 1.0, size=(100_000, 2))
    lo, hi = 1.0, 0.0
    for g in range(16):
        vals = eval_relaxed(g, pts[:, 0], pts[:, 1])
        lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
        assert vals.min() >= 0.0 and vals.max() <= 1.0
    report(1, "gate semantics", True,
           f"16 gates exact at all 4 corners; 100000 random points stay in "
           f"[0,1] (observed range [{lo:.3f}, {hi:.3f}])")


def test_criterion_02_gradient_correctness(report):
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-5
    for _ in range(100):
        net = random_small_net(rng)  # <= 3 layers, <= 16 wide, float64
        x = rng.uniform(0.05, 0.95, size=(4, net.input_width))
        c = rng.standard_normal((4, net.readout.k))

        def loss() -> float:
            return float((forward_relaxed(net, x).scores * c).sum())

        grads = backward(net, forward_relaxed(net, x), c)
        for li in range(len(net.logits)):
            rows = rng.integers(net.logits[li].shape[0], size=3)
            cols = rng.integers(16, size=3)
            for r, col in zip(rows, cols):
                net.logits[li][r, col] += h
                up = loss()
                net.logits[li][r, col] -= 2 * h
                down = loss()
                net.logits[li][r, col] += h
                fd = (up - down) / (2 * h)
                g = float(grads[li][r, col])
                rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
                worst = max(worst, rel)
    seconds = time.perf_counter() - t0
    report(2, "gradient correctness", worst < 1e-4 and seconds < 60,
           f"100 random nets: max relative error {worst:.2e} < 1e-4 "
           f"(central differences, h={h}); {seconds:.1f}s < 60s")


def test_criterion_03_packed_execution_oracle(report):
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    for i in range(50):
        input_width = int(rng.integers(4, 33))
        depth = int(rng.integers(1, 7))
        width = int(rng.integers(2, 513))
        divisors = [d for d in range(1, min(width, 16) + 1) if width % d == 0]
        k = int(rng.choice(divisors))
        circuit = random_layered_circuit(rng, input_width, [width] * depth, k)
        samples = rng.integers(0, 2, size=(1024, input_width), dtype=np.uint8)

        outputs = execute_packed(circuit, pack(samples))
        got = unpack(outputs)[: len(samples)]
        assert np.array_equal(got, oracle_circuit_outputs(circuit, samples)), i

        pop = popcount_scores(outputs, circuit.readout.k)[: len(samples)]
        assert np.array_equal(adder_counts(circuit, samples), pop), i
        assert np.array_equal(pop, oracle_circuit_counts(circuit, samples)), i
    seconds = time.perf_counter() - t0
    report(3, "packed execution oracle", seconds < 120,
           f"50 random circuits (up to 6x512) x 1024 samples: packed output "
           f"bits match the scalar interpreter bit-for-bit and adder "
           f"aggregation equals popcount; {seconds:.1f}s < 120s")


def test_criterion_04_monk_reproduction(report, monk_runs):
    floors = {"monk1": 0.97, "monk2": 0.80, "monk3": 0.95}
    ok = all(monk_runs[t][0] >= floors[t] for t in floors)
    detail = "; ".join(
        f"{t} mean {monk_runs[t][0]:.4f} (floor {floors[t]:.2f}, "
        f"seeds {'/'.join(f'{a:.3f}' for a in monk_runs[t][1])})"
        for t in ("monk1", "monk2", "monk3")
    )
    report(4, "MONK reproduction", ok, detail + " — discretized test accuracy, 3 seeds")


def test_criterion_05_adult_breast_cancer(report, capsys):
    missing = _missing_adult_bc()
    if missing:
        _skip(capsys, 5, "Adult / Breast Cancer",
              f"dataset files missing from {DATA_DIR!r}: {', '.join(missing)} "
              "— place the UCI census-income files (adult.data, adult.test) and "
              "the breast-cancer.data file there to run this criterion")
    t0 = time.perf_counter()
    means = {}
    for name, floor in (("adult", 0.84), ("breast_cancer", 0.73)):
        accs = []
        for seed in SEEDS:
            net, test_ds = _train_preset(name, seed)
            accs.append(evaluate(discretize(net), test_ds).accuracy)
        means[name] = (float(np.mean(accs)), floor, accs)
    seconds = time.perf_counter() - t0
    ok = all(m >= floor for m, floor, _ in means.values()) and seconds < 1800
    detail = "; ".join(
        f"{n} mean {m:.4f} (floor {floor:.2f})" for n, (m, floor, _) in means.items()
    )
    report(5, "Adult / Breast Cancer", ok, f"{detail}; {seconds/60:.1f} min < 30 min")


def test_criterion_06_mnist_small(report, capsys):
    missing = _missing_mnist()
    if missing:
        _skip(capsys, 6, "MNIST-small",
              f"MNIST IDX files missing from {DATA_DIR!r}: {', '.join(missing)} "
              "— place the four idx-ubyte files (optionally .gz) there to run "
              "the reduced 20-epoch criterion; set GATENET_FULL_MNIST=1 for the "
              "full 200-epoch run as well")
    relaxed, disc, _, _ = _mnist_reduced_run()
    parts = [f"reduced 20-epoch run: discretized {disc:.4f} >= 0.96"]
    ok = disc >= 0.96
    if os.environ.get("GATENET_FULL_MNIST") == "1":
        net, test_ds = _train_preset("mnist_small", seed=0)
        full_disc = evaluate(discretize(net), test_ds).accuracy
        _MNIST_CACHE["full"] = (evaluate(net, test_ds).accuracy, full_disc)
        ok = ok and full_disc >= 0.97
        parts.append(f"full 200-epoch run: discretized {full_disc:.4f} >= 0.97")
    else:
        parts.append("full 200-epoch leg skipped (set GATENET_FULL_MNIST=1; hours of CPU)")
    report(6, "MNIST-small", ok, "; ".join(parts))


def test_criterion_07_discretization_gap(report, capsys):
    if _missing_mnist():
        _skip(capsys, 7, "discretization gap",
              "needs the trained MNIST-small model; same files as criterion 6")
    if "full" in _MNIST_CACHE:
        relaxed, disc = _MNIST_CACHE["full"]
        label = "full run"
    else:
        relaxed, disc, _, _ = _mnist_reduced_run()
        label = "reduced run"
    gap = abs(relaxed - disc)
    report(7, "discretization gap", gap < 0.005,
           f"{label}: |relaxed {relaxed:.4f} - discretized {disc:.4f}| = "
           f"{gap:.4f} < 0.005")


def test_criterion_08_throughput(report, big_circuit):
    if not _missing_mnist() and "reduced" in _MNIST_CACHE:
        circuit, origin = _MNIST_CACHE["reduced"][2], "trained MNIST-small circuit"
    else:
        circuit, origin = big_circuit, "random circuit of MNIST-small shape (no MNIST files)"
    rng = np.random.default_rng(88)
    rows = rng.integers(0, 2, size=(16384, circuit.input_width), dtype=np.uint8)
    result = benchmark(circuit, rows, repetitions=5)
    rate = result["samples_per_sec"]
    cpu = result["cpu"]
    report(8, "throughput", rate >= 1e5,
           f"{origin}: {rate:,.0f} samples/s single thread >= 100,000 "
           f"({circuit.num_gates} gates; {cpu}; {_cpu_frequency()})")


def test_criterion_09_prune_and_emission_safety(report, big_circuit, capsys):
    rng = np.random.default_rng(9)
    # exhaustive equivalence up to the 20-input boundary
    tested = []
    for input_width in (6, 12, 20):
        circuit = random_layered_circuit(rng, input_width, [24, 24], 3)
        rep = check_equivalence(circuit, prune(circuit), mode="exhaustive")
        assert rep.equivalent and rep.tested == 2**input_width, input_width
        tested.append(rep.tested)
    # MNIST-scale circuit: sampled equivalence plus compiled-vs-interpreter
    if not _missing_mnist() and "reduced" in _MNIST_CACHE:
        circuit, origin = _MNIST_CACHE["reduced"][2], "trained MNIST-small circuit"
        inputs = load_dataset("mnist", DATA_DIR)[1].features
    else:
        circuit, origin = big_circuit, "random 48000-gate stand-in (no MNIST files)"
        inputs = rng.integers(0, 2, size=(10_000, 784), dtype=np.uint8)
    pruned = prune(circuit)
    rep = check_equivalence(circuit, pruned, mode="sampled", samples=10_000, seed=9)
    assert rep.equivalent and rep.tested == 10_000
    if circuit is big_circuit:
        # the counters the kernel runs count the fold's padded outputs once
        added = build_adder_aggregation(pruned).num_gates - pruned.num_gates
        assert added <= 20_484, added
    if shutil.which("cc") or shutil.which("gcc"):
        lib = compile_and_load(pruned)
        mismatches = int((lib.scores(inputs) != circuit_scores(pruned, inputs)).sum())
        compiled_note = f"compiled C matches interpreter on {len(inputs)} samples, {mismatches} mismatches"
        ok = mismatches == 0
    else:
        compiled_note = "no C compiler found: compiled leg not run"
        ok = False
    report(9, "prune and emission safety", ok,
           f"prune equivalence exhaustive at widths 6/12/20 "
           f"({'/'.join(map(str, tested))} assignments) and on 10000 random "
           f"inputs for the {origin} ({circuit.num_gates} -> {pruned.num_gates} "
           f"gates); {compiled_note}")


def test_criterion_10_histogram_diagnostics(report, monk_runs, big_circuit):
    nets = {"monk1 (trained)": discretize(monk_runs["monk1"][2]), "48000-gate": big_circuit}
    notes = []
    for label, circuit in nets.items():
        stats = op_histogram(circuit)
        assert stats.per_layer.shape == (len(stats.layer_sizes), 16)
        assert tuple(stats.per_layer.sum(axis=1)) == stats.layer_sizes
        last_const = int(stats.per_layer[-1, 0] + stats.per_layer[-1, 15])
        notes.append(f"{label}: last-layer constant gates {last_const} (reported, not asserted)")
    report(10, "histogram diagnostics", True,
           "rows sum to layer widths on both models; " + "; ".join(notes))
