"""Run one gatenet benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload infer_dense --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics: the run times half its
operations untraced and half with spans around gatenet's functions, then a
few more under tracemalloc, and writes every span to
``bench/out/trace-<workload>-seed<seed>.json``. The package is imported
from ``src/`` next to this directory, never from an installed copy. The
exit code is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import os

# One thread: BLAS would otherwise spread matrix products over every core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import tracemalloc

from spans import Tracer, median

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "packed.pack_ms": "ms",
    "packed.execute_ms": "ms",
    "packed.readout_ms": "ms",
    "packed.scores_self_ms": "ms",
    "packed.execute_gate_words": "count",
    "packed.execute_gate_words_per_s": "1/s",
    "packed.execute_bytes_computed": "bytes",
    "packed.first_execute_ms": "ms",
    "model.discretize_s": "s",
    "opt.prune_s": "s",
    "opt.gates_after_prune": "count",
    "packed.pack_alloc_peak_mb": "MB",
    "packed.execute_alloc_peak_mb": "MB",
    "packed.readout_alloc_peak_mb": "MB",
    "relaxed.forward_ms": "ms",
    "relaxed.backward_ms": "ms",
    "training.loss_ms": "ms",
    "training.adam_ms": "ms",
    "training.step_self_ms": "ms",
    "relaxed.first_backward_ms": "ms",
    "datasets.load_s": "s",
    "relaxed.forward_alloc_peak_mb": "MB",
    "relaxed.backward_alloc_peak_mb": "MB",
    "trace.samples_per_s": "1/s",
    "trace.untraced_samples_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("infer_dense", "infer_pruned", "train_mnist_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "gatenet", "__init__.py")):
        print(f"error: no gatenet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports gatenet from SRC

    if not os.path.abspath(workloads.gatenet.__file__).startswith(SRC + os.sep):
        print(f"error: gatenet was imported from {workloads.gatenet.__file__}", file=sys.stderr)
        return 2
    result = run(workloads, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(workloads, name: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    w = workloads.WORKLOADS[name](name, seed, tracer)
    if trace:
        w.wrap(tracer, memory=False)
    setup_times, setup_spans = [], []
    while len(setup_times) < workloads.SETUPS or sum(setup_times) < workloads.SETUP_SECONDS:
        tracer.op = None
        mark = len(tracer.spans)
        setup_times.append(w.setup())
        setup_spans.append(tracer.spans[mark:])
    tracer.restore()
    if trace:
        untraced = w.measure(seconds / 2)
        w.wrap(tracer, memory=False)
        ops = w.measure(seconds / 2)
        tracer.restore()
        tracer.op = "memory"
        tracemalloc.start()
        w.wrap(tracer, memory=True)
        w.memory_probe()
        tracer.restore()
        tracemalloc.stop()
    else:
        ops = w.measure(seconds)
    rss = workloads.peak_rss_mb()
    problems = w.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    rate = w.samples_per_op / median(ops.values())
    if trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(w.layer_metrics(tracer, setup_spans, set(ops)))
        untraced_rate = w.samples_per_op / median(untraced.values())
        metrics["trace.samples_per_s"] = rate
        metrics["trace.untraced_samples_per_s"] = untraced_rate
        metrics["trace.overhead_pct"] = (untraced_rate / rate - 1) * 100
        units = PER_LAYER
        os.makedirs(workloads.OUT, exist_ok=True)
        tracer.dump(os.path.join(workloads.OUT, f"trace-{name}-seed{seed}.json"),
                    workload=name, seed=seed, metrics=metrics,
                    op_seconds={str(k): v for k, v in ops.items()})
    else:
        metrics = {
            "samples_per_s": rate,
            "setup_s": median(setup_times),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    failed = len(w.op_ok) - sum(w.op_ok)
    return {
        "correct": failed == 0,
        "attempted": len(w.op_ok),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
