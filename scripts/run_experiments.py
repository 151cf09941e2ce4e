#!/usr/bin/env python3
"""Train presets across seeds and tabulate relaxed vs discretized accuracy.

Each run writes a metrics CSV next to the summary, in the format that
``gatenet train`` writes (its settings as ``# key=value`` lines, then its
history rows); presets whose dataset files are absent are skipped with a
note. The summary is written twice, as
summary.csv and as summary.json (a list of one object per run: preset, seed,
relaxed_acc, discretized_acc, seconds). With no arguments this reproduces
the three MONK experiments (the only datasets that need no external files).
"""

import argparse
import csv
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from gatenet.datasets import DataError, load_dataset, resolve_data_dir
from gatenet.model import discretize
from gatenet.presets import get_preset, preset_names, train_config, write_metrics
from gatenet.training import evaluate, train


def run_one(settings: dict):
    seed = settings["seed"]
    train_ds, test_ds = load_dataset(settings["dataset"], settings["data_dir"], seed=seed)
    result = train(train_config(settings), train_ds, eval_ds=test_ds)
    relaxed = evaluate(result.final, test_ds).accuracy
    disc = evaluate(discretize(result.final), test_ds).accuracy
    return result, relaxed, disc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--presets", nargs="+", default=["monk1", "monk2", "monk3"],
                    metavar="NAME", help=f"choices: {', '.join(preset_names())}")
    ap.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=None,
                    help="override every preset's epoch count")
    ap.add_argument("--data-dir", default=None)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args(argv)
    if args.epochs is not None and args.epochs < 1:
        ap.error(f"--epochs must be at least 1, got {args.epochs}")

    data_dir = resolve_data_dir(args.data_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for name in args.presets:
        preset = get_preset(name)
        accs = []
        for seed in args.seeds:
            settings = {**preset, "preset": name, "data_dir": data_dir, "seed": seed,
                        "epochs": preset["epochs"] if args.epochs is None else args.epochs}
            t0 = time.perf_counter()
            try:
                result, relaxed, disc = run_one(settings)
            except DataError as exc:
                print(f"{name}: skipped ({exc})")
                break
            seconds = time.perf_counter() - t0
            metrics = os.path.join(args.out_dir, f"{name}_s{seed}.metrics.csv")
            write_metrics(metrics, settings, result.history)
            rows.append((name, seed, relaxed, disc, seconds))
            accs.append(disc)
            print(f"{name} seed {seed}: relaxed {relaxed:.4f}  "
                  f"discretized {disc:.4f}  ({seconds:.1f}s)")
        if accs:
            print(f"{name}: discretized mean {np.mean(accs):.4f} "
                  f"over {len(accs)} seed(s)")

    summary = os.path.join(args.out_dir, "summary.csv")
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["preset", "seed", "relaxed_acc", "discretized_acc", "seconds"])
        for name, seed, relaxed, disc, seconds in rows:
            writer.writerow([name, seed, f"{relaxed:.6f}", f"{disc:.6f}", f"{seconds:.2f}"])
    with open(os.path.join(args.out_dir, "summary.json"), "w") as fh:
        json.dump([
            {"preset": name, "seed": seed, "relaxed_acc": relaxed, "discretized_acc": disc,
             "seconds": seconds}
            for name, seed, relaxed, disc, seconds in rows
        ], fh, indent=1)
    print(f"\nwrote {summary} and summary.json ({len(rows)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
