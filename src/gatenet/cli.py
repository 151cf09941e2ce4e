"""Command-line front end.

Subcommands: train, eval, discretize, prune, compile, bench, inspect.
Configuration is merged from three layers with increasing precedence:
built-in presets, a flat key=value config file, command-line flags.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .datasets import DataError, load_dataset, resolve_data_dir
from .emit import _emit
from .model import Circuit, LogicNet, discretize
from .modelfile import ModelFileError, load_model, save_model
from .opt import op_histogram, prune, write_histogram_csv
from .packed import _counted, benchmark, build_adder_aggregation, pack
from .presets import get_preset, preset_names
from .training import NumericsError, TrainConfig, evaluate, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flag combination or config contents; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this tool reserves 2 for
    # data errors, so route parse failures to exit code 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Settings: defaults, config-file parsing, and the three-layer merge.

_DEFAULTS = {
    "dataset": None,
    "data_dir": None,
    "layers": 2,
    "width": 16,
    "tau": 1.0,
    "beta": 0.0,
    "classes": None,
    "lr": 0.01,
    "batch_size": 100,
    "epochs": 200,
    "seed": 0,
    "gate_mask": 0xFFFF,
    "eval_every": 1,
}

_INT_KEYS = {"layers", "width", "classes", "batch_size", "epochs", "seed", "eval_every"}
_FLOAT_KEYS = {"tau", "beta", "lr"}


def _real(text: str) -> float:
    """Parse a float, accepting exact fractions like 1/0.075."""
    if "/" in text:
        num, _, den = text.partition("/")
        if float(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return float(num) / float(den)
    return float(text)


def _mask(text: str) -> int:
    return int(text, 0)


def _convert(key: str, value: str, where: str):
    try:
        if key == "gate_mask":
            return _mask(value)
        if key in _INT_KEYS:
            return int(value, 0)
        if key in _FLOAT_KEYS:
            return _real(value)
        return value
    except ValueError as exc:
        raise UsageError(f"{where}: bad value for {key}: {exc}") from None


def read_config_file(path: str) -> dict:
    """Parse a flat key=value file (# comments and blank lines ignored)."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from None
    settings = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        settings[key.strip().lower().replace("-", "_")] = value.strip()
    return settings


def merge_settings(args: argparse.Namespace) -> dict:
    """Defaults, then preset, then config file, then explicit flags."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = read_config_file(args.config)
    preset_name = getattr(args, "preset", None) or file_cfg.pop("preset", None)
    settings = dict(_DEFAULTS)
    if preset_name:
        try:
            settings.update(get_preset(preset_name))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    for key, raw in file_cfg.items():
        if key not in _DEFAULTS:
            raise UsageError(f"{args.config}: unknown config key {key!r}")
        settings[key] = _convert(key, raw, args.config)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    settings["preset"] = preset_name or ""
    return settings


# ---------------------------------------------------------------------------
# Flag wiring.


def _add_data_flags(p) -> None:
    p.add_argument("--dataset", help="dataset name (monk1/2/3, adult, breast_cancer, mnist)")
    p.add_argument("--data-dir", dest="data_dir", help="dataset directory (default: $GATENET_DATA or ./data)")


def _add_seed_flag(p) -> None:
    p.add_argument("--seed", type=int, help="run seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gatenet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("train", help="train a network and write a checkpoint")
    _add_data_flags(p)
    p.add_argument("--preset", help=f"builtin recipe: {', '.join(preset_names())}")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--layers", type=int, help="number of gate layers (>= 2)")
    p.add_argument("--width", type=int, help="gates per layer")
    p.add_argument("--tau", type=_real, help="readout temperature (accepts fractions, e.g. 1/0.075)")
    p.add_argument("--beta", type=_real, help="readout offset")
    p.add_argument("--classes", type=int, help="class count (default: from the dataset)")
    p.add_argument("--lr", type=_real, help="Adam learning rate")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--gate-mask", dest="gate_mask", type=_mask,
                   help="16-bit mask of allowed gate ids, e.g. 0xFFFF")
    _add_seed_flag(p)
    p.add_argument("--out", help="checkpoint path (default <dataset>_s<seed>.gnet)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file on a dataset")
    p.add_argument("--in", dest="in_path", required=True, help="model file (.gnet)")
    _add_data_flags(p)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("discretize", help="snap a checkpoint to a circuit")
    p.add_argument("--in", dest="in_path", required=True, help="checkpoint file")
    p.add_argument("--out", help="circuit path (default <in>.circuit.gnet)")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("prune", help="remove dead and degenerate gates")
    p.add_argument("--in", dest="in_path", required=True, help="circuit file")
    p.add_argument("--out", help="pruned circuit path (default <in>.pruned.gnet)")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("compile", help="emit a C kernel for a circuit")
    p.add_argument("--in", dest="in_path", required=True, help="circuit file")
    p.add_argument("--out", help="C source path (default <in>.c)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("bench", help="measure packed-inference throughput")
    p.add_argument("--in", dest="in_path", required=True, help="circuit file")
    _add_data_flags(p)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="write a per-layer gate histogram")
    p.add_argument("--in", dest="in_path", required=True, help="model file (.gnet)")
    p.add_argument("--out", help="histogram CSV path (default <in>.histogram.csv)")
    p.set_defaults(func=cmd_inspect)
    return parser


# ---------------------------------------------------------------------------
# Shared helpers.


def _derived_path(in_path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(in_path)
    return stem + suffix


def _load_circuit(path: str) -> Circuit:
    model = load_model(path)
    if isinstance(model, LogicNet):
        raise UsageError(f"{path} holds a trainable checkpoint; run discretize first")
    return model


def _load_checkpoint(path: str) -> LogicNet:
    model = load_model(path)
    if isinstance(model, Circuit):
        raise UsageError(f"{path} already holds a discrete circuit")
    return model


def _print_max_probs(circ: Circuit) -> None:
    if circ.max_probs is not None and circ.max_probs.size:
        print(f"mean max-probability: {float(circ.max_probs.mean()):.4f}")


def _format_setting(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_metrics(path: str, settings: dict, history: list[dict]) -> None:
    """Metrics CSV: the effective config as # comments, then history rows."""
    with open(path, "w", newline="") as fh:
        for key in sorted(settings):
            if key == "gate_mask":
                fh.write(f"# gate_mask=0x{settings[key]:04X}\n")
            else:
                fh.write(f"# {key}={_format_setting(settings[key])}\n")
        out = csv.writer(fh)
        out.writerow(["epoch", "step", "split", "loss", "accuracy"])
        for row in history:
            out.writerow([
                row["epoch"],
                row["step"],
                row["split"],
                f"{row['loss']:.6f}" if "loss" in row else "",
                f"{row['accuracy']:.6f}" if "accuracy" in row else "",
            ])


def _confusion_lines(confusion: np.ndarray) -> list[str]:
    k = confusion.shape[0]
    width = max(5, len(str(int(confusion.max(initial=0)))) + 1)
    head = "true\\pred" + "".join(f"{c:>{width}}" for c in range(k))
    lines = [head]
    for r in range(k):
        lines.append(f"{r:>9}" + "".join(f"{int(confusion[r, c]):>{width}}" for c in range(k)))
    return lines


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_train(args) -> int:
    settings = merge_settings(args)
    if not settings["dataset"]:
        raise UsageError("no dataset selected (use --dataset or --preset)")
    if settings["layers"] < 2:
        raise UsageError("need at least 2 gate layers")
    seed = settings["seed"]
    train_ds, test_ds = load_dataset(settings["dataset"], settings["data_dir"], seed=seed)
    config = TrainConfig(
        layers=settings["layers"],
        width=settings["width"],
        classes=settings["classes"],
        tau=settings["tau"],
        beta=settings["beta"],
        learning_rate=settings["lr"],
        batch_size=settings["batch_size"],
        max_epochs=settings["epochs"],
        seed=seed,
        eval_every=settings["eval_every"],
        allowed_gates=settings["gate_mask"],
    )
    out_path = args.out or f"{settings['dataset']}_s{seed}.gnet"
    metrics_path = _derived_path(out_path, ".metrics.csv")

    def progress(row: dict) -> None:
        if row["split"] == "eval":
            print(f"epoch {row['epoch'] + 1:>4}: eval accuracy {row['accuracy']:.4f}", flush=True)

    result = train(config, train_ds, eval_ds=test_ds, on_record=progress)
    net = result.final
    save_model(net, out_path)

    echo = dict(settings)
    echo["classes"] = net.readout.k
    echo["data_dir"] = resolve_data_dir(settings["data_dir"])
    _write_metrics(metrics_path, echo, result.history)

    relaxed = evaluate(net, test_ds).accuracy
    circuit = discretize(net)
    discretized = evaluate(circuit, test_ds).accuracy
    print(f"trained {config.max_epochs} epochs in {result.seconds:.1f}s")
    print(f"checkpoint: {out_path}")
    print(f"metrics: {metrics_path}")
    print(f"final relaxed test accuracy: {relaxed:.4f}")
    print(f"final discretized test accuracy: {discretized:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = merge_settings(args)
    if not settings["dataset"]:
        raise UsageError("no dataset selected (use --dataset)")
    model = load_model(args.in_path)
    _, test_ds = load_dataset(settings["dataset"], settings["data_dir"], seed=settings["seed"])
    if int(test_ds.width) != model.input_width:
        raise UsageError(
            f"model expects {model.input_width} input bits, "
            f"dataset {settings['dataset']} provides {test_ds.width}"
        )
    res = evaluate(model, test_ds)
    correct = int(np.trace(res.confusion))
    print(f"accuracy: {res.accuracy:.4f} ({correct}/{res.count})")
    print("confusion matrix (rows true, columns predicted):")
    for line in _confusion_lines(res.confusion):
        print(f"  {line}")
    return EXIT_OK


def cmd_discretize(args) -> int:
    net = _load_checkpoint(args.in_path)
    circuit = discretize(net)
    out_path = args.out or _derived_path(args.in_path, ".circuit.gnet")
    save_model(circuit, out_path)
    print(f"gates: {net.topology.num_neurons} -> {circuit.num_gates}")
    _print_max_probs(circuit)
    print(f"circuit: {out_path}")
    return EXIT_OK


def cmd_prune(args) -> int:
    circuit = _load_circuit(args.in_path)
    pruned = prune(circuit)
    out_path = args.out or _derived_path(args.in_path, ".pruned.gnet")
    save_model(pruned, out_path)
    print(f"gates: {circuit.num_gates} -> {pruned.num_gates}")
    _print_max_probs(pruned)
    print(f"circuit: {out_path}")
    return EXIT_OK


def cmd_compile(args) -> int:
    circuit = _load_circuit(args.in_path)
    adder = build_adder_aggregation(circuit)
    out_path = args.out or _derived_path(args.in_path, ".c")
    with open(out_path, "w") as fh:
        fh.write(_emit(adder, "circuit_eval"))
    pruned = _counted(circuit).base.num_gates
    print(f"gates: {circuit.num_gates} -> {pruned} -> {adder.num_gates} with counters")
    _print_max_probs(circuit)
    print(f"source: {out_path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    settings = merge_settings(args)
    circuit = _load_circuit(args.in_path)
    if settings["dataset"]:
        _, test_ds = load_dataset(settings["dataset"], settings["data_dir"], seed=settings["seed"])
        if int(test_ds.width) != circuit.input_width:
            raise UsageError(
                f"circuit expects {circuit.input_width} input bits, "
                f"dataset {settings['dataset']} provides {test_ds.width}"
            )
        samples = test_ds.features
    else:
        rng = np.random.default_rng([5, settings["seed"]])
        samples = rng.integers(0, 2, size=(16384, circuit.input_width), dtype=np.uint8)
    report = benchmark(circuit, pack(samples))
    print(f"cpu: {report['cpu']}")
    print(f"gates: {report['gates']}, samples: {report['samples']}, word bits: 64")
    print(f"single thread: {report['samples_per_sec']:,.0f} samples/s "
          f"({report['gate_ops_per_sec']:.3g} gate-ops/s); "
          f"pack {report['pack_ms']:.2f} ms, execute {report['execute_ms']:.2f} ms, "
          f"readout {report['readout_ms']:.2f} ms")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.in_path)
    stats = op_histogram(model)
    out_path = args.out or _derived_path(args.in_path, ".histogram.csv")
    write_histogram_csv(stats, out_path)
    print(f"layers: {len(stats.layer_sizes)}, gates: {stats.total_gates}, "
          f"live: {stats.live_gates}, depth: {stats.depth}")
    print(f"constant gates: {stats.constant_gates}")
    if stats.per_layer.shape[0]:
        last_const = int(stats.per_layer[-1, 0] + stats.per_layer[-1, 15])
        state = "none" if last_const == 0 else f"{last_const} of {stats.layer_sizes[-1]}"
        print(f"last-layer constant gates: {state}")
    print(f"histogram: {out_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"gatenet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"gatenet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ModelFileError) as exc:
        print(f"gatenet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"gatenet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"gatenet: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
