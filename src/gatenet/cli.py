"""Command-line front end.

Subcommands: train, eval, discretize, prune, compile, bench, inspect.
Configuration is merged from three layers with increasing precedence:
built-in presets, a flat key=value config file, command-line flags.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .datasets import DataError, load_dataset, resolve_data_dir
from .emit import _emit
from .model import Circuit, LogicNet, discretize
from .modelfile import ModelFileError, load_model, save_model
from .opt import op_histogram, prune, write_histogram_csv
from .packed import benchmark
from .presets import DEFAULTS, get_preset, preset_names, train_config, write_metrics
from .training import NumericsError, evaluate, train

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
# Settings: how each one parses, config-file parsing, and the three-layer merge.


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


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return value


# Each key of presets.DEFAULTS: the parser of its text, as a flag and as a
# config-file value alike, and its flag's help. eval_every has no flag.
_SETTINGS = {
    "dataset": (str, "dataset name (monk1/2/3, adult, breast_cancer, mnist)"),
    "data_dir": (str, "dataset directory (default: $GATENET_DATA or ./data)"),
    "layers": (int, "number of gate layers (>= 2)"),
    "width": (int, "gates per layer"),
    "tau": (_real, "readout temperature (accepts fractions, e.g. 1/0.075)"),
    "beta": (_real, "readout offset"),
    "classes": (int, "class count (default: from the dataset)"),
    "lr": (_real, "Adam learning rate"),
    "batch_size": (int, None),
    "epochs": (int, None),
    "gate_mask": (_mask, "16-bit mask of allowed gate ids, e.g. 0xFFFF"),
    "seed": (_seed, "non-negative run seed (default 0)"),
    "eval_every": (int, None),
}


def _convert(key: str, value: str, where: str):
    try:
        return _SETTINGS[key][0](value)
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
    file_preset = file_cfg.pop("preset", None)
    preset_name = getattr(args, "preset", None) or file_preset
    try:
        settings = get_preset(preset_name) if preset_name else dict(DEFAULTS)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for key, raw in file_cfg.items():
        if key not in _SETTINGS:
            raise UsageError(f"{args.config}: unknown config key {key!r}")
        settings[key] = _convert(key, raw, args.config)
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    settings["preset"] = preset_name or ""
    return settings


# ---------------------------------------------------------------------------
# Flag wiring.


def _add_settings_flags(p, *keys: str) -> None:
    for key in keys:
        parse, text = _SETTINGS[key]
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gatenet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("train", help="train a network and write a checkpoint")
    _add_settings_flags(p, "dataset", "data_dir")
    p.add_argument("--preset", help=f"builtin recipe: {', '.join(preset_names())}")
    p.add_argument("--config", help="flat key=value config file")
    _add_settings_flags(p, "layers", "width", "tau", "beta", "classes", "lr", "batch_size",
                        "epochs", "gate_mask", "seed")
    p.add_argument("--out", help="checkpoint path (default <dataset>_s<seed>.gnet)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file on a dataset")
    p.add_argument("--in", dest="in_path", required=True, help="model file (.gnet)")
    _add_settings_flags(p, "dataset", "data_dir", "seed")
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
    _add_settings_flags(p, "dataset", "data_dir", "seed")
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


def _test_split(settings: dict, model: Circuit | LogicNet, noun: str):
    """The selected dataset's test split: at least one row, as wide as the ``noun``'s input."""
    _, test_ds = load_dataset(settings["dataset"], settings["data_dir"], seed=settings["seed"])
    if len(test_ds.labels) == 0:
        raise DataError(f"dataset {settings['dataset']} has no test rows to score")
    if int(test_ds.width) != model.input_width:
        raise UsageError(
            f"{noun} expects {model.input_width} input bits, "
            f"dataset {settings['dataset']} provides {test_ds.width}"
        )
    return test_ds


def _print_max_probs(circ: Circuit) -> None:
    if circ.max_probs is not None and circ.max_probs.size:
        print(f"mean max-probability: {float(circ.max_probs.mean()):.4f}")


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
    config = train_config(settings)
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
    write_metrics(metrics_path, echo, result.history)

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
    res = evaluate(model, _test_split(settings, model, "model"))
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
    source, adder = _emit(circuit)
    out_path = args.out or _derived_path(args.in_path, ".c")
    with open(out_path, "w") as fh:
        fh.write(source)
    pruned = prune(circuit).num_gates
    print(f"gates: {circuit.num_gates} -> {pruned} -> {adder.num_gates} with counters")
    _print_max_probs(circuit)
    print(f"source: {out_path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    settings = merge_settings(args)
    circuit = _load_circuit(args.in_path)
    if settings["dataset"]:
        samples = _test_split(settings, circuit, "circuit").features
    else:
        rng = np.random.default_rng([5, settings["seed"]])
        samples = rng.integers(0, 2, size=(16384, circuit.input_width), dtype=np.uint8)
    report = benchmark(circuit, samples)
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
    except (UsageError, ValueError) as exc:
        print(f"gatenet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ModelFileError, OSError) as exc:
        print(f"gatenet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"gatenet: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
