"""End-to-end command-line tests: exit codes, artifacts, config precedence."""

import csv
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from gatenet.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    build_parser,
    main,
    merge_settings,
    read_config_file,
)
from gatenet.datasets import generate_monk_files
from gatenet.emit import emit_source
from gatenet.model import Circuit, LogicNet, ReadoutConfig
from gatenet.modelfile import load_model, save_model
from gatenet.packed import build_adder_aggregation
from gatenet.presets import DEFAULTS, PRESETS, get_preset, train_config
from gatenet.training import TrainConfig

# `python -m gatenet` subprocesses import the package from this checkout's src/.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
MODULE_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p),
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("data"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def ckpt(workdir, data_dir):
    """A tiny monk1 checkpoint trained through the real CLI."""
    path = workdir / "m1.gnet"
    rc = main([
        "train", "--dataset", "monk1", "--layers", "2", "--width", "8",
        "--epochs", "2", "--seed", "3", "--data-dir", data_dir, "--out", str(path),
    ])
    assert rc == EXIT_OK
    return path


@pytest.fixture(scope="module")
def circuit_file(ckpt, workdir):
    path = workdir / "m1.circuit.gnet"
    assert main(["discretize", "--in", str(ckpt), "--out", str(path)]) == EXIT_OK
    return path


def _experiment_script():
    """``scripts/run_experiments.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "run_experiments", os.path.join(_ROOT, "scripts", "run_experiments.py")
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestPresets:
    def test_table_values(self):
        assert PRESETS["monk1"] == {
            "dataset": "monk1", "layers": 6, "width": 24, "tau": 1.0, "classes": 2,
            "epochs": 2000,
        }
        assert PRESETS["monk2"]["width"] == 12 and PRESETS["monk3"]["width"] == 12
        assert PRESETS["adult"]["tau"] == 1 / 0.075
        assert PRESETS["adult"]["layers"] == 5 and PRESETS["adult"]["width"] == 256
        assert PRESETS["breast_cancer"]["tau"] == 1 / 0.1
        assert PRESETS["mnist_small"] == {
            "dataset": "mnist", "layers": 6, "width": 8000, "tau": 1 / 0.1, "classes": 10,
            "epochs": 200,
        }
        assert PRESETS["mnist"]["width"] == 64000
        assert PRESETS["mnist"]["tau"] == 1 / 0.03

    def test_common_optimizer_settings(self):
        for name in PRESETS:
            full = get_preset(name)
            assert full["lr"] == 0.01
            assert full["batch_size"] == 100
            assert full["beta"] == 0.0
            assert full["epochs"] >= 200

    def test_name_normalization(self):
        assert get_preset("mnist-small") == get_preset("MNIST_SMALL")
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("cifar10")

    def test_defaults_are_those_of_train_config(self):
        assert train_config(DEFAULTS) == TrainConfig()
        assert DEFAULTS["dataset"] is None and DEFAULTS["data_dir"] is None
        config = train_config({**get_preset("adult"), "lr": 0.5, "epochs": 3, "gate_mask": 6})
        assert (config.learning_rate, config.max_epochs, config.allowed_gates) == (0.5, 3, 6)
        assert (config.layers, config.width, config.tau) == (5, 256, 1 / 0.075)


class TestSettingsMerge:
    def _args(self, **kw):
        import argparse

        ns = argparse.Namespace(config=None, preset=None)
        for key in DEFAULTS:
            setattr(ns, key, None)
        for key, value in kw.items():
            setattr(ns, key, value)
        return ns

    def test_flags_beat_config_beat_preset(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("width = 20\ntau = 2.5\n")
        s = merge_settings(self._args(preset="monk1", config=str(cfg), width=18))
        assert s["width"] == 18  # flag wins
        assert s["tau"] == 2.5  # file beats preset
        assert s["layers"] == 6  # preset beats default
        assert s["dataset"] == "monk1"

    def test_preset_name_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = monk2\nepochs = 7\n")
        s = merge_settings(self._args(config=str(cfg)))
        assert s["width"] == 12 and s["epochs"] == 7
        assert s["preset"] == "monk2"

    def test_config_file_syntax(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n\ntau = 1/0.075\ngate-mask = 0x00F7\nseed=9\n"
        )
        parsed = read_config_file(str(cfg))
        assert parsed == {"tau": "1/0.075", "gate_mask": "0x00F7", "seed": "9"}
        s = merge_settings(self._args(config=str(cfg)))
        assert s["tau"] == 1 / 0.075
        assert s["gate_mask"] == 0x00F7
        assert s["seed"] == 9

    def test_bad_config_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a bare line\n")
        with pytest.raises(UsageError, match="key=value"):
            merge_settings(self._args(config=str(cfg)))
        for line in ("not_a_key = 3", "threads = 1", "deterministic = true"):
            cfg.write_text(line + "\n")
            with pytest.raises(UsageError, match="unknown config key"):
                merge_settings(self._args(config=str(cfg)))
        cfg.write_text("epochs = many\n")
        with pytest.raises(UsageError, match="bad value"):
            merge_settings(self._args(config=str(cfg)))
        cfg.write_text("tau = 1/0\n")
        with pytest.raises(UsageError, match="bad value for tau: zero denominator in '1/0'"):
            merge_settings(self._args(config=str(cfg)))

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(UsageError, match="unknown preset"):
            merge_settings(self._args(preset="nope"))


def _flag_value(key: str, text: str):
    """``text`` given to ``train`` as the flag of ``key``: its value, or "usage error"."""
    try:
        args = build_parser().parse_args(["train", f"--{key.replace('_', '-')}={text}"])
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE
        return "usage error"
    return getattr(args, key)


def _config_value(key: str, text: str, path):
    """``text`` as the value of ``key`` in a config file: its value, or "usage error"."""
    path.write_text(f"{key} = {text}\n")
    try:
        return merge_settings(build_parser().parse_args(["train", "--config", str(path)]))[key]
    except UsageError:
        return "usage error"


class TestFlagConfigParity:
    TEXTS = ("7", "-3", "0x6", "010", "0x00F7", "0b11", "1/0.5", "2.5", "1e3", "inf", "abc", "")

    @pytest.mark.parametrize("key", [k for k in DEFAULTS if k != "eval_every"])
    def test_a_flag_and_a_config_line_parse_alike(self, key, tmp_path):
        assert _flag_value(key, "7") != "usage error"  # every setting but eval_every has a flag
        for text in self.TEXTS:
            flag = _flag_value(key, text)
            line = _config_value(key, text, tmp_path / "run.cfg")
            assert (type(flag), flag) == (type(line), line), text

    @pytest.mark.parametrize("key, text, value", [
        ("layers", "0x6", "usage error"),
        ("seed", "010", 10),
        ("tau", "1/0.5", 2.0),
        ("gate_mask", "0x00F7", 0xF7),
        ("gate_mask", "010", "usage error"),
        ("eval_every", "010", 10),
        ("eval_every", "0x2", "usage error"),
    ])
    def test_values(self, key, text, value, tmp_path):
        assert _config_value(key, text, tmp_path / "run.cfg") == value
        assert _flag_value(key, text) == (value if key != "eval_every" else "usage error")


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, ckpt, workdir):
        assert ckpt.exists()
        model = load_model(str(ckpt))
        assert isinstance(model, LogicNet)
        assert model.topology.layer_widths == (17, 8, 8)
        metrics = workdir / "m1.metrics.csv"
        text = metrics.read_text()
        assert "# dataset=monk1" in text
        assert "# width=8" in text
        assert "# gate_mask=0xFFFF" in text
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "epoch,step,split,loss,accuracy"

    def test_deterministic_reruns_byte_identical(self, workdir, data_dir):
        outs = []
        for name in ("da.gnet", "db.gnet"):
            rc = main([
                "train", "--dataset", "monk1", "--layers", "2", "--width", "6",
                "--epochs", "2", "--seed", "7",
                "--data-dir", data_dir, "--out", str(workdir / name),
            ])
            assert rc == EXIT_OK
            outs.append((workdir / name).read_bytes())
            metrics = (workdir / name.replace(".gnet", ".metrics.csv")).read_bytes()
            outs.append(metrics)
        assert outs[0] == outs[2]  # checkpoints identical
        assert outs[1] == outs[3]  # metrics identical

    def test_final_accuracies_printed(self, workdir, data_dir, capsys):
        rc = main([
            "train", "--dataset", "monk1", "--layers", "2", "--width", "6",
            "--epochs", "1", "--data-dir", data_dir, "--out", str(workdir / "p.gnet"),
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "final relaxed test accuracy: 0." in out
        assert "final discretized test accuracy: 0." in out

    def test_preset_echoed_with_overrides(self, workdir, data_dir):
        rc = main([
            "train", "--preset", "monk2", "--epochs", "1", "--data-dir", data_dir,
            "--out", str(workdir / "pm2.gnet"),
        ])
        assert rc == EXIT_OK
        text = (workdir / "pm2.metrics.csv").read_text()
        assert "# preset=monk2" in text
        assert "# width=12" in text  # from the preset
        assert "# epochs=1" in text  # flag override

    def test_experiment_script_writes_the_same_metrics_file(self, tmp_path, data_dir):
        script = _experiment_script()
        assert script.main([
            "--presets", "monk1", "--seeds", "3", "--epochs", "2", "--data-dir", data_dir,
            "--out-dir", str(tmp_path / "runs"),
        ]) == 0
        assert main([
            "train", "--preset", "monk1", "--seed", "3", "--epochs", "2", "--data-dir", data_dir,
            "--out", str(tmp_path / "monk1_s3.gnet"),
        ]) == EXIT_OK
        written = (tmp_path / "runs" / "monk1_s3.metrics.csv").read_text()
        assert written.startswith("# batch_size=100\n")
        assert written == (tmp_path / "monk1_s3.metrics.csv").read_text()

    def test_experiment_script_rejects_zero_epochs(self, tmp_path, data_dir):
        script = _experiment_script()
        with pytest.raises(SystemExit) as exc:
            script.main([
                "--presets", "monk1", "--seeds", "3", "--epochs", "0", "--data-dir", data_dir,
                "--out-dir", str(tmp_path / "runs"),
            ])
        assert exc.value.code == 2
        assert not (tmp_path / "runs" / "summary.csv").exists()

    def test_gate_mask_restricts_learned_ops(self, workdir, data_dir):
        out = workdir / "masked.gnet"
        rc = main([
            "train", "--dataset", "monk1", "--layers", "2", "--width", "6",
            "--epochs", "1", "--gate-mask", "0x0042", "--data-dir", data_dir,
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        from gatenet.model import discretize

        circuit = discretize(load_model(str(out)))
        assert set(circuit.opcodes.tolist()) <= {1, 6}

    def test_missing_dataset_flag(self, data_dir):
        assert main(["train", "--data-dir", data_dir]) == EXIT_USAGE

    def test_single_layer_rejected(self, data_dir):
        rc = main(["train", "--dataset", "monk1", "--layers", "1", "--data-dir", data_dir])
        assert rc == EXIT_USAGE

    def test_width_class_mismatch_is_usage_error(self, data_dir):
        rc = main([
            "train", "--dataset", "monk1", "--layers", "2", "--width", "7",
            "--data-dir", data_dir,
        ])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [("--tau", "inf"), ("--tau", "nan"), ("--beta", "-inf")])
    def test_non_finite_readout_is_usage_error(self, flag, value, tmp_path, data_dir, capsys):
        out = tmp_path / "m.gnet"
        rc = main([
            "train", "--dataset", "monk1", "--layers", "2", "--width", "6", "--epochs", "1",
            f"{flag}={value}", "--data-dir", data_dir, "--out", str(out),
        ])
        assert rc == EXIT_USAGE
        assert f"readout {flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_denominator_is_usage_error(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", "monk1", "--tau", "1/0", "--data-dir", data_dir])
        assert exc.value.code == EXIT_USAGE
        assert "argument --tau: invalid _real value: '1/0'" in capsys.readouterr().err

    def test_fewer_classes_than_the_dataset_is_usage_error(self, tmp_path, data_dir, capsys):
        out = tmp_path / "m.gnet"
        rc = main([
            "train", "--dataset", "monk1", "--classes", "1", "--layers", "2", "--width", "6",
            "--epochs", "1", "--data-dir", data_dir, "--out", str(out),
        ])
        assert rc == EXIT_USAGE
        assert "classes=1 is fewer than the dataset's 2 classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["loss = mse", "dtype = float64"], ids=["loss", "dtype"])
    def test_removed_objective_keys_rejected(self, line, tmp_path, data_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main([
            "train", "--dataset", "monk1", "--layers", "2", "--width", "6", "--epochs", "1",
            "--config", str(cfg), "--data-dir", data_dir, "--out", str(tmp_path / "m.gnet"),
        ])
        assert rc == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, monkeypatch, data_dir, workdir):
        from gatenet import cli
        from gatenet.training import NumericsError

        def boom(*a, **kw):
            raise NumericsError("non-finite loss")

        monkeypatch.setattr(cli, "train", boom)
        rc = main([
            "train", "--dataset", "monk1", "--layers", "2", "--width", "6",
            "--data-dir", data_dir, "--out", str(workdir / "never.gnet"),
        ])
        assert rc == EXIT_NUMERIC


class TestTransforms:
    def test_discretize_prune_compile_pipeline(self, ckpt, circuit_file, workdir, capsys):
        circuit = load_model(str(circuit_file))
        assert isinstance(circuit, Circuit)
        assert circuit.num_gates == 16

        pruned_file = workdir / "m1.pruned.gnet"
        assert main(["prune", "--in", str(circuit_file), "--out", str(pruned_file)]) == EXIT_OK
        out = capsys.readouterr().out
        before, after = out.splitlines()[0].removeprefix("gates: ").split(" -> ")
        assert int(after) <= int(before) == 16
        assert load_model(str(pruned_file)).num_gates == int(after)

        # compile prints the file's gates, the pruned gates that run, and those with counters
        counted = build_adder_aggregation(load_model(str(pruned_file)))
        texts = []
        for given, count in ((pruned_file, after), (circuit_file, before)):
            source_file = workdir / "m1.c"
            assert main(["compile", "--in", str(given), "--out", str(source_file)]) == EXIT_OK
            texts.append(source_file.read_text())
            assert "int circuit_eval" in texts[-1]
            assert texts[-1] == emit_source(load_model(str(given)))
            out = capsys.readouterr().out
            gates = out.splitlines()[0].removeprefix("gates: ").removesuffix(" with counters")
            assert gates == f"{count} -> {after} -> {counted.num_gates}"
            assert counted.num_gates > int(after)
            assert "mean max-probability: 0." in out
        assert texts[0] == texts[1]  # the file and its pruned form emit the same C

    def test_kind_mismatch_exit_codes(self, ckpt, circuit_file):
        assert main(["prune", "--in", str(ckpt)]) == EXIT_USAGE
        assert main(["compile", "--in", str(ckpt)]) == EXIT_USAGE
        assert main(["discretize", "--in", str(circuit_file)]) == EXIT_USAGE

    def test_default_output_paths(self, ckpt, workdir):
        assert main(["discretize", "--in", str(ckpt)]) == EXIT_OK
        assert (workdir / "m1.circuit.gnet").exists()


class TestEval:
    def test_accuracy_and_confusion(self, circuit_file, data_dir, capsys):
        rc = main([
            "eval", "--in", str(circuit_file), "--dataset", "monk1", "--data-dir", data_dir,
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first.startswith("accuracy: 0.")
        frac = first.split("(")[1].rstrip(")")
        correct, total = map(int, frac.split("/"))
        assert total == 432 and 0 <= correct <= total
        # 4 decimal places and consistency with the printed fraction
        printed = float(first.split()[1])
        assert abs(printed - correct / total) < 5e-5
        assert "confusion matrix" in out
        rows = [l for l in out.splitlines() if l.strip().startswith(("0", "1"))]
        assert len(rows) == 2

    def test_checkpoint_eval_matches_relaxed(self, ckpt, data_dir, capsys):
        assert main([
            "eval", "--in", str(ckpt), "--dataset", "monk1", "--data-dir", data_dir,
        ]) == EXIT_OK
        assert capsys.readouterr().out.startswith("accuracy: 0.")

    def test_width_mismatch(self, tmp_path, data_dir):
        circuit = Circuit(
            input_width=4,
            layer_sizes=(2,),
            opcodes=np.array([1, 7], dtype=np.uint8),
            sources=np.array([[0, 1], [2, 3]], dtype=np.uint32),
            output_wires=np.array([4, 5], dtype=np.uint32),
            readout=ReadoutConfig(k=2),
            seed=0,
        )
        path = tmp_path / "w4.gnet"
        save_model(circuit, str(path))
        rc = main(["eval", "--in", str(path), "--dataset", "monk1", "--data-dir", data_dir])
        assert rc == EXIT_USAGE

    def test_fewer_classes_than_the_dataset(self, tmp_path, data_dir, capsys):
        circuit = Circuit(
            input_width=17,
            layer_sizes=(1,),
            opcodes=np.array([6], dtype=np.uint8),
            sources=np.array([[0, 1]], dtype=np.uint32),
            output_wires=np.array([17], dtype=np.uint32),
            readout=ReadoutConfig(k=1),
            seed=0,
        )
        path = tmp_path / "k1.gnet"
        save_model(circuit, str(path))
        rc = main(["eval", "--in", str(path), "--dataset", "monk1", "--data-dir", data_dir])
        assert rc == EXIT_USAGE
        assert "model's class count 1 is below the dataset's 2" in capsys.readouterr().err

    def test_missing_data_file(self, circuit_file, tmp_path):
        rc = main([
            "eval", "--in", str(circuit_file), "--dataset", "adult",
            "--data-dir", str(tmp_path / "empty"),
        ])
        assert rc == EXIT_DATA

    def test_eval_on_an_empty_test_split_is_a_data_error(self, circuit_file, tmp_path, capsys):
        _, test_path = generate_monk_files(1, str(tmp_path))
        open(test_path, "w").close()
        argv = ["eval", "--in", str(circuit_file), "--dataset", "monk1"]
        assert main([*argv, "--data-dir", str(tmp_path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert "dataset monk1 has no test rows to score" in captured.err
        assert "accuracy" not in captured.out

    def test_corrupt_model_file(self, tmp_path, data_dir):
        bad = tmp_path / "bad.gnet"
        bad.write_bytes(b"GNETgarbagegarbagegarbage")
        rc = main(["eval", "--in", str(bad), "--dataset", "monk1", "--data-dir", data_dir])
        assert rc == EXIT_DATA


class TestBenchInspect:
    def test_bench_reports_one_thread(self, circuit_file, capsys):
        assert main(["bench", "--in", str(circuit_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "single thread:" in out and "samples/s" in out
        assert "threads:" not in out

    def test_bench_on_an_empty_test_split_is_a_data_error(self, circuit_file, tmp_path, capsys):
        _, test_path = generate_monk_files(1, str(tmp_path))
        open(test_path, "w").close()
        argv = ["bench", "--in", str(circuit_file), "--dataset", "monk1"]
        assert main([*argv, "--data-dir", str(tmp_path)]) == EXIT_DATA
        assert "dataset monk1 has no test rows to score" in capsys.readouterr().err

    def test_inspect_histogram_rows_sum_to_widths(self, ckpt, workdir, capsys):
        hist = workdir / "m1.hist.csv"
        assert main(["inspect", "--in", str(ckpt), "--out", str(hist)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "last-layer constant gates:" in out
        with open(hist) as fh:
            rows = list(csv.DictReader(fh))
        totals = {}
        for row in rows:
            totals[int(row["layer"])] = totals.get(int(row["layer"]), 0) + int(row["count"])
        assert totals == {0: 8, 1: 8}


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gatenet", "--help"],
            capture_output=True, text=True, env=MODULE_ENV,
        )
        assert proc.returncode == 0
        assert "train" in proc.stdout and "inspect" in proc.stdout

    def test_unknown_flag_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gatenet", "train", "--bogus"],
            capture_output=True, text=True, env=MODULE_ENV,
        )
        assert proc.returncode == EXIT_USAGE
        assert "error" in proc.stderr

    @pytest.mark.parametrize("flags", [["--threads", "2"], ["--deterministic"]],
                             ids=["threads", "deterministic"])
    @pytest.mark.parametrize("command", ["train", "eval", "bench"])
    def test_removed_thread_flags_exit_one(self, command, flags, capsys):
        model = [] if command == "train" else ["--in", "m.gnet"]
        with pytest.raises(SystemExit) as exc:
            main([command, *model, "--dataset", "monk1", *flags])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_cli_imports_every_module(self):
        # a module the command never imports is code that no pipeline runs
        files = os.listdir(os.path.join(_SRC, "gatenet"))
        names = sorted(n[:-3] for n in files if n.endswith(".py") and n != "__main__.py")
        code = "import sys, gatenet.cli; print(*sorted(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=MODULE_ENV
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        unused = [n for n in names if n != "__init__" and f"gatenet.{n}" not in loaded]
        assert unused == []

    def test_only_a_backward_pass_loads_scipy(self):
        # scipy.sparse is slow to import and large: inference and the relaxed
        # forward pass load no scipy, and the backward loads only the
        # extension that holds its scatter's CSR kernel
        code = (
            "import sys, numpy as np, gatenet.cli\n"
            "from gatenet import relaxed\n"
            "from gatenet.model import LogicNet, ReadoutConfig, build_topology, discretize, "
            "init_params\n"
            "from gatenet.packed import circuit_scores\n"
            "from gatenet.relaxed import backward, forward_relaxed\n"
            "topo = build_topology(1, [8, 16, 16])\n"
            "net = LogicNet(topo, init_params(topo, 1), ReadoutConfig(k=2))\n"
            "x = np.eye(8, dtype=np.uint8)\n"
            "circuit_scores(discretize(net), x)\n"
            "cache = forward_relaxed(net, x)\n"
            "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))\n"
            "backward(net, cache, np.ones((8, 2), np.float32))\n"
            "print(relaxed._matvecs is not None, 'scipy.sparse' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=MODULE_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "False"]

    def test_no_subcommand_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gatenet"], capture_output=True, text=True, env=MODULE_ENV
        )
        assert proc.returncode == EXIT_USAGE
