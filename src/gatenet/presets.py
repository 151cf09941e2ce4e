"""Training settings: their defaults, the built-in recipes, and their files.

A settings dict maps each setting's command-line name to its value.
``DEFAULTS`` holds every setting: the dataset and its directory, then the
fields of ``TrainConfig`` with their defaults (Adam, lr 0.01, batch 100,
200 epochs), three of them renamed (``lr``, ``epochs``, ``gate_mask``).
Each preset pins the architecture and readout temperature that reproduce the
reference accuracy for its dataset. Presets are the weakest configuration
layer: config-file values and command-line flags both override them.
``train_config`` turns a settings dict into a ``TrainConfig``, and
``write_metrics`` writes a run's settings and history as its metrics CSV.
"""

from __future__ import annotations

import csv
from dataclasses import fields

from .training import TrainConfig

# The command-line names of the TrainConfig fields that are named otherwise.
_RENAMED = {"learning_rate": "lr", "max_epochs": "epochs", "allowed_gates": "gate_mask"}
# Each TrainConfig field under its command-line name.
_FIELDS = {_RENAMED.get(f.name, f.name): f for f in fields(TrainConfig)}

DEFAULTS: dict = {
    "dataset": None,
    "data_dir": None,
    **{key: f.default for key, f in _FIELDS.items()},
}

# Per-preset fields: dataset to load, gate layers, layer width, readout
# temperature, class count. The temperatures are exact inverse values
# (1/0.075, 1/0.1, 1/0.03) rather than decimal approximations.
#
# Epoch counts are sized per dataset because one epoch spans wildly different
# step counts (monk1: 2 optimizer steps, mnist: 600). The tiny tabular sets
# need thousands of epochs to converge at batch 100; monk3 carries 5% label
# noise and degrades past ~200, so it keeps the short schedule.
PRESETS: dict[str, dict] = {
    "monk1": {
        "dataset": "monk1",
        "layers": 6,
        "width": 24,
        "tau": 1.0,
        "classes": 2,
        "epochs": 2000,
    },
    "monk2": {
        "dataset": "monk2",
        "layers": 6,
        "width": 12,
        "tau": 1.0,
        "classes": 2,
        "epochs": 8000,
    },
    "monk3": {
        "dataset": "monk3",
        "layers": 6,
        "width": 12,
        "tau": 1.0,
        "classes": 2,
        "epochs": 200,
    },
    "adult": {
        "dataset": "adult",
        "layers": 5,
        "width": 256,
        "tau": 1 / 0.075,
        "classes": 2,
        "epochs": 200,
    },
    "breast_cancer": {
        "dataset": "breast_cancer",
        "layers": 5,
        "width": 128,
        "tau": 1 / 0.1,
        "classes": 2,
        "epochs": 2000,
    },
    "mnist_small": {
        "dataset": "mnist",
        "layers": 6,
        "width": 8000,
        "tau": 1 / 0.1,
        "classes": 10,
        "epochs": 200,
    },
    "mnist": {
        "dataset": "mnist",
        "layers": 6,
        "width": 64000,
        "tau": 1 / 0.03,
        "classes": 10,
        "epochs": 200,
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def get_preset(name: str) -> dict:
    """Return the full settings dict for ``name`` (hyphens and case ignored)."""
    key = name.lower().replace("-", "_")
    if key not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")
    return {**DEFAULTS, **PRESETS[key]}


def train_config(settings: dict) -> TrainConfig:
    """The ``TrainConfig`` of a settings dict, whose other keys are ignored."""
    return TrainConfig(**{f.name: settings[key] for key, f in _FIELDS.items()})


def write_metrics(path: str, settings: dict, history: list[dict]) -> None:
    """Metrics CSV: the effective settings as # comments, then history rows."""
    with open(path, "w", newline="") as fh:
        for key, value in sorted(settings.items()):
            if key == "gate_mask":
                value = f"0x{value:04X}"
            fh.write(f"# {key}={'' if value is None else value}\n")
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
