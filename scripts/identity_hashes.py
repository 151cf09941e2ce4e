#!/usr/bin/env python3
"""Print SHA-256 hashes of everything training and circuits deterministically produce.

    python3 scripts/identity_hashes.py > hashes.txt

Each line is ``<label> <sha256>``. The hashed artifacts are the class scores
of ``circuit_scores``, which runs on one thread, and the output bits
``unpack(execute_packed(...))``, for n = 1, 63, 64, 65 and 16384 random rows
seeded by the circuit's label, so a circuit whose gates change, as a new
counter's do, is still scored on the same rows; plus the ``emit_source`` text
and the saved ``.gnet`` bytes of every circuit, and the words ``pack`` makes
of seeded uint8, bool and float64 rows at those n and 1, 9 and 784 features.
The circuits are 8 seeded random layered circuits, each with its pruned,
adder-aggregated and pruned-then-aggregated forms, a small hand-built
circuit whose classes are all constant-true, all constant-false and mixed,
with its adder form, and the 48000-gate 784 -> 6x8000, k=10 circuit of
acceptance criterion 8 with its pruned form. An adder form's scores are its
counter wires read as binary by the test suite's ``adder_counts``, and its
``emit_source`` line is that of the circuit it was built from, since
``emit_source`` builds the adder itself.
Training is covered by three short seeded ``train`` runs on small random
data: the saved ``.gnet`` bytes of the final net and of the best snapshot,
and the history rows with their losses and eval accuracies. The third run is
wide enough that its relaxed passes and its Adam steps each run in several
blocks of ``relaxed.BLOCK_BYTES``. The package is imported
from ``src/`` beside this directory, so running the script in two checkouts
and diffing the outputs shows whether a change altered any result.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np

from conftest import adder_counts
from gatenet.datasets import BinaryDataset
from gatenet.emit import emit_source
from gatenet.model import (
    Circuit,
    LogicNet,
    ReadoutConfig,
    build_topology,
    discretize,
    init_params,
)
from gatenet.modelfile import save_model
from gatenet.opt import prune
from gatenet.packed import build_adder_aggregation, circuit_scores, execute_packed, pack, unpack
from gatenet.training import TrainConfig, train

SAMPLE_COUNTS = (1, 63, 64, 65, 16384)
PACK_FEATURES = (1, 9, 784)
PACK_DTYPES = (np.uint8, np.bool_, np.float64)
# Three short runs: two classes near the defaults; three classes with tau,
# beta, learning rate and gate mask of their own; and four classes over
# 13000-wide layers, which at batch 100 run 13 neuron blocks per relaxed pass
# and 3 row blocks per Adam step. All end epochs on a partial batch.
TRAIN_RUNS = (
    dict(layers=2, width=16, max_epochs=4, batch_size=32, seed=1),
    dict(layers=4, width=24, classes=3, tau=2.5, beta=0.25, learning_rate=0.05,
         max_epochs=3, batch_size=100, seed=2, allowed_gates=0x7FF6),
    dict(layers=2, width=13000, classes=4, tau=10.0, max_epochs=1, batch_size=100, seed=3),
)


def layered(rng: np.random.Generator, input_width: int, widths: list[int], k: int):
    """A discretized circuit over seeded random wiring and logits."""
    seed = int(rng.integers(2**31))
    topo = build_topology(seed, [input_width, *widths])
    return discretize(LogicNet(topo, init_params(topo, seed), ReadoutConfig(k=k)))


def folded() -> Circuit:
    """Five inputs, six gates and three classes of four outputs each.

    Class 0 reads the constant-true gate four times, class 1 the
    constant-false gate, and class 2 two gates, both constants and an input.
    """
    return Circuit(
        input_width=5,
        layer_sizes=(5, 1),
        sources=np.array([[0, 1], [2, 3], [1, 4], [0, 0], [0, 0], [5, 6]]),
        opcodes=np.array([6, 1, 7, 15, 0, 14]),
        output_wires=np.array([8, 8, 8, 8, 9, 9, 9, 9, 10, 8, 9, 2]),
        readout=ReadoutConfig(k=3),
    )


def circuits():
    """(label, circuit, base) in a fixed order; ``base`` is what an adder form was built from."""
    rng = np.random.default_rng(6)
    for i in range(8):
        width = int(rng.integers(2, 65))
        k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
        base = layered(rng, int(rng.integers(2, 41)), [width] * int(rng.integers(1, 6)), k)
        pruned = prune(base)
        yield f"random{i}", base, None
        yield f"random{i}.pruned", pruned, None
        yield f"random{i}.adder", build_adder_aggregation(base), base
        yield f"random{i}.pruned.adder", build_adder_aggregation(pruned), pruned
    yield "folded", folded(), None
    yield "folded.adder", build_adder_aggregation(folded()), folded()
    big = layered(np.random.default_rng(48), 784, [8000] * 6, 10)
    yield "criterion8", big, None
    yield "criterion8.pruned", prune(big), None


def planted_sets(classes: int, seed: int):
    """Seeded (train, eval) sets of 12-bit rows labelled by a planted rule."""
    rng = np.random.default_rng([9, seed])
    out = []
    for n in (250, 120):
        x = rng.integers(0, 2, size=(n, 12), dtype=np.uint8)
        y = (x[:, 0] + 2 * (x[:, 1] & x[:, 2]) + (x[:, 3] ^ x[:, 4])) % classes
        out.append(BinaryDataset(x, y, 12, classes))
    return out


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = f"{data.dtype.str}{data.shape}".encode() + np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def model_bytes(model, path: str) -> bytes:
    save_model(model, path)
    with open(path, "rb") as fh:
        return fh.read()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.gnet")
        for i, settings in enumerate(TRAIN_RUNS):
            train_ds, eval_ds = planted_sets(settings.get("classes", 2), settings["seed"])
            result = train(TrainConfig(**settings), train_ds, eval_ds=eval_ds)
            print(f"train{i}.final.gnet {digest(model_bytes(result.final, path))}")
            print(f"train{i}.best.gnet {digest(model_bytes(result.best, path))}")
            print(f"train{i}.history {digest(repr(result.history))}")
        for label, circuit, base in circuits():
            print(f"{label}.emit_source {digest(emit_source(circuit if base is None else base))}")
            print(f"{label}.gnet {digest(model_bytes(circuit, path))}")
            rng = np.random.default_rng(list(label.encode()))
            for n in SAMPLE_COUNTS:
                x = rng.integers(0, 2, size=(n, circuit.input_width), dtype=np.uint8)
                batch = pack(x)
                if base is None:
                    scores = circuit_scores(circuit, batch)
                else:
                    scores = adder_counts(circuit, batch)
                print(f"{label}.n{n}.scores {digest(scores)}")
                bits = unpack(execute_packed(circuit, batch))
                print(f"{label}.n{n}.outputs {digest(bits)}")
    for f in PACK_FEATURES:
        rng = np.random.default_rng([10, f])
        for n in SAMPLE_COUNTS:
            x = rng.integers(0, 2, size=(n, f), dtype=np.uint8)
            for dtype in PACK_DTYPES:
                words = pack(x.astype(dtype)).words
                print(f"pack.{np.dtype(dtype).name}.n{n}.f{f}.words {digest(words)}")


if __name__ == "__main__":
    main()
