#!/usr/bin/env python3
"""Print SHA-256 hashes of everything a circuit deterministically produces.

    python3 scripts/identity_hashes.py > hashes.txt

Each line is ``<label> <sha256>``. The hashed artifacts are the class scores
of ``circuit_scores`` and the output bits ``unpack(execute_packed(...))``,
both at threads 1 and 3 and for n = 1, 63, 64, 65 and 16384 seeded random
rows, plus the ``emit_source`` text and the saved ``.gnet`` bytes of every
circuit. The circuits are 8 seeded random layered circuits, each with its
pruned, adder-aggregated and pruned-then-aggregated forms, and the 48000-gate
784 -> 6x8000, k=10 circuit of acceptance criterion 8 with its pruned form.
The package is imported from ``src/`` beside this directory, so running the
script in two checkouts and diffing the outputs shows whether a change
altered any result.
"""

import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

from gatenet.emit import emit_source
from gatenet.model import LogicNet, ReadoutConfig, build_topology, discretize, init_params
from gatenet.modelfile import save_model
from gatenet.opt import prune
from gatenet.packed import build_adder_aggregation, circuit_scores, execute_packed, pack, unpack

SAMPLE_COUNTS = (1, 63, 64, 65, 16384)
THREADS = (1, 3)


def layered(rng: np.random.Generator, input_width: int, widths: list[int], k: int):
    """A discretized circuit over seeded random wiring and logits."""
    seed = int(rng.integers(2**31))
    topo = build_topology(seed, [input_width, *widths])
    return discretize(LogicNet(topo, init_params(topo, seed), ReadoutConfig(k=k)))


def circuits():
    """(label, circuit) pairs in a fixed order."""
    rng = np.random.default_rng(6)
    for i in range(8):
        width = int(rng.integers(2, 65))
        k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
        base = layered(rng, int(rng.integers(2, 41)), [width] * int(rng.integers(1, 6)), k)
        pruned = prune(base)
        yield f"random{i}", base
        yield f"random{i}.pruned", pruned
        yield f"random{i}.adder", build_adder_aggregation(base)
        yield f"random{i}.pruned.adder", build_adder_aggregation(pruned)
    big = layered(np.random.default_rng(48), 784, [8000] * 6, 10)
    yield "criterion8", big
    yield "criterion8.pruned", prune(big)


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = f"{data.dtype.str}{data.shape}".encode() + np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "circuit.gnet")
        for label, circuit in circuits():
            print(f"{label}.emit_source {digest(emit_source(circuit))}")
            save_model(circuit, path)
            with open(path, "rb") as fh:
                print(f"{label}.gnet {digest(fh.read())}")
            rng = np.random.default_rng(circuit.num_gates)
            for n in SAMPLE_COUNTS:
                x = rng.integers(0, 2, size=(n, circuit.input_width), dtype=np.uint8)
                batch = pack(x)
                for t in THREADS:
                    scores = circuit_scores(circuit, batch, threads=t)
                    print(f"{label}.n{n}.threads{t}.scores {digest(scores)}")
                    bits = unpack(execute_packed(circuit, batch, threads=t))
                    print(f"{label}.n{n}.threads{t}.outputs {digest(bits)}")


if __name__ == "__main__":
    main()
