"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's fast code paths: the
network oracle evaluates all 16 gates explicitly per neuron, and the circuit
oracle applies truth-table lookups gate by gate on 0/1 arrays (no bit
packing, no collapsed coefficients). Tests compare the real implementations
against these.
"""

import numpy as np
import pytest
from hypothesis import settings

from gatenet import gates
from gatenet.model import (
    Circuit,
    LogicNet,
    ReadoutConfig,
    build_topology,
    discretize,
    init_params,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# Sample counts that leave the last 64-bit lane in every state: a single
# partial lane (1, 5 and 63 samples, plus tails that end on a byte, half-word
# and word boundary at 8, 16 and 32), one exact lane (64), and several lanes
# with a partial last one (65 and 2 * 64 + 3).
SAMPLE_COUNTS = (1, 5, 8, 16, 32, 63, 64, 65, 2 * 64 + 3)


def oracle_net_forward(net: LogicNet, x: np.ndarray) -> np.ndarray:
    """Per-sample, per-gate explicit relaxed evaluation. Returns (batch, k) scores."""
    x = np.asarray(x, dtype=np.float64)
    out = []
    k = net.readout.k
    for s in range(x.shape[0]):
        a = x[s]
        for li, mat in enumerate(net.logits):
            conn = net.topology.connections[li]
            nxt = np.zeros(conn.shape[0])
            for j in range(conn.shape[0]):
                z = np.where(net.gate_mask, mat[j].astype(np.float64), -np.inf)
                z -= z.max()
                p = np.exp(z)
                p /= p.sum()
                acc = 0.0
                for g in range(16):
                    acc += p[g] * float(gates.eval_relaxed(g, a[conn[j, 0]], a[conn[j, 1]]))
                nxt[j] = acc
            a = nxt
        n = len(a)
        sums = a.reshape(k, n // k).sum(axis=1)
        if net.readout.transform == "logit":
            mean = np.clip(sums / (n // k), 1e-7, 1 - 1e-7)
            out.append(np.log(mean / (1 - mean)))
        else:
            out.append(sums / net.readout.tau + net.readout.beta)
    return np.array(out)


def oracle_circuit_outputs(circuit: Circuit, samples: np.ndarray) -> np.ndarray:
    """Truth-table interpreter: output bits as (samples, outputs) uint8."""
    samples = np.asarray(samples, dtype=np.uint8)
    wires = np.empty((circuit.num_wires, samples.shape[0]), dtype=np.uint8)
    wires[: circuit.input_width] = samples.T
    for g in range(circuit.num_gates):
        s1, s2 = circuit.sources[g]
        wires[circuit.input_width + g] = gates.eval_hard(
            int(circuit.opcodes[g]), wires[s1], wires[s2]
        )
    return wires[circuit.output_wires].T


def oracle_circuit_counts(circuit: Circuit, samples: np.ndarray) -> np.ndarray:
    """Per-class popcounts of the output bits, (samples, k) ints."""
    bits = oracle_circuit_outputs(circuit, samples)
    k = circuit.readout.k
    return bits.reshape(bits.shape[0], k, -1).sum(axis=2).astype(np.int64)


def random_layered_circuit(
    rng: np.random.Generator,
    input_width: int,
    widths: list[int],
    k: int,
    transform: str = "none",
) -> Circuit:
    """A random strictly layered circuit (uniform wiring, ~uniform opcodes)."""
    seed = int(rng.integers(2**31))
    topo = build_topology(seed, [input_width, *widths])
    net = LogicNet(topo, init_params(topo, seed), ReadoutConfig(k=k, transform=transform))
    return discretize(net)


def random_small_net(rng: np.random.Generator, dtype=np.float64, mask: int = 0xFFFF) -> LogicNet:
    """A tiny random network for gradient checks; float64 by default."""
    depth = int(rng.integers(1, 4))
    input_width = int(rng.integers(2, 9))
    width = int(rng.integers(2, 17))
    k = int(rng.choice([d for d in range(1, width + 1) if width % d == 0]))
    topo = build_topology(int(rng.integers(2**31)), [input_width] + [width] * depth)
    logits = [m.astype(dtype) for m in init_params(topo, int(rng.integers(2**31)))]
    tau = float(rng.uniform(0.5, 3.0))
    beta = float(rng.uniform(-0.5, 0.5))
    return LogicNet(topo, logits, ReadoutConfig(k=k, tau=tau, beta=beta), allowed_gates=mask)


class ToyData:
    """Minimal stand-in for a loaded dataset."""

    def __init__(self, features, labels, class_count=None):
        self.features = np.asarray(features, dtype=np.uint8)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.width = self.features.shape[1]
        self.class_count = class_count or (int(self.labels.max()) + 1 if len(self.labels) else 0)
        self.split = "toy"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)
