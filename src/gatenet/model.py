"""Core model types: wiring topology, trainable gate mixtures, Boolean circuits.

A network is a stack of equal-width gate layers over a fixed random wiring.
Each neuron owns 16 logits; the softmax over them mixes the 16 relaxed gates
applied to its two (fixed, distinct) inputs from the previous layer. Training
moves the logits; discretization snaps each neuron to its argmax gate and
yields a :class:`Circuit` of pure Boolean gates over global wire ids.

Wire numbering in a circuit: inputs occupy wires 0 .. input_width-1, then
gates follow in topological order (a gate's sources always have smaller wire
ids than its own). A freshly discretized circuit is strictly layered; pruning
may rewire consumers across layers, which this representation allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates

ALL_GATES_MASK = 0xFFFF


def mask_to_bools(mask: int) -> np.ndarray:
    """Expand a 16-bit allowed-gate mask into a (16,) boolean array."""
    mask = int(mask)
    if not 0 < mask <= ALL_GATES_MASK:
        raise ValueError("gate mask must have at least one of the 16 low bits set")
    return np.array([(mask >> g) & 1 == 1 for g in range(gates.NUM_GATES)], dtype=bool)


@dataclass(frozen=True)
class ReadoutConfig:
    """Group-sum readout: k contiguous output groups, scores = sum/tau + beta."""

    k: int
    tau: float = 1.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("readout needs k >= 1 groups")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"readout tau must be finite and positive, got {self.tau}")
        if not np.isfinite(self.beta):
            raise ValueError(f"readout beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class NetworkTopology:
    """Fixed wiring: layer widths plus, per gate layer, each neuron's input pair."""

    layer_widths: tuple[int, ...]
    connections: tuple[np.ndarray, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.layer_widths) < 2:
            raise ValueError("need an input layer and at least one gate layer")
        if any(w < 2 for w in self.layer_widths):
            raise ValueError("every layer width must be >= 2 (neurons draw distinct input pairs)")
        if len(self.connections) != len(self.layer_widths) - 1:
            raise ValueError("one connection table per gate layer required")
        for li, conn in enumerate(self.connections):
            prev, width = self.layer_widths[li], self.layer_widths[li + 1]
            if conn.shape != (width, 2):
                raise ValueError(f"layer {li}: connection table shape {conn.shape} != ({width}, 2)")
            if conn.min(initial=0) < 0 or conn.max(initial=-1) >= prev:
                raise ValueError(f"layer {li}: connection index out of range [0, {prev})")
            if np.any(conn[:, 0] == conn[:, 1]):
                raise ValueError(f"layer {li}: a neuron's two inputs must be distinct")
            conn.setflags(write=False)

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]

    @property
    def num_gate_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def num_neurons(self) -> int:
        return sum(self.layer_widths[1:])


def build_topology(seed: int, layer_widths) -> NetworkTopology:
    """Balanced covering wiring, deterministic under (seed, widths).

    The previous layer's wires fill the 2*width input slots of each layer as
    evenly as possible, so every wire is consumed at least once whenever
    capacity allows (2*width >= prev). A seeded relabeling and slot shuffle
    randomize which wires meet at a gate. Plain per-neuron uniform sampling
    would instead drop each input wire with probability (1-1/prev)^(2*width),
    which on narrow nets severs inputs the target function depends on.
    """
    widths = tuple(int(w) for w in layer_widths)
    rng = np.random.default_rng([0, seed])
    conns = []
    for li in range(1, len(widths)):
        prev, width = widths[li - 1], widths[li]
        if prev < 2:
            raise ValueError("every layer width must be >= 2 (neurons draw distinct input pairs)")
        slots = rng.permutation(2 * width) % prev
        slots = rng.permutation(prev)[slots]
        i1, i2 = slots[:width].copy(), slots[width:].copy()
        collide = i1 == i2
        if collide.any():
            redraw = rng.integers(0, prev - 1, size=int(collide.sum()))
            redraw += redraw >= i1[collide]  # shift past i1: keep pairs distinct
            i2[collide] = redraw
        conns.append(np.stack([i1, i2], axis=1).astype(np.int32))
    return NetworkTopology(widths, tuple(conns), seed=int(seed))


def init_params(topology: NetworkTopology, seed: int, dtype=np.float32) -> list[np.ndarray]:
    """Independent N(0,1) logits for every neuron, deterministic under seed."""
    rng = np.random.default_rng([1, seed])
    return [
        rng.standard_normal((w, gates.NUM_GATES)).astype(dtype)
        for w in topology.layer_widths[1:]
    ]


def gate_probs(
    logits: np.ndarray, allowed: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Softmax over the 16 gates of the last axis; disallowed gates get mass 0.

    Computes in the logits' dtype (integers in float64), written into ``out``
    when given. The row maximum it subtracts is taken as pairwise maxima of
    even and odd columns, which is exact and, as each step runs as one flat
    strided loop, much faster than ``max(axis=-1)`` over 16 columns.
    """
    z = np.asarray(logits)
    if out is None:
        out = np.empty(z.shape, np.result_type(z.dtype, np.float32))
    np.copyto(out, z)
    if allowed is not None:
        out[..., ~allowed] = -np.inf
    top = out
    while top.shape[-1] > 1:
        top = np.maximum(top[..., 0::2], top[..., 1::2])
    out -= top
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


@dataclass
class LogicNet:
    """A trainable network: fixed topology plus per-neuron gate logits."""

    topology: NetworkTopology
    logits: list[np.ndarray]
    readout: ReadoutConfig
    allowed_gates: int = ALL_GATES_MASK

    def __post_init__(self) -> None:
        widths = self.topology.layer_widths
        if len(self.logits) != self.topology.num_gate_layers:
            raise ValueError("one logit matrix per gate layer required")
        for li, mat in enumerate(self.logits):
            if mat.shape != (widths[li + 1], gates.NUM_GATES):
                raise ValueError(f"layer {li}: logits shape {mat.shape} != ({widths[li + 1]}, 16)")
        if self.topology.output_width % self.readout.k:
            raise ValueError(
                f"output width {self.topology.output_width} not divisible by k={self.readout.k}"
            )
        self.gate_mask = mask_to_bools(self.allowed_gates)

    @property
    def input_width(self) -> int:
        return self.topology.input_width

    @property
    def dtype(self):
        return self.logits[0].dtype


@dataclass(eq=False, frozen=True)
class Circuit:
    """A pure Boolean gate netlist over global wire ids.

    ``sources[g]`` are the two input wires of gate ``g`` (wire id of gate g is
    ``input_width + g``); both are strictly smaller than the gate's own wire,
    so gates are topologically ordered. ``layer_sizes`` partitions the gates
    into bands (the training layers, plus one band of counter gates in an
    adder aggregation). ``output_wires`` lists the wires the readout
    counts, group-major.

    The circuit is frozen and keeps its own read-only copies of
    ``sources``, ``opcodes``, ``output_wires`` and ``max_probs``: scoring
    caches a plan and a pruned form on the instance, so an edit, in place or
    by assignment, would be scored stale. Build a new circuit
    (``dataclasses.replace``, which validates it again) to change one.
    """

    input_width: int
    layer_sizes: tuple[int, ...]
    sources: np.ndarray
    opcodes: np.ndarray
    output_wires: np.ndarray
    readout: ReadoutConfig
    seed: int = 0
    max_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        dtypes = {"sources": np.uint32, "opcodes": np.uint8, "output_wires": np.uint32,
                  "max_probs": None}
        for name, dtype in dtypes.items():
            if getattr(self, name) is not None:  # frozen: set through object
                object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        g = self.num_gates
        if self.input_width < 1:
            raise ValueError("circuit needs at least one input")
        if sum(self.layer_sizes) != g:
            raise ValueError("layer_sizes must sum to the gate count")
        if self.sources.shape != (g, 2):
            raise ValueError("sources must have shape (gates, 2)")
        if g and self.opcodes.max() > 15:
            raise ValueError("opcodes must lie in [0, 15]")
        own = self.input_width + np.arange(g, dtype=np.int64)
        if g and np.any(self.sources.astype(np.int64).max(axis=1) >= own):
            raise ValueError("gate sources must reference strictly earlier wires")
        if len(self.output_wires) and self.output_wires.max() >= self.num_wires:
            raise ValueError("output wire out of range")
        if len(self.output_wires) % self.readout.k:
            raise ValueError("output count not divisible by readout k")
        if self.max_probs is not None and len(self.max_probs) != g:
            raise ValueError("need one max-probability entry per gate")

    @property
    def num_gates(self) -> int:
        return int(self.opcodes.shape[0])

    @property
    def num_wires(self) -> int:
        return self.input_width + self.num_gates

    @property
    def group_size(self) -> int:
        return len(self.output_wires) // self.readout.k

    def layer_slices(self) -> list[slice]:
        """Gate-index slice of each band in layer_sizes."""
        out, base = [], 0
        for w in self.layer_sizes:
            out.append(slice(base, base + w))
            base += w
        return out

    def levels(self) -> np.ndarray:
        """Dependency level of every gate: inputs are level 0, a gate is 1 + its deeper source.

        Every gate is updated at once, repeatedly, until no level changes;
        levels only grow toward their final values, so that takes depth + 1
        vectorised sweeps.
        """
        level = np.zeros(self.num_wires, dtype=np.int64)
        first, second = np.ascontiguousarray(self.sources.T, dtype=np.intp)
        gates = level[self.input_width :]
        while True:
            nxt = 1 + np.maximum(level[first], level[second])
            if np.array_equal(nxt, gates):
                return nxt
            gates[:] = nxt


def _read_only(array, dtype=None) -> np.ndarray:
    """A C-contiguous read-only copy of ``array``."""
    out = np.array(array, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def discretize(net: LogicNet) -> Circuit:
    """Snap every neuron to its most probable gate.

    Ties break toward the lowest gate id; gates outside the allowed mask are
    never chosen. Records each neuron's winning softmax probability as a
    convergence diagnostic (1.0 means fully saturated).
    """
    widths = net.topology.layer_widths
    opcodes, max_probs, sources = [], [], []
    prev_base = 0  # wire id where the sources' layer starts
    for li, mat in enumerate(net.logits):
        z = np.where(net.gate_mask, mat.astype(np.float64), -np.inf)
        opcodes.append(np.argmax(z, axis=1).astype(np.uint8))
        max_probs.append(gate_probs(mat.astype(np.float64), net.gate_mask).max(axis=1))
        sources.append(net.topology.connections[li].astype(np.uint32) + np.uint32(prev_base))
        prev_base = widths[0] if li == 0 else prev_base + widths[li]
    n_out = widths[-1]
    first_out = net.input_width + sum(widths[1:-1])
    return Circuit(
        input_width=net.input_width,
        layer_sizes=tuple(widths[1:]),
        sources=np.concatenate(sources, axis=0),
        opcodes=np.concatenate(opcodes),
        output_wires=np.arange(first_out, first_out + n_out, dtype=np.uint32),
        readout=net.readout,
        seed=net.topology.seed,
        max_probs=np.concatenate(max_probs),
    )
