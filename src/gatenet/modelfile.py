"""Binary serialization for checkpoints and circuits.

One file format covers both model kinds. Everything is little-endian, the
wiring is always stored explicitly (the topology seed travels along as
provenance only, never to regenerate connections), and the file ends in a
64-bit truncated SHA-256 so corruption is detected before any field is
trusted. Circuit opcodes pack two gates per byte (4 bits each, even gate in
the low nibble), which is the whole payload a pure circuit needs beyond its
wiring. The full byte layout is documented in docs/formats.md.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .model import Circuit, LogicNet, NetworkTopology, ReadoutConfig

MAGIC = b"GNET"
VERSION = 1
KIND_CHECKPOINT = 0
KIND_CIRCUIT = 1


class ModelFileError(Exception):
    """The file is not a valid model file (bad magic/version/corruption)."""


def _pack_readout(readout: ReadoutConfig) -> bytes:
    return struct.pack("<IddB", readout.k, readout.tau, readout.beta, 0)


def pack_opcodes(opcodes: np.ndarray) -> bytes:
    """Two 4-bit gate ids per byte, even gate in the low nibble."""
    ops = np.asarray(opcodes, dtype=np.uint8)
    padded = np.zeros(2 * ((len(ops) + 1) // 2), dtype=np.uint8)
    padded[: len(ops)] = ops
    return (padded[0::2] | (padded[1::2] << 4)).tobytes()


def unpack_opcodes(blob: bytes, count: int) -> np.ndarray:
    packed = np.frombuffer(blob, dtype=np.uint8)
    ops = np.empty(2 * len(packed), dtype=np.uint8)
    ops[0::2] = packed & 0x0F
    ops[1::2] = packed >> 4
    return ops[:count]


def save_model(model: LogicNet | Circuit, path: str) -> None:
    """Write a checkpoint or circuit for load_model to read back.

    A circuit comes back exactly. A checkpoint's logits are stored as f32, so
    a float32 net comes back exactly and a float64 net rounded to float32.
    """
    parts = [MAGIC]
    if isinstance(model, LogicNet):
        topo = model.topology
        parts.append(struct.pack("<HBq", VERSION, KIND_CHECKPOINT, topo.seed))
        parts.append(struct.pack("<I", len(topo.layer_widths)))
        parts.append(np.asarray(topo.layer_widths, dtype="<u4").tobytes())
        for conn in topo.connections:
            parts.append(conn.astype("<u4").tobytes())
        parts.append(struct.pack("<H", model.allowed_gates))
        parts.append(_pack_readout(model.readout))
        for mat in model.logits:
            parts.append(mat.astype("<f4").tobytes())
    elif isinstance(model, Circuit):
        parts.append(struct.pack("<HBq", VERSION, KIND_CIRCUIT, model.seed))
        parts.append(struct.pack("<II", model.input_width, len(model.layer_sizes)))
        parts.append(np.asarray(model.layer_sizes, dtype="<u4").tobytes())
        parts.append(model.sources.astype("<u4").tobytes())
        parts.append(pack_opcodes(model.opcodes))
        parts.append(struct.pack("<I", len(model.output_wires)))
        parts.append(model.output_wires.astype("<u4").tobytes())
        parts.append(_pack_readout(model.readout))
        if model.max_probs is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + model.max_probs.astype("<f4").tobytes())
        parts.append(b"\x00")  # counter bits: adder circuits are never stored
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    blob = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(hashlib.sha256(blob).digest()[:8])


class _Reader:
    """Cursor over the checksummed region with truncation checks."""

    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ModelFileError(f"{self.path}: truncated (needed {n} more bytes)")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt)

    def done(self) -> None:
        if self.pos != len(self.blob):
            raise ModelFileError(f"{self.path}: {len(self.blob) - self.pos} trailing bytes")


def _read_readout(r: _Reader) -> ReadoutConfig:
    k, tau, beta, code = r.unpack("<IddB")
    if code != 0:
        raise ModelFileError(
            f"{r.path}: readout transform byte is {code}; only 0 (sum/tau + beta) exists"
        )
    return ReadoutConfig(k=int(k), tau=tau, beta=beta)


def _require_in_range(path: str, field: str, layers, unit: bool = False) -> None:
    """Reject a non-finite value in any layer, or with ``unit`` one outside [0, 1]."""
    for li, values in enumerate(layers):
        bad = ~np.isfinite(values) | (unit & ((values < 0) | (values > 1)))
        if bad.any():
            want = "finite and within [0, 1]" if unit else "finite"
            raise ModelFileError(
                f"{path}: {field} of layer {li} holds {values[bad][0]}; every value must be {want}"
            )


def load_model(path: str) -> LogicNet | Circuit:
    """Read a model file back; validates checksum, magic, and structure."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if len(data) < len(MAGIC) + 8:
        raise ModelFileError(f"{path}: too short to be a model file")
    blob, digest = data[:-8], data[-8:]
    if hashlib.sha256(blob).digest()[:8] != digest:
        raise ModelFileError(f"{path}: checksum mismatch (file is corrupt or truncated)")
    r = _Reader(blob, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise ModelFileError(f"{path}: bad magic (not a model file)")
    version, kind, seed = r.unpack("<HBq")
    if version != VERSION:
        raise ModelFileError(f"{path}: unsupported format version {version}")
    try:
        if kind == KIND_CHECKPOINT:
            (n_widths,) = r.unpack("<I")
            widths = tuple(int(w) for w in r.array("<u4", n_widths))
            if len(widths) < 2:
                raise ModelFileError(f"{path}: checkpoint needs at least two layer widths")
            conns = tuple(
                r.array("<u4", 2 * widths[li + 1]).reshape(widths[li + 1], 2).astype(np.int32)
                for li in range(len(widths) - 1)
            )
            (mask,) = r.unpack("<H")
            readout = _read_readout(r)
            logits = [
                r.array("<f4", 16 * widths[li + 1]).reshape(widths[li + 1], 16).copy()
                for li in range(len(widths) - 1)
            ]
            r.done()
            _require_in_range(path, "logits", logits)
            topo = NetworkTopology(widths, conns, seed=int(seed))
            return LogicNet(topo, logits, readout, allowed_gates=int(mask))
        if kind == KIND_CIRCUIT:
            input_width, n_bands = r.unpack("<II")
            layer_sizes = tuple(int(s) for s in r.array("<u4", n_bands))
            n_gates = sum(layer_sizes)
            sources = r.array("<u4", 2 * n_gates).reshape(n_gates, 2)
            opcodes = unpack_opcodes(r.take((n_gates + 1) // 2), n_gates)
            (n_out,) = r.unpack("<I")
            output_wires = r.array("<u4", n_out)
            readout = _read_readout(r)
            max_probs = None
            (flag,) = r.take(1)
            if flag > 1:
                raise ModelFileError(f"{path}: max probs flag byte is {flag}; only 0 and 1 exist")
            if flag:
                max_probs = r.array("<f4", n_gates).astype(np.float64)
                bands = np.split(max_probs, np.cumsum(layer_sizes)[:-1].astype(np.int64))
                _require_in_range(path, "max probs", bands, unit=True)
            (counters,) = r.take(1)
            if counters != 0:
                raise ModelFileError(
                    f"{path}: counter bits flag byte is {counters}; only 0 exists, as adder "
                    "circuits are built at emit time, not stored"
                )
            r.done()
            return Circuit(
                input_width=int(input_width),
                layer_sizes=layer_sizes,
                sources=sources,
                opcodes=opcodes,
                output_wires=output_wires,
                readout=readout,
                seed=int(seed),
                max_probs=max_probs,
            )
    except ValueError as exc:
        raise ModelFileError(f"{path}: invalid model structure: {exc}") from exc
    raise ModelFileError(f"{path}: unknown model kind {kind}")
