"""Round trips, byte-layout pins, and corruption handling for model files."""

import hashlib
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import check_equivalence, random_layered_circuit, random_small_net, structurally_equal
from gatenet.model import ReadoutConfig, build_topology, init_params, LogicNet
from gatenet.modelfile import (
    ModelFileError,
    load_model,
    pack_opcodes,
    save_model,
    unpack_opcodes,
)
from gatenet.opt import prune
from gatenet.packed import build_adder_aggregation, circuit_scores
from gatenet.relaxed import forward_relaxed


class TestOpcodeNibbles:
    def test_known_bytes(self):
        assert pack_opcodes(np.array([1, 6, 15])) == bytes([0x61, 0x0F])
        assert pack_opcodes(np.array([1, 6, 15, 8])) == bytes([0x61, 0x8F])

    def test_round_trip_all_lengths(self):
        rng = np.random.default_rng(2)
        for n in range(0, 17):
            ops = rng.integers(0, 16, size=n).astype(np.uint8)
            blob = pack_opcodes(ops)
            assert len(blob) == (n + 1) // 2
            np.testing.assert_array_equal(unpack_opcodes(blob, n), ops)


class TestCheckpointRoundTrip:
    def test_identical_evaluation(self, rng):
        net = random_small_net(rng, dtype=np.float32, mask=0x7FFF)
        path = os.path.join(os.environ.get("TMPDIR", "/tmp"), "ckpt_test.gnet")
        save_model(net, path)
        loaded = load_model(path)
        assert isinstance(loaded, LogicNet)
        assert loaded.topology.layer_widths == net.topology.layer_widths
        assert loaded.allowed_gates == net.allowed_gates
        assert loaded.readout == net.readout
        assert loaded.topology.seed == net.topology.seed
        for a, b in zip(loaded.logits, net.logits):
            np.testing.assert_array_equal(a, b)
        x = rng.integers(0, 2, size=(40, net.input_width)).astype(np.float32)
        np.testing.assert_array_equal(
            forward_relaxed(loaded, x).scores, forward_relaxed(net, x).scores
        )

    def test_float64_logits_stored_as_f32(self, rng, tmp_path):
        net = random_small_net(rng)  # float64
        path = str(tmp_path / "m.gnet")
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.logits[0].dtype == np.float32
        np.testing.assert_allclose(loaded.logits[0], net.logits[0], rtol=1e-6)


class TestCircuitRoundTrip:
    def test_structure_and_scores(self, rng, tmp_path):
        c = random_layered_circuit(rng, 9, [12, 8], k=2)
        path = str(tmp_path / "c.gnet")
        save_model(c, path)
        loaded = load_model(path)
        assert structurally_equal(loaded, c)
        assert loaded.seed == c.seed
        np.testing.assert_allclose(loaded.max_probs, c.max_probs, rtol=1e-6)
        x = rng.integers(0, 2, size=(100, 9), dtype=np.uint8)
        np.testing.assert_array_equal(circuit_scores(loaded, x), circuit_scores(c, x))

    def test_pruned_and_counter_circuits(self, rng, tmp_path):
        base = random_layered_circuit(rng, 8, [10, 6], k=2)
        for name, c in (("pruned", prune(base)), ("adder", build_adder_aggregation(base))):
            path = str(tmp_path / f"{name}.gnet")
            save_model(c, path)
            loaded = load_model(path)
            assert structurally_equal(loaded, c)
            x = rng.integers(0, 2, size=(64, 8), dtype=np.uint8)
            np.testing.assert_array_equal(circuit_scores(loaded, x), circuit_scores(c, x))

    def test_file_size_matches_documented_layout(self, rng, tmp_path):
        c = random_layered_circuit(rng, 7, [9, 5], k=1)
        path = str(tmp_path / "c.gnet")
        save_model(c, path)
        g = c.num_gates
        expected = (
            4 + 2 + 1 + 8  # magic, version, kind, seed
            + 4 + 4 + 4 * len(c.layer_sizes)  # input width, band count, bands
            + 8 * g  # sources
            + (g + 1) // 2  # packed opcodes
            + 4 + 4 * len(c.output_wires)  # output count + wires
            + (4 + 8 + 8 + 1)  # readout
            + 1 + 4 * g  # max-probs flag + values
            + 1  # counter flag
            + 8  # checksum
        )
        assert os.path.getsize(path) == expected


class TestCorruption:
    def make_file(self, rng, tmp_path):
        c = random_layered_circuit(rng, 6, [8], k=2)
        path = str(tmp_path / "c.gnet")
        save_model(c, path)
        return c, path

    def test_bit_flip_detected_by_checksum(self, rng, tmp_path):
        _, path = self.make_file(rng, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x40
        open(path, "wb").write(bytes(data))
        with pytest.raises(ModelFileError, match="checksum"):
            load_model(path)

    def test_truncation_detected(self, rng, tmp_path):
        _, path = self.make_file(rng, tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-5])
        with pytest.raises(ModelFileError, match="checksum|short"):
            load_model(path)
        open(path, "wb").write(data[:3])
        with pytest.raises(ModelFileError, match="short"):
            load_model(path)

    def test_bad_magic_version_kind(self, rng, tmp_path):
        _, path = self.make_file(rng, tmp_path)
        data = bytearray(open(path, "rb").read())

        def rewrite(mutate):
            copy = bytearray(data)
            mutate(copy)
            copy[-8:] = hashlib.sha256(bytes(copy[:-8])).digest()[:8]
            open(path, "wb").write(bytes(copy))

        rewrite(lambda d: d.__setitem__(slice(0, 4), b"XXXX"))
        with pytest.raises(ModelFileError, match="magic"):
            load_model(path)
        rewrite(lambda d: d.__setitem__(slice(4, 6), struct.pack("<H", 9)))
        with pytest.raises(ModelFileError, match="version"):
            load_model(path)
        rewrite(lambda d: d.__setitem__(6, 7))
        with pytest.raises(ModelFileError, match="kind"):
            load_model(path)

    def test_readout_transform_byte_other_than_zero_rejected(self, rng, tmp_path):
        c, path = self.make_file(rng, tmp_path)
        data = bytearray(open(path, "rb").read())
        g = c.num_gates
        readout_offset = (
            4 + 2 + 1 + 8 + 4 + 4 + 4 * len(c.layer_sizes) + 8 * g + (g + 1) // 2
            + 4 + 4 * len(c.output_wires)
        )
        transform_offset = readout_offset + 4 + 8 + 8  # after k, tau and beta
        assert data[transform_offset] == 0
        data[transform_offset] = 1
        data[-8:] = hashlib.sha256(bytes(data[:-8])).digest()[:8]
        open(path, "wb").write(bytes(data))
        with pytest.raises(ModelFileError, match="readout transform byte is 1"):
            load_model(path)

    def test_counter_bits_flag_rejected(self, rng, tmp_path):
        # an adder circuit is saved as a plain circuit, its flag 00 like any other
        c = build_adder_aggregation(random_layered_circuit(rng, 6, [8], k=2))
        path = str(tmp_path / "adder.gnet")
        save_model(c, path)
        data = bytearray(open(path, "rb").read())
        assert data[-9] == 0  # the last field, before the checksum
        data[-9] = 1
        data[-8:] = hashlib.sha256(bytes(data[:-8])).digest()[:8]
        open(path, "wb").write(bytes(data))
        with pytest.raises(
            ModelFileError, match="counter bits flag byte is 1; .* built at emit time, not stored"
        ):
            load_model(path)

    @pytest.mark.parametrize("name", ["max probs", "counter bits"])
    def test_flag_bytes_other_than_0_or_1_rejected(self, rng, tmp_path, name):
        c, path = self.make_file(rng, tmp_path)
        data = bytearray(open(path, "rb").read())
        g = c.num_gates
        flag = -9 if name == "counter bits" else -9 - 4 * g - 1  # before the checksum
        assert data[flag] == (0 if name == "counter bits" else 1)
        data[flag] = 7
        data[-8:] = hashlib.sha256(bytes(data[:-8])).digest()[:8]
        open(path, "wb").write(bytes(data))
        with pytest.raises(ModelFileError, match=f"{name} flag byte is 7"):
            load_model(path)

    def test_opcode_flip_with_fixed_checksum_changes_semantics(self, rng, tmp_path):
        c, path = self.make_file(rng, tmp_path)
        data = bytearray(open(path, "rb").read())
        opcode_offset = 4 + 2 + 1 + 8 + 4 + 4 + 4 * len(c.layer_sizes) + 8 * c.num_gates
        data[opcode_offset] ^= 0x01  # flip the (1,1) row of gate 0's truth table
        data[-8:] = hashlib.sha256(bytes(data[:-8])).digest()[:8]
        open(path, "wb").write(bytes(data))
        loaded = load_model(path)  # structurally valid, semantically different
        report = check_equivalence(c, loaded)
        assert not report.equivalent and report.counterexample is not None

    def test_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "junk.gnet")
        open(path, "wb").write(os.urandom(64))
        with pytest.raises(ModelFileError):
            load_model(path)
        with pytest.raises(ModelFileError, match="cannot read"):
            load_model(str(tmp_path / "absent.gnet"))

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model({"not": "a model"}, str(tmp_path / "x.gnet"))


class TestNonFiniteValues:
    """Values that load but that ``discretize`` and the readout cannot use."""

    @pytest.mark.parametrize(
        "layer, neuron, value", [(0, 3, np.inf), (1, 0, np.nan), (1, 2, -np.inf)]
    )
    def test_non_finite_logits_rejected(self, tmp_path, layer, neuron, value):
        topo = build_topology(3, [6, 8, 8])
        net = LogicNet(topo, init_params(topo, 3), ReadoutConfig(k=2))
        net.logits[layer][neuron, 5] = value
        path = str(tmp_path / "net.gnet")
        save_model(net, path)
        with pytest.raises(ModelFileError, match=f"logits of layer {layer} holds {value}"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.25, 1.5])
    def test_max_probs_not_finite_or_outside_unit_interval_rejected(self, rng, tmp_path, value):
        c = random_layered_circuit(rng, 6, [8, 8], k=2)
        max_probs = np.full(c.num_gates, 0.5)
        max_probs[8 + 2] = value  # the third gate of layer 1
        c = replace(c, max_probs=max_probs)
        path = str(tmp_path / "c.gnet")
        save_model(c, path)
        with pytest.raises(ModelFileError, match=f"max probs of layer 1 holds {value}"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("tau", np.inf), ("beta", np.nan), ("beta", -np.inf)])
    def test_non_finite_readout_rejected(self, rng, tmp_path, field, value):
        c = random_layered_circuit(rng, 6, [8], k=2)
        path = str(tmp_path / "c.gnet")
        save_model(c, path)
        data = bytearray(open(path, "rb").read())
        g = c.num_gates
        readout_offset = (
            4 + 2 + 1 + 8 + 4 + 4 + 4 * len(c.layer_sizes) + 8 * g + (g + 1) // 2
            + 4 + 4 * len(c.output_wires)
        )
        at = readout_offset + (4 if field == "tau" else 12)  # after k, or after k and tau
        assert struct.unpack_from("<d", data, at)[0] == getattr(c.readout, field)
        struct.pack_into("<d", data, at, value)
        data[-8:] = hashlib.sha256(bytes(data[:-8])).digest()[:8]
        open(path, "wb").write(bytes(data))
        with pytest.raises(ModelFileError, match=f"readout {field} must be finite.*, got {value}"):
            load_model(path)

    def test_bounds_of_the_unit_interval_load(self, rng, tmp_path):
        c = random_layered_circuit(rng, 6, [8, 8], k=2)
        c = replace(c, max_probs=np.tile([0.0, 1.0], c.num_gates // 2))
        path = str(tmp_path / "c.gnet")
        save_model(c, path)
        np.testing.assert_array_equal(load_model(path).max_probs, c.max_probs)
