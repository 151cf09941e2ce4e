"""Topology, relaxed forward/backward, readout, and discretization."""

import sys
import tracemalloc

import numpy as np
import pytest

from conftest import oracle_net_forward, random_small_net
from gatenet import relaxed
from gatenet.model import (
    LogicNet,
    NetworkTopology,
    ReadoutConfig,
    build_topology,
    discretize,
    gate_probs,
    init_params,
    mask_to_bools,
)
from gatenet.relaxed import ForwardCache, backward, forward_relaxed


class TestTopology:
    def test_deterministic_under_seed(self):
        t1 = build_topology(42, [17, 24, 24])
        t2 = build_topology(42, [17, 24, 24])
        for c1, c2 in zip(t1.connections, t2.connections):
            np.testing.assert_array_equal(c1, c2)

    def test_different_seeds_differ(self):
        t1 = build_topology(1, [64, 64, 64])
        t2 = build_topology(2, [64, 64, 64])
        assert any(
            not np.array_equal(c1, c2) for c1, c2 in zip(t1.connections, t2.connections)
        )

    def test_pairs_in_range_and_distinct(self):
        topo = build_topology(7, [784, 800, 800, 800])
        for li, conn in enumerate(topo.connections):
            prev = topo.layer_widths[li]
            assert conn.min() >= 0 and conn.max() < prev
            assert not np.any(conn[:, 0] == conn[:, 1])

    def test_every_wire_consumed_when_capacity_allows(self):
        # 2*width >= prev: the covering construction must not drop any input
        for seed, widths in ((3, [32, 4096]), (0, [17, 12, 12]), (5, [17, 9])):
            topo = build_topology(seed, widths)
            for li, conn in enumerate(topo.connections):
                prev = topo.layer_widths[li]
                if 2 * topo.layer_widths[li + 1] >= prev:
                    assert len(np.unique(conn)) == prev, (seed, widths, li)

    def test_balanced_slot_multiplicity(self):
        # 480 slots over 24 wires: exactly 20 each before collision
        # resampling, which perturbs a handful of counts by one
        topo = build_topology(11, [24, 240])
        counts = np.bincount(topo.connections[0].ravel(), minlength=24)
        assert counts.sum() == 480
        assert counts.min() >= 15 and counts.max() <= 25
        assert np.abs(counts - 20).sum() <= 2 * 240 // 24

    def test_narrow_layer_uses_distinct_wires(self):
        # 2*width < prev degenerates to sampling without replacement
        topo = build_topology(2, [33, 16])
        conn = topo.connections[0]
        assert len(np.unique(conn)) == 32

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            build_topology(0, [17, 1])
        with pytest.raises(ValueError):
            build_topology(0, [1, 8])

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            build_topology(0, [17])

    def test_connections_immutable(self):
        topo = build_topology(0, [8, 8])
        with pytest.raises(ValueError):
            topo.connections[0][0, 0] = 3

    def test_invalid_connection_tables_rejected(self):
        bad_pair = np.array([[0, 0], [1, 2]], dtype=np.int32)
        with pytest.raises(ValueError):
            NetworkTopology((4, 2), (bad_pair,))
        out_of_range = np.array([[0, 4], [1, 2]], dtype=np.int32)
        with pytest.raises(ValueError):
            NetworkTopology((4, 2), (out_of_range,))


class TestInitParams:
    def test_standard_normal_moments(self):
        topo = build_topology(1, [100, 5000, 5000])
        logits = init_params(topo, seed=5)
        flat = np.concatenate([m.ravel() for m in logits])
        assert len(flat) >= 10**5
        assert abs(flat.mean()) < 0.01
        assert 0.99 < flat.std() < 1.01

    def test_deterministic_and_seed_sensitive(self):
        topo = build_topology(1, [8, 8, 8])
        a = init_params(topo, 3)
        b = init_params(topo, 3)
        c = init_params(topo, 4)
        for m1, m2 in zip(a, b):
            np.testing.assert_array_equal(m1, m2)
        assert any(not np.array_equal(m1, m3) for m1, m3 in zip(a, c))


def one_gate_scores(logits: np.ndarray) -> np.ndarray:
    """Scores at the four corners of a layer whose two neurons share ``logits``.

    The neurons read (a, b) and (b, a), and k=2 gives each its own group, so
    with tau 1 and beta 0 every score is one neuron's output.
    """
    topo = NetworkTopology((2, 2), (np.array([[0, 1], [1, 0]], dtype=np.int32),))
    net = LogicNet(topo, [np.stack([logits, logits])], ReadoutConfig(k=2))
    return forward_relaxed(net, np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])).scores


def saturated_gate_scores(opcodes: list[int], readout: ReadoutConfig) -> np.ndarray:
    """Scores of one row through a layer of constant gates, one per output."""
    topo = build_topology(0, [2, len(opcodes)])
    logits = np.where(np.arange(16) == np.array(opcodes)[:, None], 60.0, 0.0)
    return forward_relaxed(LogicNet(topo, [logits], readout), np.array([[0.0, 1.0]])).scores


class TestNeuronForward:
    def test_uniform_logits_give_half_at_corners(self):
        # 8 of the 16 truth tables are 1 at any fixed corner
        np.testing.assert_allclose(one_gate_scores(np.zeros(16)), 0.5, atol=1e-12)

    def test_saturated_xor(self):
        w = np.zeros(16)
        w[6] = 40.0
        want = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(one_gate_scores(w), want, atol=1e-12)


class TestGroupSum:
    def test_stated_example(self):
        out = saturated_gate_scores([15, 0, 15, 15], ReadoutConfig(k=2, tau=2.0))
        np.testing.assert_allclose(out, [[0.5, 1.0]], atol=1e-12)

    def test_beta_offset(self):
        out = saturated_gate_scores([0] * 6, ReadoutConfig(k=3, beta=0.3))
        np.testing.assert_allclose(out, [[0.3, 0.3, 0.3]], atol=1e-12)

    @pytest.mark.parametrize(
        "field, value",
        [("tau", np.inf), ("tau", np.nan), ("beta", np.nan), ("beta", np.inf), ("beta", -np.inf)],
    )
    def test_non_finite_tau_or_beta_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^readout {field} must be finite"):
            ReadoutConfig(k=2, **{field: value})

    def test_argmax_invariant_under_beta_and_tau(self, rng):
        topo = build_topology(1, [8, 12])
        logits = init_params(topo, 1, dtype=np.float64)
        x = rng.uniform(0, 1, size=(5, 8))
        base = forward_relaxed(LogicNet(topo, logits, ReadoutConfig(k=4)), x).scores
        readout = ReadoutConfig(k=4, tau=3.7, beta=-2.0)
        shifted = forward_relaxed(LogicNet(topo, logits, readout), x).scores
        np.testing.assert_array_equal(base.argmax(axis=1), shifted.argmax(axis=1))


class TestForwardRelaxed:
    def test_matches_scalar_oracle(self, rng):
        for _ in range(10):
            net = random_small_net(rng)
            x = rng.uniform(0, 1, size=(7, net.input_width))
            got = forward_relaxed(net, x).scores
            want = oracle_net_forward(net, x)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_activations_stay_in_unit_interval(self, rng):
        for _ in range(5):
            net = random_small_net(rng)
            x = rng.uniform(0, 1, size=(9, net.input_width))
            cache = forward_relaxed(net, x)
            for act in cache.acts:
                assert act.min() >= -1e-12 and act.max() <= 1 + 1e-12

    def test_width_mismatch_rejected(self, rng):
        net = random_small_net(rng)
        with pytest.raises(ValueError):
            forward_relaxed(net, np.zeros((3, net.input_width + 1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_score_the_same_bits_in_any_batch(self, dtype):
        topo = build_topology(4, [20, 600, 600])
        net = LogicNet(topo, init_params(topo, 4, dtype=dtype), ReadoutConfig(k=3))
        x = np.random.default_rng(4).uniform(0, 1, size=(6, 20))
        whole = forward_relaxed(net, x).scores.copy()
        for size in (1, 2):
            parts = [forward_relaxed(net, x[i : i + size]).scores for i in range(0, 6, size)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_saturated_constant_true_network(self):
        topo = build_topology(5, [4, 8, 8])
        logits = [np.zeros((8, 16)) for _ in range(2)]
        for m in logits:
            m[:, 15] = 60.0
        net = LogicNet(topo, logits, ReadoutConfig(k=2, tau=0.5, beta=0.1))
        scores = forward_relaxed(net, np.array([[0.0, 1.0, 0.3, 0.8]])).scores
        np.testing.assert_allclose(scores, 4 / 0.5 + 0.1)


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self, rng):
        net = random_small_net(rng)
        x = rng.uniform(0, 1, size=(4, net.input_width))
        cache = forward_relaxed(net, x)
        grads = backward(net, cache, np.zeros_like(cache.scores))
        for g in grads:
            assert not g.any()

    def test_matches_finite_differences(self, rng):
        # linear functional of the scores so dL/dscores is a constant matrix
        for _ in range(6):
            net = random_small_net(rng)
            x = rng.uniform(0.05, 0.95, size=(3, net.input_width))
            c = rng.standard_normal((3, net.readout.k))

            def loss(nets) -> float:
                return float((forward_relaxed(nets, x).scores * c).sum())

            cache = forward_relaxed(net, x)
            grads = backward(net, cache, c)
            h = 1e-5
            for li in range(len(net.logits)):
                idx = (
                    rng.integers(net.logits[li].shape[0], size=6),
                    rng.integers(16, size=6),
                )
                for r, col in zip(*idx):
                    net.logits[li][r, col] += h
                    up = loss(net)
                    net.logits[li][r, col] -= 2 * h
                    down = loss(net)
                    net.logits[li][r, col] += h
                    fd = (up - down) / (2 * h)
                    assert grads[li][r, col] == pytest.approx(fd, abs=1e-7, rel=1e-5)

    def test_symmetric_gate_pairs_get_equal_gradients(self):
        # uniform logits, a1 == a2: swapping the input arguments maps gate 2
        # to gate 4 and gate 3 to gate 5, so their gradients must coincide
        topo = NetworkTopology((2, 2), (np.array([[0, 1], [1, 0]], dtype=np.int32),))
        net = LogicNet(topo, [np.zeros((2, 16))], ReadoutConfig(k=1))
        x = np.array([[0.77, 0.77], [0.2, 0.2]])
        cache = forward_relaxed(net, x)
        grads = backward(net, cache, np.ones((2, 1)))
        np.testing.assert_allclose(grads[0][:, 2], grads[0][:, 4], atol=1e-12)
        np.testing.assert_allclose(grads[0][:, 3], grads[0][:, 5], atol=1e-12)

    def test_stale_cache_rejected(self, rng):
        net = random_small_net(rng)
        other = random_small_net(rng)
        x = rng.uniform(0, 1, size=(2, net.input_width))
        cache = forward_relaxed(net, x)
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((5, net.readout.k + 3)))
        if other.topology.num_gate_layers != net.topology.num_gate_layers:
            with pytest.raises(ValueError):
                backward(other, cache, np.zeros_like(cache.scores))


class TestCacheReuse:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_cache_gives_fresh_results(self, rng, dtype):
        for _ in range(4):
            net = random_small_net(rng, dtype=dtype)
            x, y = rng.uniform(0, 1, size=(2, 6, net.input_width))
            c = rng.standard_normal((6, net.readout.k))
            fresh = forward_relaxed(net, x)
            want_scores = fresh.scores.copy()
            want_grads = [g.copy() for g in backward(net, fresh, c)]
            cache = forward_relaxed(net, y)
            backward(net, cache, -c)
            reused = forward_relaxed(net, x, out=cache)
            assert reused is cache
            np.testing.assert_array_equal(reused.scores, want_scores)
            for got, want in zip(backward(net, reused, c), want_grads):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)

    def test_cache_from_other_net_shape_or_dtype_not_reused(self, rng):
        net = random_small_net(rng, dtype=np.float32)
        x = rng.uniform(0, 1, size=(5, net.input_width))
        cache = forward_relaxed(net, x)
        kept = [a.copy() for a in cache.acts]
        twin = LogicNet(net.topology, [m.copy() for m in net.logits], net.readout)
        net64 = LogicNet(net.topology, [m.astype(np.float64) for m in net.logits], net.readout)
        for other, rows in ((twin, x), (net, x[:4]), (net64, x)):
            got = forward_relaxed(other, rows, out=cache)
            assert got is not cache
            np.testing.assert_array_equal(got.scores, forward_relaxed(other, rows).scores)
        for a, b in zip(cache.acts, kept):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            backward(twin, cache, np.zeros_like(cache.scores))

    def test_reused_step_allocates_less_than_one_activation(self, rng):
        # 784 -> 3x2000 at batch 64: a (2000, 64) float32 array is 512 KB
        topo = build_topology(int(rng.integers(2**31)), [784, 2000, 2000, 2000])
        net = LogicNet(topo, init_params(topo, int(rng.integers(2**31))), ReadoutConfig(k=10))
        x = (rng.uniform(size=(64, 784)) < 0.5).astype(np.float32)
        c = rng.standard_normal((64, 10)).astype(np.float32)
        bound = 2000 * 64 * np.dtype(np.float32).itemsize
        cache = forward_relaxed(net, x)
        backward(net, cache, c)
        forward_relaxed(net, x, out=cache)
        backward(net, cache, c)
        tracemalloc.start()
        try:
            forward_relaxed(net, x, out=cache)
            backward(net, cache, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak} B >= one activation array, {bound} B"


class TestBackwardInPlace:
    """``backward`` writes its gradients over the cache arrays it has consumed."""

    def test_first_backward_holds_t2_t1_and_less_than_one_activation(self, rng):
        # 784 -> 3x2000 at batch 128: a (2000, 128) float32 array is 1 MB, and
        # the scatter wiring and the (2000, 16) scratch stay well below it
        topo = build_topology(int(rng.integers(2**31)), [784, 2000, 2000, 2000])
        net = LogicNet(topo, init_params(topo, int(rng.integers(2**31))), ReadoutConfig(k=10))
        x = (rng.uniform(size=(128, 784)) < 0.5).astype(np.float32)
        c = rng.standard_normal((128, 10)).astype(np.float32)
        backward(net, forward_relaxed(net, x), c)  # imports scipy outside the trace
        cache = forward_relaxed(net, x)
        activation = 2000 * 128 * np.dtype(np.float32).itemsize
        bound = 2 * activation + activation  # t2 | t1, plus one (width, batch) array
        tracemalloc.start()
        try:
            backward(net, cache, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak} B >= t2 | t1 plus one activation, {bound} B"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_spent_cache_must_run_forward_again(self, rng, dtype):
        net = random_small_net(rng, dtype=dtype)
        x = rng.uniform(0, 1, size=(6, net.input_width))
        c = rng.standard_normal((6, net.readout.k))
        want = [g.copy() for g in backward(net, forward_relaxed(net, x), c)]
        cache = forward_relaxed(net, x)
        backward(net, cache, c)
        with pytest.raises(ValueError, match="run forward_relaxed"):
            backward(net, cache, c)
        assert forward_relaxed(net, x, out=cache) is cache
        for got, expected in zip(backward(net, cache, c), want):
            np.testing.assert_array_equal(got, expected)

    def test_gradients_replace_only_what_backward_consumed(self, rng):
        net = random_small_net(rng)
        x = rng.uniform(0, 1, size=(5, net.input_width))
        cache = forward_relaxed(net, x)
        kept = [cache.acts[0].copy(), *(q.copy() for q in cache.mix), cache.scores.copy()]
        grads = backward(net, cache, rng.standard_normal((5, net.readout.k)))
        assert all(g is p for g, p in zip(grads, cache.probs))
        for got, want in zip([cache.acts[0], *cache.mix, cache.scores], kept):
            np.testing.assert_array_equal(got, want)


def cache_bytes(cache: ForwardCache) -> int:
    """Bytes of every array a cache and its scratch hold."""
    arrays = [*vars(cache).values(), *vars(cache.work).values()]
    flat = [a for v in arrays for a in (v if isinstance(v, list) else [v])]
    return sum(a.nbytes for a in flat if isinstance(a, np.ndarray))


class TestScatter:
    """The tables and the kernel of the backward's scatter-add."""

    @pytest.mark.parametrize("seed", range(6))
    def test_tables_equal_those_of_a_stable_sort(self, seed):
        # few previous rows, so most rows are read by many entries and their
        # order within a row is the stable sort's tie-breaking
        rng = np.random.default_rng(seed)
        prev, width = int(rng.integers(2, 40)), int(rng.integers(1, 500))
        conn = rng.integers(0, prev, (width, 2)).astype(np.int32)
        scatter = relaxed._Scatter(conn, prev, np.float32)
        rows = np.concatenate([conn[:, 0], conn[:, 1]])
        order = np.argsort(rows, kind="stable")
        neuron = order % width
        np.testing.assert_array_equal(scatter.halves_cols, order)
        np.testing.assert_array_equal(scatter.d_cols, neuron)
        np.testing.assert_array_equal(scatter.q3_at, 4 * neuron + 3)
        np.testing.assert_array_equal(scatter.q12_at, 4 * neuron + 1 + (order >= width))
        np.testing.assert_array_equal(
            scatter.indptr, np.searchsorted(rows[order], np.arange(prev + 1)))

    def test_kernel_falls_back_to_importing_scipy_sparse(self, rng, monkeypatch):
        topo = build_topology(3, [12, 40, 40, 40])
        net = LogicNet(topo, init_params(topo, 3, dtype=np.float64), ReadoutConfig(k=4))
        x = rng.uniform(0, 1, size=(9, 12))
        c = rng.standard_normal((9, 4))
        runs = []
        for locate in (relaxed._sparsetools_file, lambda: None):  # the file, then no file
            monkeypatch.setattr(relaxed, "_matvecs", None)
            monkeypatch.setattr(relaxed, "_sparsetools_file", locate)
            monkeypatch.delitem(sys.modules, relaxed._SPARSETOOLS, raising=False)
            runs.append([g.copy() for g in backward(net, forward_relaxed(net, x), c)])
        assert "scipy.sparse" in sys.modules
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)


class TestNeuronBlocks:
    """Both passes run their neurons in blocks of ``relaxed.BLOCK_BYTES``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, dtype):
        # 12 -> 50, 50, 40 at batch 9: blocks of 7 rows leave a last block of
        # 1 row in the 50-wide layers and of 5 in the 40-wide one
        topo = build_topology(11, [12, 50, 50, 40])
        net = LogicNet(topo, init_params(topo, 11, dtype=dtype), ReadoutConfig(k=4, tau=2.0))
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, size=(9, 12))
        dscores = rng.standard_normal((9, 4))
        runs = []
        for budget in (7 * 9 * np.dtype(dtype).itemsize, 1 << 30):
            monkeypatch.setattr(relaxed, "BLOCK_BYTES", budget)
            cache = forward_relaxed(net, x)
            assert cache.work.rows == (7 if budget < 1 << 30 else 50)
            runs.append((cache.scores.copy(), [g.copy() for g in backward(net, cache, dscores)]))
        (blocked_scores, blocked_grads), (whole_scores, whole_grads) = runs
        np.testing.assert_array_equal(blocked_scores, whole_scores)
        for got, want in zip(blocked_grads, whole_grads):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("width", [64, 2000])
    @pytest.mark.parametrize("batch", [0, 1, 7, 100, 250])
    def test_nbytes_is_what_empty_allocates(self, width, batch):
        # at the real budget a float32 block is 1024 rows at batch 100 and 409 at 250
        topo = build_topology(5, [784, width, width])
        net = LogicNet(topo, init_params(topo, 5), ReadoutConfig(k=4))
        cache = ForwardCache.empty(net, batch)
        assert cache_bytes(cache) == ForwardCache.nbytes(net, batch)

    def test_operands_are_one_block(self):
        topo = build_topology(6, [784, 5000, 5000])
        net = LogicNet(topo, init_params(topo, 6), ReadoutConfig(k=10))
        work = ForwardCache.empty(net, 100).work
        assert work.a1.shape == work.a2.shape == (relaxed.BLOCK_BYTES // 400, 100)


class TestGateMask:
    def test_masked_gates_get_no_probability_and_no_gradient(self, rng):
        mask = 0b0000000011000010  # allow gates 1, 6, 7 only
        net = random_small_net(rng, mask=mask)
        x = rng.uniform(0, 1, size=(4, net.input_width))
        cache = forward_relaxed(net, x)
        for p in cache.probs:
            assert not p[:, ~net.gate_mask].any()
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        grads = backward(net, cache, np.ones_like(cache.scores))
        for g in grads:
            assert not g[:, ~net.gate_mask].any()

    def test_discretize_never_emits_masked_opcode(self, rng):
        mask = 0b1000000001000010
        allowed = {1, 6, 15}
        for _ in range(5):
            net = random_small_net(rng, mask=mask)
            circ = discretize(net)
            assert set(np.unique(circ.opcodes)) <= allowed

    def test_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            mask_to_bools(0)


class TestDiscretize:
    def test_one_hot_and_tie_break(self):
        topo = build_topology(9, [4, 4])
        logits = [np.zeros((4, 16))]
        logits[0][0, 6] = 10.0  # clear winner
        # row 1: all equal -> lowest id wins (0)
        logits[0][2, 3] = logits[0][2, 9] = 5.0  # tie between 3 and 9 -> 3
        net = LogicNet(topo, logits, ReadoutConfig(k=2))
        circ = discretize(net)
        assert circ.opcodes[0] == 6
        assert circ.opcodes[1] == 0
        assert circ.opcodes[2] == 3

    def test_structure_matches_topology(self, rng):
        net = random_small_net(rng)
        circ = discretize(net)
        widths = net.topology.layer_widths
        assert circ.input_width == widths[0]
        assert circ.layer_sizes == widths[1:]
        assert circ.num_gates == sum(widths[1:])
        assert len(circ.output_wires) == widths[-1]
        # wire sources of layer 0 point at inputs
        first = circ.layer_slices()[0]
        assert circ.sources[first].max() < widths[0]

    def test_max_probs_recorded(self, rng):
        net = random_small_net(rng)
        circ = discretize(net)
        probs = np.concatenate([gate_probs(m).max(axis=1) for m in net.logits])
        np.testing.assert_allclose(circ.max_probs, probs, atol=1e-12)
        assert circ.max_probs.min() >= 1 / 16 - 1e-12
