"""Losses, Adam, the training loop, and evaluation."""

import tracemalloc

import numpy as np
import pytest

from conftest import ToyData, random_small_net
from gatenet import relaxed
from gatenet.model import LogicNet, ReadoutConfig, build_topology, discretize, init_params
from gatenet.packed import circuit_scores
from gatenet.relaxed import forward_relaxed
from gatenet.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    RELAXED_EVAL_BYTES,
    AdamState,
    NumericsError,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    evaluate,
    train,
)


class TestCrossEntropy:
    def test_uniform_scores(self):
        loss, grad = cross_entropy_loss(np.zeros((1, 10)), [3])
        assert loss == pytest.approx(np.log(10))
        np.testing.assert_allclose(grad.sum(), 0, atol=1e-12)

    def test_saturated(self):
        scores = np.zeros((1, 5))
        scores[0, 0] = 40.0
        loss, _ = cross_entropy_loss(scores, [0])
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((1, 7))
        label = [4]
        _, grad = cross_entropy_loss(scores, label)
        h = 1e-6
        for i in range(7):
            up = scores.copy()
            up[0, i] += h
            down = scores.copy()
            down[0, i] -= h
            fd = (cross_entropy_loss(up, label)[0] - cross_entropy_loss(down, label)[0]) / (2 * h)
            assert grad[0, i] == pytest.approx(fd, abs=1e-6)

    def test_batched_mean_semantics(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        loss, grad = cross_entropy_loss(scores, labels)
        per = [cross_entropy_loss(scores[i : i + 1], labels[i : i + 1]) for i in range(4)]
        assert loss == pytest.approx(np.mean([p[0] for p in per]))
        np.testing.assert_allclose(grad, np.concatenate([p[1] for p in per]) / 4, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((1, 3)), [3])
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((1, 3)), [-1])


class TestAdam:
    def test_first_step_magnitude(self):
        params = [np.zeros((2, 16))]
        state = AdamState.zeros_like(params)
        cfg = TrainConfig(learning_rate=0.01)
        adam_step(state, params, [np.ones((2, 16))], cfg)
        assert state.t == 1
        np.testing.assert_allclose(params[0], -0.01, rtol=1e-6)

    def test_zero_gradient_is_noop_from_fresh_state(self):
        params = [np.full((3, 16), 0.7)]
        state = AdamState.zeros_like(params)
        adam_step(state, params, [np.zeros((3, 16))], TrainConfig())
        np.testing.assert_array_equal(params[0], 0.7)

    def test_nonfinite_gradient_aborts_with_location(self):
        params = [np.zeros((2, 16)), np.zeros((2, 16))]
        state = AdamState.zeros_like(params)
        grads = [np.zeros((2, 16)), np.zeros((2, 16))]
        grads[1][0, 3] = np.nan
        with pytest.raises(NumericsError, match="layer 1"):
            adam_step(state, params, grads, TrainConfig())

    def test_shape_mismatch_rejected(self):
        params = [np.zeros((2, 16))]
        with pytest.raises(ValueError):
            adam_step(AdamState.zeros_like(params), params, [np.zeros((3, 16))], TrainConfig())

    def test_matches_textbook_update_bit_for_bit(self, rng):
        cfg = TrainConfig(learning_rate=0.03)
        params = [rng.standard_normal((5, 16)).astype(np.float32) for _ in range(2)]
        want = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        state = AdamState.zeros_like(params)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for t in range(1, 5):
            grads = [rng.standard_normal(p.shape).astype(np.float32) for p in params]
            adam_step(state, params, grads, cfg)
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            for p, g, mi, vi in zip(want, grads, m, v):
                mi *= b1
                mi += (1 - b1) * g
                vi *= b2
                vi += (1 - b2) * (g * g)
                p -= cfg.learning_rate * (mi / c1) / (np.sqrt(vi / c2) + ADAM_EPSILON)
            for got, ref in zip(params, want):
                np.testing.assert_array_equal(got, ref)


class TestBlocks:
    """Adam and the relaxed passes run in blocks of ``relaxed.BLOCK_BYTES``."""

    def test_adam_scratch_is_one_block_shared_by_every_layer(self):
        # a row of 16 float32 logits is 64 bytes
        params = [np.zeros((50_000, 16), np.float32), np.zeros((30, 16), np.float32)]
        assert AdamState.zeros_like(params).scratch.shape == (2, relaxed.BLOCK_BYTES // 64, 16)
        assert AdamState.zeros_like(params[1:]).scratch.shape == (2, 30, 16)

    def test_training_does_not_depend_on_the_block_size(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 2, size=(70, 10), dtype=np.uint8)
        data = ToyData(x, x[:, 0] ^ x[:, 3], class_count=2)
        config = TrainConfig(layers=3, width=30, max_epochs=2, batch_size=16, seed=12)
        runs = []
        # 64 bytes: one neuron of a 16-row float32 batch, and one row of
        # Adam's 16 float32 logits, per block
        for budget in (64, 1 << 30):
            monkeypatch.setattr(relaxed, "BLOCK_BYTES", budget)
            scratch = AdamState.zeros_like([np.zeros((30, 16), np.float32)]).scratch
            assert scratch.shape == (2, 1 if budget == 64 else 30, 16)
            result = train(config, data)
            runs.append((result.final.logits, result.history))
        (blocked, blocked_history), (whole, whole_history) = runs
        assert blocked_history == whole_history
        for got, want in zip(blocked, whole):
            np.testing.assert_array_equal(got, want)

    def test_memory_does_not_grow_with_a_float_copy_of_the_rows(self):
        # one epoch over n and 4n rows: a float32 copy of the rows would add
        # 3n x 784 x 4 bytes, about 9.4 MB at n = 1000
        rng = np.random.default_rng(13)
        n, width = 1000, 784
        x = rng.integers(0, 2, size=(4 * n, width), dtype=np.uint8)
        sets = [ToyData(x[:rows], x[:rows, 0], class_count=2) for rows in (n, 4 * n)]
        config = TrainConfig(layers=2, width=16, max_epochs=1, batch_size=100, seed=13)
        peaks = []
        for data in sets:
            tracemalloc.start()
            try:
                train(config, data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        grown = peaks[1] - peaks[0]
        assert grown < 3 * n * width * 4 // 10, f"peak grew by {grown} B over {3 * n} more rows"


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"batch_size": 0},
            {"max_epochs": 0},
            {"eval_every": 0},
            {"tau": 0.0},
            {"width": 1},
            {"allowed_gates": 0},
            {"tau": float("inf")},
            {"beta": float("nan")},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def planted_rule_data(rng, n=256):
    # label = x0 AND (NOT x1): learnable by a single gate
    x = (rng.uniform(size=(n, 6)) < 0.5).astype(np.uint8)
    y = (x[:, 0] & (1 - x[:, 1])).astype(np.int64)
    return ToyData(x, y, class_count=2)


class TestTrainLoop:
    def test_learns_planted_rule_and_loss_decreases(self):
        rng = np.random.default_rng(3)
        data = planted_rule_data(rng)
        cfg = TrainConfig(layers=2, width=8, max_epochs=30, batch_size=32, seed=1)
        result = train(cfg, data, eval_ds=data)
        losses = [r["loss"] for r in result.history if r["split"] == "train"]
        assert losses[49] < 0.9 * losses[0]
        assert evaluate(result.final, data).accuracy >= 0.95
        # discretized circuit should inherit the behaviour on this easy rule
        circ = discretize(result.final)
        assert evaluate(circ, data).accuracy >= 0.9

    def test_deterministic_repeat_runs(self):
        rng = np.random.default_rng(4)
        data = planted_rule_data(rng, n=64)
        cfg = TrainConfig(layers=1, width=4, max_epochs=3, batch_size=16, seed=9)
        r1 = train(cfg, data)
        r2 = train(cfg, data)
        for m1, m2 in zip(r1.final.logits, r2.final.logits):
            np.testing.assert_array_equal(m1, m2)

    def test_partial_final_batch_used(self):
        rng = np.random.default_rng(5)
        data = planted_rule_data(rng, n=50)
        cfg = TrainConfig(layers=1, width=4, max_epochs=1, batch_size=32, seed=0)
        result = train(cfg, data)
        steps = [r for r in result.history if r["split"] == "train"]
        assert len(steps) == 2  # 32 + 18

    def test_best_checkpoint_tracked(self):
        rng = np.random.default_rng(6)
        data = planted_rule_data(rng)
        cfg = TrainConfig(layers=1, width=8, max_epochs=5, batch_size=32, seed=2)
        result = train(cfg, data, eval_ds=data)
        assert result.best is not None
        assert result.best_accuracy == pytest.approx(
            max(r["accuracy"] for r in result.history if r["split"] == "eval")
        )

    def test_empty_dataset_rejected(self):
        empty = ToyData(np.zeros((0, 4), dtype=np.uint8), np.zeros(0), class_count=2)
        with pytest.raises(ValueError):
            train(TrainConfig(layers=1, width=4), empty)

    def test_fewer_classes_than_the_dataset_rejected(self):
        data = planted_rule_data(np.random.default_rng(7), n=32)
        with pytest.raises(ValueError, match="^classes=1 is fewer than the dataset's 2 classes$"):
            train(TrainConfig(layers=1, width=4, classes=1), data)

    def test_width_not_divisible_by_classes_rejected(self):
        rng = np.random.default_rng(7)
        data = planted_rule_data(rng, n=32)
        with pytest.raises(ValueError):
            train(TrainConfig(layers=1, width=7), data)

    def test_masked_training_discretizes_within_mask(self):
        rng = np.random.default_rng(8)
        data = planted_rule_data(rng, n=128)
        mask = 0b0110000011000110
        cfg = TrainConfig(layers=2, width=8, max_epochs=5, batch_size=32, allowed_gates=mask)
        result = train(cfg, data)
        circ = discretize(result.final)
        assert all((mask >> int(op)) & 1 for op in circ.opcodes)


class TestEvaluate:
    def test_constant_model_on_balanced_data(self, rng):
        net = random_small_net(rng)
        # saturate every neuron to constant False so scores are identical
        for m in net.logits:
            m[:] = 0
            m[:, 0] = 50.0
        n = 40
        x = (rng.uniform(size=(n, net.input_width)) < 0.5).astype(np.uint8)
        y = np.tile(np.arange(2), n // 2)
        data = ToyData(x, y % net.readout.k, class_count=net.readout.k)
        res = evaluate(net, data)
        if net.readout.k >= 2:
            assert res.accuracy == pytest.approx((data.labels == 0).mean())
        assert res.confusion.sum() == n

    def test_circuit_and_relaxed_agree_when_saturated(self, rng):
        net = random_small_net(rng)
        for m in net.logits:
            hot = m.argmax(axis=1)
            m[:] = 0
            m[np.arange(m.shape[0]), hot] = 45.0
        x = (rng.uniform(size=(64, net.input_width)) < 0.5).astype(np.uint8)
        scores = forward_relaxed(net, x.astype(net.dtype)).scores
        circ = discretize(net)
        counts = circuit_scores(circ, x)
        mapped = counts / net.readout.tau + net.readout.beta
        np.testing.assert_allclose(scores, mapped, atol=1e-5)

    def test_width_mismatch_rejected(self, rng):
        net = random_small_net(rng)
        data = ToyData(np.zeros((3, net.input_width + 2), dtype=np.uint8), np.zeros(3), 2)
        with pytest.raises(ValueError):
            evaluate(net, data)

    def test_fewer_model_classes_than_the_dataset_rejected(self, rng):
        topo = build_topology(1, [6, 4, 4])
        net = LogicNet(topo, init_params(topo, 1), ReadoutConfig(k=1))
        data = planted_rule_data(rng, n=32)
        for model in (net, discretize(net)):
            with pytest.raises(ValueError, match="^model's class count 1 is below the dataset's 2$"):
                evaluate(model, data)

    def test_empty_dataset_counts_zero_for_net_and_circuit(self, rng):
        net = random_small_net(rng)
        k = net.readout.k
        empty = ToyData(np.zeros((0, net.input_width), dtype=np.uint8), np.zeros(0), k)
        for model in (net, discretize(net)):
            res = evaluate(model, empty)
            assert res.count == 0 and res.accuracy == 0.0
            np.testing.assert_array_equal(res.confusion, np.zeros((k, k)))

    def test_relaxed_batches_stay_within_budget(self, rng):
        # 600 rows of 784 -> 4x8000 hold 79 MB of float32 activations at once
        topo = build_topology(int(rng.integers(2**31)), [784] + [8000] * 4)
        net = LogicNet(topo, init_params(topo, int(rng.integers(2**31))), ReadoutConfig(k=10))
        x = (rng.uniform(size=(600, 784)) < 0.5).astype(np.uint8)
        data = ToyData(x, rng.integers(0, 10, 600), class_count=10)
        want = np.concatenate(
            [forward_relaxed(net, x[lo : lo + 100]).scores for lo in range(0, 600, 100)]
        ).argmax(axis=1)
        confusion = np.zeros((10, 10), dtype=np.int64)
        np.add.at(confusion, (data.labels, want), 1)
        # the budget plus the labels, predictions and 1 MB for the rest
        bound = RELAXED_EVAL_BYTES + 2 * 600 * 8 + (1 << 20)
        tracemalloc.start()
        try:
            res = evaluate(net, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"
        np.testing.assert_array_equal(res.confusion, confusion)
        assert res.accuracy == (want == data.labels).mean()
