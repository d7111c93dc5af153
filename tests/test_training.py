"""Loss heads, optimizers, gradient oracles, and the training loop."""

import numpy as np
import pytest

from spikegrad import ops
from spikegrad.executor import ExecutionPlan, SpikeRecord
from spikegrad.neurons import LIFParams, NeuronState, lif_step
from spikegrad.tensor import ContractError, ShapeError, Tape, Tensor, ValidationError
from spikegrad.topology import lif_layer, linear_layer, sequential
from spikegrad.training import (
    GradReport,
    SpikeCountCELoss,
    TrainConfig,
    TrainingDiverged,
    compare_gradients,
    fd_gradient,
    loss_and_grad,
    optimizer_step,
    spike_count_ce_loss,
    train,
    write_metrics,
)


def record_from_counts(rows):
    data = np.asarray(rows, dtype=np.float64)
    return SpikeRecord(outputs={0: Tensor(data)}, steps=data.shape[0])


class TestSpikeCountCELoss:
    def test_equal_counts_give_log2(self):
        rec = record_from_counts([[1, 1], [1, 1], [0, 0]])
        loss = spike_count_ce_loss(rec, np.array([1.0, 0.0]))
        assert abs(float(loss.data) - np.log(2.0)) < 1e-12

    def test_confident_counts(self):
        # counts (10, 0): loss = log(1 + e^-10) ~ 4.54e-5
        rec = record_from_counts([[1, 0]] * 10)
        loss = spike_count_ce_loss(rec, np.array([1.0, 0.0]))
        assert abs(float(loss.data) - np.log1p(np.exp(-10.0))) < 1e-12

    def test_logit_grad_is_softmax_minus_target(self):
        head = SpikeCountCELoss(np.array([0.0, 0.0, 1.0]))
        logits = np.array([3.0, 1.0, 2.0])
        loss, grad = head.loss_and_logit_grad(logits)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        assert np.allclose(grad, p - np.array([0.0, 0.0, 1.0]), atol=1e-12)
        assert abs(loss + np.log(p[2])) < 1e-12

    def test_target_must_be_one_hot_vector(self):
        with pytest.raises(ShapeError):
            SpikeCountCELoss(np.eye(2))

    def test_record_class_count_mismatch(self):
        rec = record_from_counts([[1, 0]])
        with pytest.raises(ShapeError):
            spike_count_ce_loss(rec, np.array([1.0, 0.0, 0.0]))


class TestOptimizers:
    def cfg(self, **kw):
        return TrainConfig(**{"optimizer": "sgd", "learning_rate": 0.1, **kw})

    def test_sgd_hand_value(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        new, state = optimizer_step(params, grads, None, self.cfg())
        assert np.allclose(new["w"], [0.95])
        assert state == {}

    def test_adam_first_step_is_signed_lr(self):
        # bias correction makes m_hat/sqrt(v_hat) = sign(g) on step one
        cfg = self.cfg(optimizer="adam", learning_rate=1e-3)
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.4, -70.0])}
        new, state = optimizer_step(params, grads, None, cfg)
        assert np.allclose(new["w"], [1.0 - 1e-3, -2.0 + 1e-3], atol=1e-8)
        assert state["t"] == 1

    def test_adam_state_carries_across_steps(self):
        cfg = self.cfg(optimizer="adam", learning_rate=0.01)
        params = {"w": np.array([0.0])}
        state = None
        for _ in range(3):
            params, state = optimizer_step(params, {"w": np.array([1.0])}, state, cfg)
        assert state["t"] == 3
        assert float(params["w"][0]) < -0.029  # ~ -lr per step for constant grad

    def test_key_mismatch_rejected(self):
        with pytest.raises(ContractError):
            optimizer_step({"a": np.zeros(1)}, {"b": np.zeros(1)}, None, self.cfg())

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)


def smooth_mlp(seed=0):
    return sequential(
        [linear_layer(5, in_features=3), lif_layer(5, smooth_sharpness=20.0),
         linear_layer(2), lif_layer(2, smooth_sharpness=20.0)],
        input_shape=(3,), seed=seed, dtype=np.float64,
    )


class TestLossAndGrad:
    def test_batch_mean_is_mean_of_singles(self):
        g = smooth_mlp()
        plan = ExecutionPlan("step_by_step")
        rng = np.random.default_rng(0)
        samples = [
            ((rng.random((6, 3)) < 0.5).astype(np.float64), np.array([1.0, 0.0])),
            ((rng.random((6, 3)) < 0.5).astype(np.float64), np.array([0.0, 1.0])),
        ]
        l0, g0 = loss_and_grad(g, plan, samples[:1])
        l1, g1 = loss_and_grad(g, plan, samples[1:])
        lb, gb = loss_and_grad(g, plan, samples)
        assert abs(lb - 0.5 * (l0 + l1)) < 1e-12
        for name in gb:
            assert np.allclose(gb[name], 0.5 * (g0[name] + g1[name]), atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            loss_and_grad(smooth_mlp(), ExecutionPlan(), [])

    def test_deterministic(self):
        g = smooth_mlp()
        plan = ExecutionPlan("step_by_step")
        batch = [(np.ones((4, 3)), np.array([1.0, 0.0]))]
        l1, g1 = loss_and_grad(g, plan, batch)
        l2, g2 = loss_and_grad(g, plan, batch)
        assert l1 == l2
        for name in g1:
            assert np.array_equal(g1[name], g2[name])


class TestFdGradient:
    def test_matches_ad_on_smooth_graph(self):
        g = smooth_mlp(seed=3)
        plan = ExecutionPlan("step_by_step")
        rng = np.random.default_rng(1)
        batch = [(rng.uniform(-1.0, 2.0, (5, 3)), np.array([0.0, 1.0]))]
        _, ad = loss_and_grad(g, plan, batch)
        fd = fd_gradient(g, plan, batch, eps=1e-6)
        report = compare_gradients(ad, fd, threshold=1e-4)
        assert report.passed, report.summary()

    def test_matches_ad_through_layer_by_layer(self):
        # FD oracle for the fused scan's hand-written backward: smooth float64
        # graph, one subtract and one to_zero layer, random initial states
        g = sequential(
            [linear_layer(5, in_features=3), lif_layer(5, smooth_sharpness=20.0),
             linear_layer(2),
             lif_layer(2, params=LIFParams(reset="to_zero"), smooth_sharpness=20.0)],
            input_shape=(3,), seed=4, dtype=np.float64,
        )
        plan = ExecutionPlan("layer_by_layer")
        rng = np.random.default_rng(6)
        batch = [(rng.uniform(-1.0, 2.0, (8, 3)), np.array([1.0, 0.0])),
                 (rng.uniform(-1.0, 2.0, (8, 3)), np.array([0.0, 1.0]))]
        _, ad = loss_and_grad(g, plan, batch, init_mode="uniform", init_seed=2)
        fd = fd_gradient(g, plan, batch, eps=1e-6, init_mode="uniform", init_seed=2)
        report = compare_gradients(ad, fd, threshold=1e-4)
        assert report.passed, report.summary()

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValidationError):
            fd_gradient(smooth_mlp(), ExecutionPlan(), [(np.ones((2, 3)), np.array([1.0, 0.0]))],
                        eps=0.0)

    def test_rejects_hard_threshold_graph(self):
        g = sequential([linear_layer(2, in_features=3), lif_layer(2)],
                       input_shape=(3,), dtype=np.float64)
        with pytest.raises(ValidationError):
            fd_gradient(g, ExecutionPlan(), [(np.ones((2, 3)), np.array([1.0, 0.0]))])

    def test_rejects_f32_graph(self):
        g = sequential(
            [linear_layer(2, in_features=3), lif_layer(2, smooth_sharpness=20.0)],
            input_shape=(3,), dtype=np.float32,
        )
        with pytest.raises(ValidationError):
            fd_gradient(g, ExecutionPlan(), [(np.ones((2, 3)), np.array([1.0, 0.0]))])

    def test_compare_gradients_key_mismatch(self):
        with pytest.raises(ContractError):
            compare_gradients({"a": np.zeros(1)}, {"b": np.zeros(1)})

    def test_report_summary_format(self):
        rep = compare_gradients({"a": np.array([1.0])}, {"a": np.array([1.0])})
        assert rep.passed and "PASS" in rep.summary()


class TestHardBPTTOracle:
    def test_one_neuron_three_steps_matches_hand_unroll(self):
        # single LIF neuron driven by w * x_t; d(sum of spikes)/dw via the
        # surrogate-gradient chain, hand-propagated in forward mode
        p = LIFParams()
        xs = [1.5, 0.2, 1.1]
        w0 = 1.0
        sg = p.surrogate

        tape = Tape()
        w = tape.leaf(np.array([w0], dtype=np.float64))
        state = NeuronState(
            U=Tensor(np.zeros(1, dtype=np.float64)),
            I=Tensor(np.zeros(1, dtype=np.float64)),
            S=Tensor(np.zeros(1, dtype=np.float64)),
        )
        total = None
        for x in xs:
            state, spikes = lif_step(state, ops.mul(w, Tensor([x], dtype=np.float64)), p)
            total = spikes if total is None else ops.add(total, spikes)
        grads = tape.grads_from_seeds({total.node_id: np.ones(1, dtype=np.float64)})
        ad = float(grads[w.node_id][0])

        u = i = du = di = 0.0
        dloss = 0.0
        for x in xs:
            i = p.beta * i + w0 * x
            di = p.beta * di + x
            u_pre = p.alpha * u + i
            du_pre = p.alpha * du + di
            s = 1.0 if u_pre >= p.thr else 0.0
            ds = float(sg(np.array([u_pre - p.thr]))[0]) * du_pre
            u = u_pre - p.thr * s
            du = du_pre - p.thr * ds
            dloss += ds
        assert abs(ad - dloss) < 1e-10


class TestTrainLoop:
    def tiny_dataset(self, n=8, t=6):
        rng = np.random.default_rng(0)
        data = []
        for k in range(n):
            c = k % 2
            rates = np.where(np.arange(4) < 2, 0.8 if c == 0 else 0.05,
                             0.05 if c == 0 else 0.8)
            spikes = (rng.random((t, 4)) < rates).astype(np.float64)
            target = np.zeros(2)
            target[c] = 1.0
            data.append((Tensor(spikes), target))
        return data

    def graph(self, seed=0):
        return sequential(
            [linear_layer(8, in_features=4), lif_layer(8),
             linear_layer(2), lif_layer(2)],
            input_shape=(4,), seed=seed, dtype=np.float64,
        )

    def test_zero_lr_leaves_params_unchanged(self):
        g = self.graph()
        before = {k: v.copy() for k, v in g.params.items()}
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.0, optimizer="sgd")
        g, _ = train(g, self.tiny_dataset(), cfg)
        for name in before:
            assert np.array_equal(g.params[name], before[name])

    def test_deterministic_runs(self):
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2, seed=7)
        g1, m1 = train(self.graph(seed=1), self.tiny_dataset(), cfg)
        g2, m2 = train(self.graph(seed=1), self.tiny_dataset(), cfg)
        # identical up to wall-clock timings
        assert [(e, l, a) for e, l, a, _ in m1] == [(e, l, a) for e, l, a, _ in m2]
        for name in g1.params:
            assert np.array_equal(g1.params[name], g2.params[name])

    def test_metrics_rows_per_epoch(self):
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-2)
        _, metrics = train(self.graph(), self.tiny_dataset(), cfg)
        assert len(metrics) == 3
        epochs, losses, accs, walls = zip(*metrics)
        assert epochs == (0, 1, 2)
        assert all(np.isfinite(losses))
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_stop_at_accuracy_short_circuits(self):
        cfg = TrainConfig(epochs=50, batch_size=4, learning_rate=1e-2)
        _, metrics = train(self.graph(), self.tiny_dataset(), cfg,
                           stop_at_accuracy=0.0)
        assert len(metrics) == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            train(self.graph(), [], TrainConfig())

    def test_nonfinite_loss_raises_diverged(self, monkeypatch):
        # spike-count logits are always finite, so force a NaN loss at the
        # per-sample level to exercise the guard
        import spikegrad.training as tr

        def broken(*args, **kwargs):
            return float("nan"), {k: np.zeros_like(v) for k, v in g.params.items()}, np.zeros(2)

        g = self.graph()
        monkeypatch.setattr(tr, "_sample_loss_and_grad", broken)
        cfg = TrainConfig(epochs=1, batch_size=4)
        with pytest.raises(TrainingDiverged) as exc:
            train(g, self.tiny_dataset(), cfg)
        assert "epoch 0" in str(exc.value)

    def test_write_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics(path, [(0, 0.5, 0.75, 12.0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,accuracy,wall_ms"
        assert lines[1] == "0,0.5,0.75,12.000"
