"""Loss heads, optimizers, gradient oracles, and the training loop."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikegrad import executor, ops, training
from spikegrad.executor import ExecutionPlan, SpikeRecord, init_states
from spikegrad.neurons import LIFParams, NeuronState, lif_step
from spikegrad.tensor import ContractError, ShapeError, Tape, Tensor, ValidationError
from spikegrad.topology import (
    conv_layer,
    flatten_layer,
    lif_layer,
    linear_layer,
    sequential,
    sequential_recurrent,
)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logit_grad_bit_identical_to_taped_loss(self, dtype):
        target = np.array([0.0, 1.0, 0.0, 0.0])
        logits = np.array([7.0, 3.0, 0.0, 12.0], dtype=dtype)
        loss, grad = SpikeCountCELoss(target).loss_and_logit_grad(logits)
        tape = Tape()
        lg = tape.leaf(logits)
        taped = ops.softmax_cross_entropy(lg, Tensor(target, dtype=dtype))
        ref = tape.grads_from_seeds({taped.node_id: np.ones((), dtype=dtype)})[lg.node_id]
        assert loss == float(taped.data)
        assert grad.dtype == ref.dtype and np.array_equal(grad, ref)

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

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2", None])
    def test_epochs_and_batch_size_must_be_ints(self, field, value):
        # train's range() needs an int, and True is no count
        with pytest.raises(ValidationError):
            TrainConfig(**{field: value})

    def test_numpy_int_epochs_and_batch_size_accepted(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(2))
        assert (cfg.epochs, cfg.batch_size) == (3, 2)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", float("nan")),
        ("beta2", 1.0), ("beta2", 1.5),
        ("eps", 0.0), ("eps", -1e-8), ("eps", float("inf")), ("eps", float("nan")),
    ])
    def test_adam_constants_validated(self, field, value):
        # beta1 = 1 made Adam divide by 1 - beta1**t = 0, and train returned
        # NaN weights without an error; so did a NaN learning rate
        with pytest.raises(ValidationError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("plan", "layer_by_layer"), ("seed", -1), ("seed", 1.5), ("init_state_mode", "bogus"),
    ])
    def test_plan_seed_and_init_mode_validated(self, field, value):
        # each was accepted here and failed, or was truncated, in train
        with pytest.raises(ValidationError):
            TrainConfig(**{field: value})

    def test_adam_constants_at_their_limits_accepted(self):
        TrainConfig(learning_rate=0.0, beta1=0.0, beta2=0.0, eps=1e-300)


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
        # both samples share one micro-batch, which keeps a loop's bytes
        assert lb == 0.5 * (l0 + l1)
        for name in gb:
            assert gb[name].tobytes() == (0.5 * (g0[name] + g1[name])).tobytes(), name

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            loss_and_grad(smooth_mlp(), ExecutionPlan(), [])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_checkpoint_every_gives_full_tape_bytes(self, k, dtype):
        g = sequential_recurrent(
            [linear_layer(5, in_features=3), lif_layer(5), linear_layer(2), lif_layer(2)],
            feedback=[(3, 1)], input_shape=(3,), seed=2, dtype=dtype,
        )
        rng = np.random.default_rng(4)
        batch = [((rng.random((6, 3)) < 0.5) * 1.5, np.eye(2)[i % 2]) for i in range(3)]
        loss, grads = loss_and_grad(g, ExecutionPlan("step_by_step"), batch)
        ck_loss, ck_grads = loss_and_grad(g, ExecutionPlan(checkpoint_every=k), batch)
        assert ck_loss == loss and sorted(ck_grads) == sorted(grads)
        for name in grads:
            assert ck_grads[name].dtype == grads[name].dtype == dtype
            assert ck_grads[name].tobytes() == grads[name].tobytes(), name

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

    def test_checkpoint_every_trains_like_full_tape(self):
        runs = []
        for plan in (ExecutionPlan("step_by_step"), ExecutionPlan(checkpoint_every=4)):
            cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2, optimizer="adam",
                              plan=plan)
            runs.append(train(self.graph(seed=3), self.tiny_dataset(), cfg))
        (g_full, m_full), (g_ck, m_ck) = runs
        # loss and accuracy per epoch, up to wall-clock timings
        assert [row[:3] for row in m_ck] == [row[:3] for row in m_full]
        for name in g_full.params:
            assert g_ck.params[name].tobytes() == g_full.params[name].tobytes(), name

    def test_nonfinite_loss_raises_diverged(self, monkeypatch):
        # spike-count logits are always finite, so force a NaN loss at the
        # per-sample level to exercise the guard
        import spikegrad.training as tr

        def broken(graph, plan, inputs, init_maps, heads, total, budget=None):
            total.update({k: np.zeros_like(v) for k, v in g.params.items()})
            return [float("nan")] * len(inputs), [np.zeros(2)] * len(inputs), {}

        g = self.graph()
        monkeypatch.setattr(tr.executor, "_loss_and_grad", broken)
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


def per_sample_loop(graph, plan, batch, init_mode="zeros", init_seed=0):
    """Batch-mean loss and gradients of a loop that differentiates each
    sample alone with the executor's driver and sums them in sample order."""
    total_loss, total = 0.0, None
    for x, target in batch:
        grads = {}
        (loss,), _, _ = executor._loss_and_grad(
            graph, plan, [x], [init_states(graph, mode=init_mode, seed=init_seed)],
            [SpikeCountCELoss(target)], grads)
        total_loss += loss
        total = grads if total is None else {k: total[k] + grads[k] for k in total}
    n = len(batch)
    return total_loss / n, {k: v / n for k, v in total.items()}


def micro_batch_budget(graph, plan, steps, samples):
    """A MICRO_BATCH_BYTES that holds `samples` samples of `steps` steps."""
    rows = steps if plan.scheduler == "layer_by_layer" else 1
    ctx = executor._ExecContext(graph)
    return samples * ctx.sample_bytes(steps, rows, plan.checkpoint_every)


def assert_same_bytes(got, want):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert loss == ref_loss
    assert list(grads) == list(ref_grads)
    for name in ref_grads:
        assert grads[name].dtype == ref_grads[name].dtype, name
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name


def trains_like_the_loop(graph, plan, dataset, mode):
    """One Adam step of train over the whole dataset against optimizer_step
    on the per-sample loop's gradients, in train's shuffled order."""
    cfg = TrainConfig(epochs=1, batch_size=len(dataset), learning_rate=1e-2, seed=3,
                      plan=plan, init_state_mode=mode)
    trained, metrics = train(graph.copy_with_params(graph.params), dataset, cfg)
    order = np.random.default_rng(cfg.seed).permutation(len(dataset))
    ref_loss, ref_grads = per_sample_loop(graph, plan, [dataset[i] for i in order], mode,
                                          cfg.seed)
    want, _ = optimizer_step(graph.params, ref_grads, None, cfg)
    assert metrics[0][1] == float(np.mean([ref_loss]))
    for name in want:
        assert trained.params[name].tobytes() == want[name].tobytes(), name


def batch_graph(kind, dtype, smooth):
    """Small graphs with the benchmark's layer kinds: an MLP, a CNN with
    stride 1 or 2, and a recurrent net with a delay-1 feedback weight."""
    lif = {"smooth_sharpness": smooth}
    if kind == "mlp":
        return sequential([linear_layer(5, in_features=3), lif_layer(5, **lif),
                           linear_layer(3), lif_layer(3, **lif)],
                          input_shape=(3,), seed=4, dtype=dtype)
    if kind.startswith("cnn"):
        return sequential([conv_layer(2, 3, 3, stride=int(kind[-1]), padding=1),
                           lif_layer(**lif), flatten_layer(), linear_layer(3),
                           lif_layer(3, **lif)],
                          input_shape=(2, 5, 5), seed=4, dtype=dtype)
    return sequential_recurrent([linear_layer(5, in_features=3), lif_layer(5, **lif),
                                 linear_layer(3), lif_layer(3, **lif)],
                                feedback=[(3, 1)], input_shape=(3,), seed=4, dtype=dtype)


@st.composite
def batch_cases(draw):
    kind = draw(st.sampled_from(["mlp", "cnn1", "cnn2", "rec"]))
    graph = batch_graph(kind, draw(st.sampled_from([np.float32, np.float64])),
                        draw(st.sampled_from([None, 15.0])))
    schedulers = ["step_by_step"] if kind == "rec" else ["step_by_step", "layer_by_layer"]
    scheduler = draw(st.sampled_from(schedulers))
    # two sample lengths, so a batch may mix T
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    steps = draw(st.lists(st.sampled_from(lengths), min_size=1, max_size=5))
    k = None
    if scheduler == "step_by_step" and draw(st.booleans()):
        k = draw(st.integers(1, min(steps)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = executor.input_shape(graph)
    batch = [(rng.uniform(0.0, 2.0, (t,) + shape), np.eye(3)[rng.integers(3)]) for t in steps]
    mode = draw(st.sampled_from(["zeros", "uniform"]))
    return graph, ExecutionPlan(scheduler, checkpoint_every=k), batch, mode, draw(
        st.integers(1, 4))


class TestMicroBatches:
    """train and loss_and_grad stack samples of one shape into micro-batches
    and must keep the bytes of a loop over the samples."""

    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_loss_grads_and_train_step_match_the_per_sample_loop(self, case):
        graph, plan, batch, mode, samples = case
        budget = micro_batch_budget(graph, plan, batch[0][0].shape[0], samples)
        with mock.patch.object(training, "MICRO_BATCH_BYTES", budget):
            assert_same_bytes(loss_and_grad(graph, plan, batch, mode, 5),
                              per_sample_loop(graph, plan, batch, mode, 5))
            trains_like_the_loop(graph, plan, batch, mode)

    @pytest.mark.parametrize("scheduler", ["step_by_step", "layer_by_layer"])
    def test_mixed_t_batch_trains_like_the_per_sample_loop(self, scheduler):
        g, plan = smooth_mlp(), ExecutionPlan(scheduler)
        rng = np.random.default_rng(7)
        batch = [((rng.random((t, 3)) < 0.5) * 1.0, np.eye(2)[t % 2]) for t in (6, 6, 6, 4, 6, 4)]
        # micro-batches of 2: [6, 6], [6], [4], [6], [4]
        with mock.patch.object(training, "MICRO_BATCH_BYTES", micro_batch_budget(g, plan, 6, 2)):
            assert_same_bytes(loss_and_grad(g, plan, batch), per_sample_loop(g, plan, batch))
            trains_like_the_loop(g, plan, batch, "zeros")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scheduler", ["step_by_step", "layer_by_layer"])
    def test_a_one_wide_hidden_layer_keeps_the_per_sample_bytes(self, scheduler, dtype):
        # a hidden width of 1 makes both weights one wide (ops.matmul_backward)
        g = sequential([linear_layer(1, in_features=4), lif_layer(1), linear_layer(2),
                        lif_layer(2)], input_shape=(4,), seed=5, dtype=dtype)
        rng = np.random.default_rng(5)
        batch = [(rng.uniform(0.0, 2.0, (40, 4)), np.eye(2)[i % 2]) for i in range(3)]
        plan = ExecutionPlan(scheduler)
        with mock.patch.object(training, "MICRO_BATCH_BYTES", micro_batch_budget(g, plan, 40, 3)):
            got = loss_and_grad(g, plan, batch)
        assert all(v.any() for v in got[1].values())
        assert_same_bytes(got, per_sample_loop(g, plan, batch))

    def test_benchmark_shapes_get_their_micro_batch(self):
        # 3 MiB holds 4 samples of the float32 MLP at T = 100 and 1 of the
        # CNN at T = 25
        mlp = sequential([linear_layer(256, in_features=64), lif_layer(256), linear_layer(256),
                          lif_layer(256), linear_layer(10), lif_layer(10)],
                         input_shape=(64,), dtype=np.float32)
        cnn = sequential([conv_layer(2, 16, 3, padding=1), lif_layer(),
                          conv_layer(16, 16, 3, padding=1), lif_layer(), flatten_layer(),
                          linear_layer(10), lif_layer(10)],
                         input_shape=(2, 16, 16), dtype=np.float32)
        for graph, steps, samples in ((mlp, 100, 4), (cnn, 25, 1)):
            per_sample = executor._ExecContext(graph).sample_bytes(steps, steps, None)
            assert training.MICRO_BATCH_BYTES // per_sample == samples

    @pytest.mark.parametrize("bad, error", [
        (lambda x: np.where(np.arange(x.size).reshape(x.shape) == 5, np.nan, x),
         ValidationError),
        (lambda x: np.where(np.arange(x.size).reshape(x.shape) == 5, np.inf, x),
         ValidationError),
        (lambda x: x[..., None], ShapeError),
        (lambda x: Tape().leaf(x.astype(np.float64)), ValidationError),
    ], ids=["nan", "inf", "rank", "taped_dtype"])
    def test_one_bad_sample_raises_as_in_the_loop(self, bad, error):
        g = sequential([linear_layer(5, in_features=3), lif_layer(5), linear_layer(2),
                        lif_layer(2)], input_shape=(3,), seed=1, dtype=np.float32)
        rng = np.random.default_rng(3)
        batch = [((rng.random((6, 3)) < 0.5).astype(np.float32), np.eye(2)[i % 2])
                 for i in range(4)]
        batch[2] = (bad(batch[2][0]), batch[2][1])
        plan = ExecutionPlan("layer_by_layer")
        with pytest.raises(error):
            per_sample_loop(g, plan, batch)
        with pytest.raises(error):
            loss_and_grad(g, plan, batch)
        with pytest.raises(error):
            train(g, batch, TrainConfig(epochs=1, batch_size=4, plan=plan))
