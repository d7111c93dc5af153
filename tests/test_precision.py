"""The run boundary and the precision contract.

run and run_with_checkpointing take a finite [T, *input_shape] input, cast an
untaped one to graph.dtype and reject initial states and parameters of
another dtype, so a graph computes in its own dtype end to end: every tape
node, output, state, gradient, parameter and Adam moment has graph.dtype,
even when the input is float64 generator output. The gradients that enter
a run's reverse walk (tape seeds, a loss head's logit gradient) are cast to
graph.dtype, so float64 seeds on a float32 graph compute in float32.
"""

import numpy as np
import pytest

from spikegrad import executor
from spikegrad.benchcli import gen_random_spikes
from spikegrad.executor import ExecutionPlan, init_states, input_shape, run, run_with_checkpointing
from spikegrad.neurons import NeuronState
from spikegrad.tensor import ShapeError, Tape, Tensor, ValidationError
from spikegrad.topology import (
    conv_layer,
    flatten_layer,
    graph_build,
    lif_layer,
    linear_layer,
    sequential,
)
from spikegrad.training import SpikeCountCELoss, TrainConfig, loss_and_grad, optimizer_step, train

DTYPES = (np.float32, np.float64)
LBL = ExecutionPlan("layer_by_layer")
SBS = ExecutionPlan("step_by_step")


def mlp(dtype=np.float32, n_in=64):
    return sequential(
        [linear_layer(8, in_features=n_in), lif_layer(8), linear_layer(3), lif_layer(3)],
        input_shape=(n_in,), seed=0, dtype=dtype,
    )


def conv_net(dtype):
    """conv -> LIF -> flatten -> linear -> LIF: every stateless node kind."""
    return sequential(
        [conv_layer(2, 3, 3, padding=1), lif_layer(), flatten_layer(),
         linear_layer(3), lif_layer(3)],
        input_shape=(2, 5, 5), seed=1, dtype=dtype,
    )


def recurrent_net(dtype):
    """Linear delay-1 feedback from a LIF layer into itself, as in rsnn_ckpt."""
    return graph_build(
        [linear_layer(6, in_features=4), lif_layer(6), linear_layer(6),
         linear_layer(3), lif_layer(3)],
        [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 3, 0), (3, 4, 0)],
        input_nodes=[0], output_nodes=[4], input_shape=(4,), seed=2, dtype=dtype,
    )


def spikes(graph, t, seed, rate=0.4):
    """float64 generator output, as users pass it."""
    x = gen_random_spikes(input_shape(graph), t, rate, seed=seed)
    assert x.dtype == np.float64
    return x


TARGET = np.array([0.0, 1.0, 0.0])


@pytest.fixture
def tapes(monkeypatch):
    """Every Tape made during the test."""
    made = []
    init = Tape.__init__

    def recording_init(self):
        init(self)
        made.append(self)

    monkeypatch.setattr(Tape, "__init__", recording_init)
    return made


def assert_tape_dtype(tape, dtype):
    wrong = [(i, tape._tags[i], tape.dtype_of(i)) for i in range(len(tape))
             if tape.dtype_of(i) != dtype]
    assert not wrong, wrong[:5]


def assert_arrays_dtype(arrays, dtype):
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}


class TestInputBoundary:
    @pytest.mark.parametrize("plan", [LBL, SBS], ids=["lbl", "sbs"])
    def test_wrong_step_shape_rejected(self, plan):
        # same size as the 64 inputs, so a reshape would silently accept it
        with pytest.raises(ShapeError):
            run(mlp(), plan, np.zeros((5, 8, 8)), init_states(mlp()))

    def test_wrong_step_shape_rejected_by_checkpointing(self):
        g = mlp()
        with pytest.raises(ShapeError):
            run_with_checkpointing(g, ExecutionPlan(checkpoint_every=2), np.zeros((5, 8, 8)),
                                   init_states(g), SpikeCountCELoss(TARGET))

    def test_flat_input_to_image_graph_rejected(self):
        g = conv_net(np.float32)
        with pytest.raises(ShapeError):
            run(g, LBL, np.zeros((4, 50)), init_states(g))

    def test_input_shape_without_graph_input_shape(self):
        g = sequential([linear_layer(3, in_features=5), lif_layer(3)], seed=0)
        assert g.input_shape is None
        assert input_shape(g) == (5,)
        run(g, SBS, np.zeros((2, 5)), init_states(g))
        with pytest.raises(ShapeError):
            run(g, SBS, np.zeros((2, 6)), init_states(g))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("plan", [LBL, SBS], ids=["lbl", "sbs"])
    def test_nonfinite_input_rejected(self, plan, bad):
        g = mlp()
        x = np.zeros((3, 64))
        x[1, 7] = bad
        with pytest.raises(ValidationError, match="NaN or inf"):
            run(g, plan, x, init_states(g))

    def test_nonfinite_input_rejected_by_checkpointing(self):
        g = mlp()
        x = np.zeros((4, 64))
        x[3, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN or inf"):
            run_with_checkpointing(g, ExecutionPlan(checkpoint_every=2), x, init_states(g),
                                   SpikeCountCELoss(TARGET))

    def test_input_beyond_float32_range_rejected(self):
        g = mlp(np.float32)
        x = np.zeros((2, 64))
        x[0, 0] = 1e39  # finite in float64, inf once cast
        with pytest.raises(ValidationError, match="NaN or inf"):
            run(g, LBL, x, init_states(g))
        run(mlp(np.float64), LBL, x, init_states(mlp(np.float64)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_untaped_input_cast_to_graph_dtype(self, dtype):
        g = mlp(dtype)
        for x in (spikes(g, 4, 0), spikes(g, 4, 0).data.astype(np.float32),
                  spikes(g, 4, 0).data.tolist()):
            states, rec = run(g, LBL, x, init_states(g))
            assert rec.outputs[3].dtype == dtype

    def test_taped_input_of_other_dtype_rejected(self):
        g = mlp(np.float32)
        x = Tape().leaf(np.zeros((3, 64), dtype=np.float64))
        with pytest.raises(ValidationError, match="taped input"):
            run(g, LBL, x, init_states(g))

    def test_taped_input_of_graph_dtype_keeps_its_gradient(self):
        g = mlp(np.float32)
        tape = Tape()
        x = tape.leaf(np.ones((3, 64), dtype=np.float32))
        _, rec = run(g, LBL, x, init_states(g))
        loss = SpikeCountCELoss(TARGET).loss_tensor(rec)
        grads = tape.grads_from_seeds({loss.node_id: np.ones((), dtype=np.float32)})
        assert grads[x.node_id].shape == (3, 64)
        assert grads[x.node_id].dtype == np.float32

    @pytest.mark.parametrize("field", ["U", "I", "S"])
    def test_state_of_other_dtype_rejected(self, field):
        g = mlp(np.float32)
        states = init_states(g)
        st = states[1]
        parts = {"U": st.U, "I": st.I, "S": st.S}
        parts[field] = Tensor(parts[field].data.astype(np.float64))
        states[1] = NeuronState(**parts)
        with pytest.raises(ValidationError, match="not float32"):
            run(g, SBS, np.zeros((2, 64)), states)
        with pytest.raises(ValidationError, match="not float32"):
            run_with_checkpointing(g, ExecutionPlan(checkpoint_every=1), np.zeros((2, 64)),
                                   states, SpikeCountCELoss(TARGET))


    @pytest.mark.parametrize("make", [mlp, conv_net, recurrent_net],
                             ids=["mlp", "conv", "rec"])
    def test_parameter_of_wrong_shape_rejected(self, make):
        # a readout weight with one output column would broadcast silently
        # over its LIF layer
        g = make(np.float64)
        x = spikes(g, 3, 0)
        for name, arr in sorted(g.params.items()):
            bad = dict(g.params)
            bad[name] = arr[..., :1]
            with pytest.raises(ShapeError, match=name):
                run(g, SBS, x, init_states(g), params=bad)
            with pytest.raises(ShapeError, match=name):
                run_with_checkpointing(g.copy_with_params(bad), ExecutionPlan(checkpoint_every=2),
                                       x, init_states(g), SpikeCountCELoss(TARGET))
        missing = dict(g.params)
        missing.pop(sorted(missing)[0])
        with pytest.raises(ValidationError, match="missing parameter"):
            run(g, SBS, x, init_states(g), params=missing)

    @pytest.mark.parametrize("entry", ["run", "run_taped", "run_with_checkpointing",
                                       "loss_and_grad", "train"])
    @pytest.mark.parametrize("dtype, other", [(np.float32, np.float64), (np.float64, np.float32)],
                             ids=["f64_into_f32", "f32_into_f64"])
    def test_parameter_of_other_dtype_rejected(self, entry, dtype, other):
        # a cast would hide a caller's precision mix, and computing in the
        # parameter's dtype would break the graph's precision
        g = recurrent_net(dtype)
        x = spikes(g, 4, 0)
        for name in sorted(g.params):
            bad = dict(g.params)
            bad[name] = bad[name].astype(other)
            with pytest.raises(ValidationError, match=f"parameter {name} has dtype"):
                if entry == "run":
                    run(g, SBS, x, init_states(g), params=bad)
                elif entry == "run_taped":
                    tape = Tape()
                    run(g, SBS, x, init_states(g),
                        params={n: tape.leaf(v) for n, v in bad.items()})
                elif entry == "run_with_checkpointing":
                    run_with_checkpointing(g.copy_with_params(bad),
                                           ExecutionPlan(checkpoint_every=2), x, init_states(g),
                                           SpikeCountCELoss(TARGET))
                elif entry == "loss_and_grad":
                    loss_and_grad(g.copy_with_params(bad), SBS, [(x, TARGET)])
                else:
                    train(g.copy_with_params(bad), [(x, TARGET)],
                          TrainConfig(epochs=1, batch_size=1, plan=SBS))

    def test_logit_gradient_of_other_shape_rejected(self):
        # a head's one-value gradient would broadcast over every class
        class OneValue:
            def loss_and_logit_grad(self, logits):
                return 0.0, np.ones(1, dtype=logits.dtype)

        g = recurrent_net(np.float32)
        with pytest.raises(ShapeError, match="logit gradient"):
            run_with_checkpointing(g, ExecutionPlan(checkpoint_every=2), spikes(g, 4, 0),
                                   init_states(g), OneValue())


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
class TestDtypeContract:
    @pytest.mark.parametrize("plan", [LBL, SBS], ids=["lbl", "sbs"])
    def test_run_on_a_tape(self, dtype, plan):
        g = conv_net(dtype)
        tape = Tape()
        params = {n: tape.leaf(g.params[n]) for n in sorted(g.params)}
        states, rec = run(g, plan, spikes(g, 6, 3), init_states(g), params=params,
                          record_hidden=True)
        loss = SpikeCountCELoss(TARGET).loss_tensor(rec)
        grads = tape.grads_from_seeds({loss.node_id: np.ones((), dtype=dtype)})
        assert_tape_dtype(tape, dtype)
        assert_arrays_dtype([t.data for t in rec.hidden.values()], dtype)
        assert_arrays_dtype([v.data for st in states.values() for v in (st.U, st.I, st.S)],
                            dtype)
        assert_arrays_dtype(grads.values(), dtype)

    def test_step_by_step_with_feedback(self, dtype):
        g = recurrent_net(dtype)
        states, rec = run(g, SBS, spikes(g, 6, 4), init_states(g), record_hidden=True)
        assert_arrays_dtype([t.data for t in rec.hidden.values()], dtype)
        assert_arrays_dtype([v.data for st in states.values() for v in (st.U, st.I, st.S)],
                            dtype)

    def test_run_with_checkpointing(self, dtype, tapes):
        g = recurrent_net(dtype)
        loss, grads, stats = run_with_checkpointing(
            g, ExecutionPlan(checkpoint_every=3), spikes(g, 9, 5), init_states(g),
            SpikeCountCELoss(TARGET),
        )
        # segments replay on plain arrays: no tape at all
        assert tapes == [] and stats["segments"] == 3
        assert_arrays_dtype([*grads.values(), stats["logits"]], dtype)

    @pytest.mark.parametrize("make", [conv_net, recurrent_net], ids=["conv", "rec"])
    def test_loss_and_grad(self, dtype, make, tapes):
        g = make(dtype)
        batch = [(spikes(g, 5, s), TARGET) for s in range(2)]
        _, grads = loss_and_grad(g, SBS, batch)
        # the executor differentiates every plan without a tape
        assert tapes == []
        assert_arrays_dtype(grads.values(), dtype)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_train_step_keeps_parameter_dtype(self, dtype, optimizer, tapes, monkeypatch):
        # train differentiates each run of equal-shape samples with the
        # executor's tape-free driver, which adds their gradients to the
        # batch total; the logits and gradients must keep the graph's dtype
        computed = []
        driver = executor._loss_and_grad

        def recording_driver(*args):
            losses, logits, stats = driver(*args)
            computed.append([*args[5].values(), *logits])
            return losses, logits, stats

        monkeypatch.setattr(executor, "_loss_and_grad", recording_driver)
        for plan in (LBL, SBS):
            g = conv_net(dtype)
            data = [(spikes(g, 5, s), TARGET) for s in range(2)]
            before = {k: v.copy() for k, v in g.params.items()}
            cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=0.1, optimizer=optimizer,
                              plan=plan)
            g, _ = train(g, data, cfg)
            assert_arrays_dtype(g.params.values(), dtype)
            assert any(not np.array_equal(g.params[k], before[k]) for k in before)
        # one driver call per train step: both samples share one shape
        assert tapes == [] and len(computed) == 2
        for arrays in computed:
            assert_arrays_dtype(arrays, dtype)

    def test_adam_moments_keep_parameter_dtype(self, dtype):
        g = conv_net(dtype)
        _, grads = loss_and_grad(g, LBL, [(spikes(g, 5, 0), TARGET)])
        # float64 gradients and NumPy-scalar hyperparameters must not promote
        grads64 = {k: v.astype(np.float64) for k, v in grads.items()}
        cfg = TrainConfig(learning_rate=np.float64(0.01), beta1=np.float64(0.9))
        params, state = optimizer_step(g.params, grads64, None, cfg)
        params, state = optimizer_step(params, grads64, state, cfg)
        assert state["t"] == 2
        for arrays in (params, state["m"], state["v"]):
            assert_arrays_dtype(arrays.values(), dtype)


def taped_gradients(g, plan, x, seed_dtype):
    """Every leaf's gradient of a taped run (parameters, input, initial U
    and I), seeded on the loss and on the first LIF layer's final U with
    float32 values given in seed_dtype."""
    tape = Tape()
    leaves = [tape.leaf(g.params[n]) for n in sorted(g.params)]
    xt = tape.leaf(x.data.astype(g.dtype))
    states = {}
    for nid, st in init_states(g, mode="uniform", seed=1).items():
        states[nid] = NeuronState(U=tape.leaf(st.U.data), I=tape.leaf(st.I.data), S=st.S)
        leaves += [states[nid].U, states[nid].I]
    final, rec = run(g, plan, xt, states, params=dict(zip(sorted(g.params), leaves)))
    loss = SpikeCountCELoss(TARGET).loss_tensor(rec)
    u = final[g.stateful_nodes()[0]].U
    u_seed = np.linspace(-1.0, 1.0, u.size, dtype=np.float32).reshape(u.shape)
    grads = tape.grads_from_seeds({loss.node_id: np.ones((), dtype=seed_dtype),
                                   u.node_id: u_seed.astype(seed_dtype)})
    return [grads[t.node_id] for t in [xt, *leaves]]


class TestGradientsEnterInRunDtype:
    """A float32 graph's reverse walk computes in float32 whatever the dtype
    of the gradients handed to it."""

    @pytest.mark.parametrize("make, plan", [
        (conv_net, LBL), (conv_net, SBS), (recurrent_net, SBS),
        (recurrent_net, ExecutionPlan(checkpoint_every=3)),
    ], ids=["conv-lbl", "conv-sbs", "rec-sbs", "rec-sbs-k3"])
    def test_float64_seeds(self, make, plan):
        # np.ones(()) is float64: the natural seed of a loss
        g = make(np.float32)
        x = spikes(g, 7, 6)
        got = taped_gradients(g, plan, x, np.float64)
        want = taped_gradients(g, plan, x, np.float32)
        assert_arrays_dtype(got, np.float32)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_float64_logit_gradient(self, k):
        class Float64Head(SpikeCountCELoss):
            def loss_and_logit_grad(self, logits):
                loss, dl = super().loss_and_logit_grad(logits)
                return loss, dl.astype(np.float64)

        g = recurrent_net(np.float32)
        x = spikes(g, 6, 7)
        plan = ExecutionPlan(checkpoint_every=k)
        _, got, _ = run_with_checkpointing(g, plan, x, init_states(g), Float64Head(TARGET))
        _, want, _ = run_with_checkpointing(g, plan, x, init_states(g), SpikeCountCELoss(TARGET))
        assert_arrays_dtype(got.values(), np.float32)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


def test_float64_optimizer_step_unchanged_by_casts():
    """On float64 parameters the casts are no-ops: Adam's textbook
    expressions, evaluated in float64, give the same bits."""
    rng = np.random.default_rng(0)
    params = {"w": rng.normal(size=(3, 4))}
    grads = {"w": rng.normal(size=(3, 4))}
    cfg = TrainConfig(learning_rate=1e-2)
    new, state = optimizer_step(params, grads, None, cfg)
    g = grads["w"]
    m = 0.9 * np.zeros_like(g) + (1.0 - 0.9) * g
    v = 0.999 * np.zeros_like(g) + (1.0 - 0.999) * g**2
    want = params["w"] - 1e-2 * (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
    assert np.array_equal(state["m"]["w"], m)
    assert np.array_equal(state["v"]["w"], v)
    assert np.array_equal(new["w"], want)


def test_checkpointing_bit_identical_to_loss_and_grad_in_float32():
    """Criterion 4's float32 twin on a delay-1 graph: value and dtype."""
    g = recurrent_net(np.float32)
    x = gen_random_spikes(4, 40, 0.3, seed=4)
    ref_loss, ref_grads = loss_and_grad(g, SBS, [(x, TARGET)])
    loss, grads, _ = run_with_checkpointing(
        g, ExecutionPlan("step_by_step", checkpoint_every=10), x, init_states(g),
        SpikeCountCELoss(TARGET),
    )
    assert loss == ref_loss
    assert sorted(grads) == sorted(ref_grads)
    for name in grads:
        assert grads[name].dtype == ref_grads[name].dtype == np.float32, name
        assert np.array_equal(grads[name], ref_grads[name]), name


def workload_mlp():
    return sequential(
        [linear_layer(256, in_features=64), lif_layer(256), linear_layer(256), lif_layer(256),
         linear_layer(10), lif_layer(10)],
        input_shape=(64,), seed=0, dtype=np.float32,
    )


def workload_cnn():
    return sequential(
        [conv_layer(2, 16, 3, padding=1), lif_layer(), conv_layer(16, 16, 3, padding=1),
         lif_layer(), flatten_layer(), linear_layer(10), lif_layer(10)],
        input_shape=(2, 16, 16), seed=0, dtype=np.float32,
    )


@pytest.mark.parametrize("make, steps", [(workload_mlp, 100), (workload_cnn, 25)],
                         ids=["mlp", "cnn"])
def test_schedulers_agree_in_float32(make, steps):
    """The benchmark's graphs in float32: every node's output, spikes
    included, is bit-identical under both schedulers on 100 seeded samples.
    On the mlp, seed 65 flipped 339 spikes when a one-row linear product
    summed in another order than a many-row one."""
    g = make()
    for seed in range(100):
        x = gen_random_spikes(input_shape(g), steps, 0.2, seed=seed)
        _, a = run(g, LBL, x, init_states(g), record_hidden=True)
        _, b = run(g, SBS, x, init_states(g), record_hidden=True)
        for nid, trace in a.hidden.items():
            assert trace.dtype == b.hidden[nid].dtype == np.float32
            assert np.array_equal(trace.data, b.hidden[nid].data), (seed, nid)
