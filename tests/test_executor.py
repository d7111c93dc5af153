"""Schedulers, the fused layer_by_layer scan, delayed feedback, and gradient checkpointing."""

import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_program import TOLERANCE, per_op_step_by_step, summing_magnitudes

import spikegrad.executor as executor_mod
import spikegrad.training as training_mod
from spikegrad.executor import (
    ExecutionPlan,
    PlanError,
    SpikeRecord,
    init_states,
    run,
    run_with_checkpointing,
    write_trace,
)
from spikegrad.neurons import NeuronState
from spikegrad.tensor import ShapeError, Tape, Tensor, ValidationError
from spikegrad.topology import (
    conv_layer,
    flatten_layer,
    graph_build,
    lif_layer,
    linear_layer,
    sequential,
    sequential_recurrent,
)
from spikegrad.training import SpikeCountCELoss, loss_and_grad


def lif_numpy_step(u, i, x, p):
    """Reference LIF recurrence in plain numpy (subtract reset)."""
    i = p.beta * i + x
    u_pre = p.alpha * u + i
    s = (u_pre >= p.thr).astype(u_pre.dtype)
    return u_pre - p.thr * s, i, s


def mlp(seed=0, dtype=np.float64, width=6, n_in=4, n_out=3, smooth=None):
    return sequential(
        [linear_layer(width, in_features=n_in), lif_layer(width, smooth_sharpness=smooth),
         linear_layer(n_out), lif_layer(n_out, smooth_sharpness=smooth)],
        input_shape=(n_in,), seed=seed, dtype=dtype,
    )


class TestPlanValidation:
    def test_bad_scheduler(self):
        with pytest.raises(ValidationError):
            ExecutionPlan("depth_first")

    def test_bad_checkpoint(self):
        with pytest.raises(ValidationError):
            ExecutionPlan(checkpoint_every=0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, False, "2"])
    def test_checkpoint_every_must_be_an_int(self, k):
        # 2.5 failed later inside range(); True was taken as 1
        with pytest.raises(ValidationError):
            ExecutionPlan("step_by_step", checkpoint_every=k)

    @pytest.mark.parametrize("entry", ["run", "run_with_checkpointing"])
    def test_plan_must_be_an_execution_plan(self, entry):
        # a scheduler's name in its place raised AttributeError
        g = mlp()
        x = np.ones((3, 4))
        with pytest.raises(ValidationError):
            if entry == "run":
                run(g, "step_by_step", x, init_states(g))
            else:
                run_with_checkpointing(g, "step_by_step", x, init_states(g),
                                       SpikeCountCELoss(np.eye(3)[0]))


class TestInitStates:
    def test_zeros_for_all_stateful_nodes(self):
        g = mlp()
        states = init_states(g)
        assert sorted(states) == [1, 3]
        assert np.array_equal(states[1].U.data, np.zeros(6))
        assert np.array_equal(states[3].I.data, np.zeros(3))

    def test_uniform_deterministic_per_seed(self):
        g = mlp()
        a = init_states(g, mode="uniform", seed=5)
        b = init_states(g, mode="uniform", seed=5)
        c = init_states(g, mode="uniform", seed=6)
        assert np.array_equal(a[1].U.data, b[1].U.data)
        assert not np.array_equal(a[1].U.data, c[1].U.data)
        # distinct nodes draw from distinct streams
        assert not np.array_equal(a[1].U.data[:3], a[3].U.data)

    def test_stateless_graph_has_no_states(self):
        g = sequential([linear_layer(2, in_features=2)], input_shape=(2,))
        assert init_states(g) == {}


class TestRunBasics:
    def test_single_lif_passthrough_matches_numpy(self):
        g = sequential([lif_layer(3)], input_shape=(3,), dtype=np.float64)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.5, (8, 3))
        _, rec = run(g, ExecutionPlan("step_by_step"), x, init_states(g))
        p = g.nodes[0].lif
        u = np.zeros(3)
        i = np.zeros(3)
        expected = []
        for t in range(8):
            u, i, s = lif_numpy_step(u, i, x[t], p)
            expected.append(s)
        assert np.array_equal(rec.outputs[0].data, np.stack(expected))

    def test_zero_input_stays_silent(self):
        g = mlp()
        _, rec = run(g, ExecutionPlan("step_by_step"), np.zeros((5, 4)), init_states(g))
        assert np.array_equal(rec.outputs[3].data, np.zeros((5, 3)))

    def test_record_hidden_traces_every_node(self):
        g = mlp()
        x = np.ones((4, 4))
        _, rec = run(g, ExecutionPlan("step_by_step"), x, init_states(g),
                     record_hidden=True)
        assert sorted(rec.hidden) == [0, 1, 2, 3]
        assert rec.hidden[1].shape == (4, 6)
        assert rec.steps == 4

    def test_missing_state_rejected(self):
        g = mlp()
        with pytest.raises(ValidationError):
            run(g, ExecutionPlan(), np.ones((2, 4)), {})

    def test_wrong_state_shape_rejected(self):
        from spikegrad.neurons import init_state

        g = mlp()
        bad = {1: init_state(5), 3: init_state(3)}
        with pytest.raises(ShapeError):
            run(g, ExecutionPlan(), np.ones((2, 4)), bad)

    def test_empty_time_axis_rejected(self):
        g = mlp()
        with pytest.raises(ValidationError):
            run(g, ExecutionPlan(), np.ones((0, 4)), init_states(g))


class TestSchedulerEquivalence:
    def test_outputs_identical_feed_forward(self):
        g = mlp(seed=2)
        rng = np.random.default_rng(1)
        x = (rng.random((40, 4)) < 0.3).astype(np.float64)
        _, a = run(g, ExecutionPlan("step_by_step"), x, init_states(g))
        _, b = run(g, ExecutionPlan("layer_by_layer"), x, init_states(g))
        assert np.allclose(a.outputs[3].data, b.outputs[3].data, atol=1e-6)

    @staticmethod
    def taped_run_tags(g, plan, x):
        tape = Tape()
        params = {name: tape.leaf(g.params[name]) for name in sorted(g.params)}
        run(g, plan, x, init_states(g), params=params)
        return tape._tags

    @pytest.mark.parametrize("scheduler,smooth", [("layer_by_layer", None),
                                                  ("step_by_step", 20.0)])
    def test_taped_run_is_one_graph_run_node(self, scheduler, smooth):
        # the parameter leaves, one graph_run node, and one output node for
        # the output record and for U, I and S of each LIF layer
        g = mlp(seed=2, smooth=smooth)
        x = (np.random.default_rng(1).random((7, 4)) < 0.3).astype(np.float64)
        outputs = 1 + 3 * len(g.stateful_nodes())
        assert self.taped_run_tags(g, ExecutionPlan(scheduler), x) == (
            ["leaf"] * len(g.params) + ["graph_run"] + ["graph_run_out"] * outputs)

    def test_recurrent_layout_pinned(self, monkeypatch):
        # linear -> LIF with a delay-1 linear feedback -> linear -> LIF
        g = graph_build(
            [linear_layer(6, in_features=4), lif_layer(6), linear_layer(6),
             linear_layer(3), lif_layer(3)],
            [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 3, 0), (3, 4, 0)],
            input_nodes=[0], output_nodes=[4], input_shape=(4,), seed=1, dtype=np.float64,
        )
        x = (np.random.default_rng(3).random((10, 4)) < 0.4).astype(np.float64)
        # the tape does not grow with T
        for steps in (1, 5):
            assert Counter(self.taped_run_tags(g, ExecutionPlan("step_by_step"), x[:steps])) == {
                "leaf": 3, "graph_run": 1, "graph_run_out": 1 + 3 * 2}
        made = []
        init = Tape.__init__

        def counting_init(tape):
            init(tape)
            made.append(tape)

        monkeypatch.setattr(Tape, "__init__", counting_init)
        _, _, stats = run_with_checkpointing(
            g, ExecutionPlan("step_by_step", checkpoint_every=5), x, init_states(g),
            SpikeCountCELoss(np.array([0.0, 1.0, 0.0])),
        )
        assert made == [] and stats["peak_tape_nodes"] == 0
        # per step, float64: the input row [1, 4], U_pre [1, 6] and [1, 3],
        # and the hidden spikes [1, 6] twice: the feedback matmul, which is
        # on the cycle, saves each step's row, and the readout matmul, which
        # runs after the stepped loop, the segment's gathered copy; 5 steps
        # a segment
        assert stats["peak_saved_bytes"] == 5 * (4 + 6 + 3 + 6 + 6) * 8

    def test_layer_by_layer_rejects_feedback(self):
        g = sequential_recurrent(
            [linear_layer(4, in_features=3), lif_layer(4)], feedback=[(1, 1)],
            input_shape=(3,),
        )
        with pytest.raises(PlanError):
            run(g, ExecutionPlan("layer_by_layer"), np.ones((3, 3)), init_states(g))

    def test_gradients_agree_across_schedulers(self):
        g = mlp(seed=4, smooth=20.0)
        rng = np.random.default_rng(3)
        batch = [((rng.random((15, 4)) < 0.4).astype(np.float64),
                  np.array([0.0, 1.0, 0.0]))]
        _, ga = loss_and_grad(g, ExecutionPlan("step_by_step"), batch)
        _, gb = loss_and_grad(g, ExecutionPlan("layer_by_layer"), batch)
        for name in ga:
            denom = max(np.abs(ga[name]).max(), 1e-12)
            assert np.abs(ga[name] - gb[name]).max() / denom < 1e-10


def conv_fan_in_graph(c_in, size, c_out, kernel, stride, padding, n_hidden, n_out,
                      fan_in_src, flat_skip, smooth, seed):
    """conv -> LIF -> flatten -> linear -> linear -> LIF, plus a delay-0
    fan-in edge into the readout LIF from node fan_in_src, projected where
    its shape differs, and with flat_skip a conv -> linear edge that only
    needs a reshape."""
    nodes = [conv_layer(c_in, c_out, kernel, stride=stride, padding=padding),
             lif_layer(smooth_sharpness=smooth), flatten_layer(), linear_layer(n_hidden),
             linear_layer(n_out), lif_layer(n_out, smooth_sharpness=smooth)]
    edges = [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (fan_in_src, 5, 0)]
    if flat_skip:
        edges.append((0, 3, 0))
    return graph_build(nodes, edges, input_shape=(c_in, size, size), seed=seed,
                       dtype=np.float64)


@st.composite
def conv_fan_in_cases(draw):
    graph = conv_fan_in_graph(
        c_in=draw(st.integers(1, 2)), size=draw(st.integers(3, 5)),
        c_out=draw(st.integers(1, 3)), kernel=draw(st.integers(1, 3)), stride=draw(st.integers(1, 2)), padding=draw(st.integers(0, 1)),
        n_hidden=draw(st.integers(2, 6)), n_out=draw(st.integers(2, 4)),
        fan_in_src=draw(st.sampled_from([0, 1, 3])), flat_skip=draw(st.booleans()),
        smooth=draw(st.sampled_from([None, 20.0])), seed=draw(st.integers(0, 2**16)),
    )
    t = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.uniform(0.0, 2.0, (t,) + graph.input_shape)
    target = np.eye(graph.nodes[-1].shape[0])[0]
    return graph, x, target


class TestMergedPathProperties:
    @settings(max_examples=50, deadline=None)
    @given(conv_fan_in_cases())
    def test_schedulers_agree_on_conv_projection_fan_in(self, case):
        g, x, target = case
        _, a = run(g, ExecutionPlan("step_by_step"), x, init_states(g), record_hidden=True)
        _, b = run(g, ExecutionPlan("layer_by_layer"), x, init_states(g), record_hidden=True)
        assert sorted(a.hidden) == sorted(b.hidden)
        for nid in a.hidden:
            assert a.hidden[nid].shape == b.hidden[nid].shape
            assert np.abs(a.hidden[nid].data - b.hidden[nid].data).max() < 1e-6
        batch = [(x, target)]
        _, ga = loss_and_grad(g, ExecutionPlan("step_by_step"), batch)
        _, gb = loss_and_grad(g, ExecutionPlan("layer_by_layer"), batch)
        for name in ga:
            denom = max(np.abs(ga[name]).max(), 1e-12)
            assert np.abs(ga[name] - gb[name]).max() / denom < 1e-5, name

    @settings(max_examples=50, deadline=None)
    @given(n_in=st.integers(1, 4), width=st.integers(3, 6), fb_src=st.sampled_from([1, 3]),
           smooth=st.sampled_from([None, 20.0]), t=st.integers(2, 12), data=st.data())
    def test_checkpointing_bit_identical_with_feedback(self, n_in, width, fb_src, smooth, t,
                                                       data):
        # the readout has 2 neurons and the hidden layer at least 3, so
        # feedback from node 3 needs a projection and the self-loop does not
        g = sequential_recurrent(
            [linear_layer(width, in_features=n_in), lif_layer(width, smooth_sharpness=smooth),
             linear_layer(2), lif_layer(2, smooth_sharpness=smooth)],
            feedback=[(fb_src, 1)], input_shape=(n_in,), seed=data.draw(st.integers(0, 99)),
            dtype=np.float64,
        )
        assert (g.proj_name(fb_src, 1) in g.params) == (fb_src == 3)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.uniform(0.0, 2.0, (t, n_in))
        target = np.array([0.0, 1.0])
        ref_loss, ref_grads, _ = full_bptt(g, x, target)
        plan = ExecutionPlan("step_by_step", checkpoint_every=data.draw(st.integers(1, t)))
        loss, grads, _ = run_with_checkpointing(g, plan, x, init_states(g),
                                                SpikeCountCELoss(target))
        assert loss == ref_loss
        assert sorted(grads) == sorted(ref_grads)
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


class TestDelayedFeedback:
    def test_two_node_loop_matches_hand_unroll(self):
        # node1's spikes at step t feed node0's input at t+1
        g = sequential_recurrent(
            [lif_layer(2), lif_layer(2)], feedback=[(1, 0)], input_shape=(2,),
            dtype=np.float64,
        )
        assert g.edges == [(0, 1, 0), (1, 0, 1)]
        x = np.array([[1.5, 0.4], [0.2, 1.3], [0.9, 0.9]])
        _, rec = run(g, ExecutionPlan("step_by_step"), x, init_states(g))

        p = g.nodes[0].lif
        u0 = np.zeros(2); i0 = np.zeros(2)
        u1 = np.zeros(2); i1 = np.zeros(2)
        prev_s1 = np.zeros(2)
        expected = []
        for t in range(3):
            u0, i0, s0 = lif_numpy_step(u0, i0, x[t] + prev_s1, p)
            u1, i1, s1 = lif_numpy_step(u1, i1, s0, p)
            prev_s1 = s1
            expected.append(s1)
        assert np.array_equal(rec.outputs[1].data, np.stack(expected))

    def test_delay_edge_reads_zero_at_step0(self):
        # with all-zero input, a self-loop can never ignite
        g = sequential_recurrent([lif_layer(2)], feedback=[(0, 0)], input_shape=(2,))
        _, rec = run(g, ExecutionPlan("step_by_step"), np.zeros((4, 2)), init_states(g))
        assert np.array_equal(rec.outputs[0].data, np.zeros((4, 2)))


def full_bptt(graph, x, target):
    """Reference: whole run on one tape, loss seeded at the top."""
    tape = Tape()
    params_t = {name: tape.leaf(graph.params[name]) for name in sorted(graph.params)}
    _, rec = run(graph, ExecutionPlan("step_by_step"), x, init_states(graph),
                 params=params_t)
    loss = SpikeCountCELoss(target).loss_tensor(rec, graph.output_nodes[0])
    grads = tape.grads_from_seeds({loss.node_id: np.ones((), dtype=graph.dtype)})
    named = {name: grads[t.node_id] for name, t in params_t.items()}
    return float(loss.data), named, len(tape)


class TestCheckpointing:
    def setup_method(self):
        self.g = mlp(seed=6)
        rng = np.random.default_rng(8)
        self.x = (rng.random((30, 4)) < 0.35).astype(np.float64)
        self.target = np.array([1.0, 0.0, 0.0])
        self.head = SpikeCountCELoss(self.target)

    def test_bit_identical_to_full_bptt(self):
        ref_loss, ref_grads, full_nodes = full_bptt(self.g, self.x, self.target)
        for k in (5, 10, 30):
            plan = ExecutionPlan("step_by_step", checkpoint_every=k)
            loss, grads, stats = run_with_checkpointing(
                self.g, plan, self.x, init_states(self.g), self.head
            )
            assert loss == ref_loss
            assert sorted(grads) == sorted(ref_grads)
            for name in grads:
                assert np.array_equal(grads[name], ref_grads[name]), (k, name)
            assert stats["segments"] == -(-30 // k)

    def test_peak_saved_bytes_smaller_than_full(self):
        peak = {}
        for k in (5, 30):
            plan = ExecutionPlan("step_by_step", checkpoint_every=k)
            _, _, stats = run_with_checkpointing(
                self.g, plan, self.x, init_states(self.g), self.head
            )
            peak[k] = stats["peak_saved_bytes"]
        assert 0 < peak[5] < peak[30]

    def test_checkpoint_every_exceeding_t_rejected(self):
        plan = ExecutionPlan("step_by_step", checkpoint_every=31)
        with pytest.raises(ValidationError):
            run_with_checkpointing(self.g, plan, self.x, init_states(self.g), self.head)

    def test_requires_checkpoint_every(self):
        with pytest.raises(ValidationError):
            run_with_checkpointing(self.g, ExecutionPlan(), self.x,
                                   init_states(self.g), self.head)

    def test_layer_by_layer_rejected(self):
        plan = ExecutionPlan("layer_by_layer", checkpoint_every=5)
        with pytest.raises(PlanError):
            run_with_checkpointing(self.g, plan, self.x, init_states(self.g), self.head)

    def test_recurrent_graph_checkpointing_matches(self):
        g = sequential_recurrent(
            [linear_layer(4, in_features=3), lif_layer(4), linear_layer(2),
             lif_layer(2)],
            feedback=[(3, 1)], input_shape=(3,), seed=1, dtype=np.float64,
        )
        rng = np.random.default_rng(2)
        x = (rng.random((12, 3)) < 0.5).astype(np.float64)
        target = np.array([0.0, 1.0])
        ref_loss, ref_grads, _ = full_bptt(g, x, target)
        plan = ExecutionPlan("step_by_step", checkpoint_every=4)
        loss, grads, _ = run_with_checkpointing(
            g, plan, x, init_states(g), SpikeCountCELoss(target)
        )
        assert loss == ref_loss
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


def recurrent_graph(dtype=np.float32):
    """linear -> LIF with a projected delay-1 feedback from the readout and
    a delay-1 self-loop -> linear -> LIF readout."""
    return graph_build(
        [linear_layer(6, in_features=4), lif_layer(6), linear_layer(3), lif_layer(3)],
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 1, 1), (1, 1, 1)],
        input_nodes=[0], output_nodes=[3], input_shape=(4,), seed=7, dtype=dtype,
    )


def taped_run_grads(graph, plan, x):
    """Gradients of every parameter, the input and each initial U and I of a
    taped run, seeded on the output record and on every final U and I."""
    tape = Tape()
    leaves = {n: tape.leaf(graph.params[n]) for n in sorted(graph.params)}
    leaves["x"] = tape.leaf(x)
    states = {}
    for nid, st in init_states(graph, mode="uniform", seed=2).items():
        leaves[f"U{nid}"], leaves[f"I{nid}"] = tape.leaf(st.U.data), tape.leaf(st.I.data)
        states[nid] = NeuronState(U=leaves[f"U{nid}"], I=leaves[f"I{nid}"], S=st.S)
    final, rec = run(graph, plan, leaves["x"], states, params=leaves)
    rng = np.random.default_rng(11)
    outs = [rec.outputs[graph.output_nodes[0]]] + [
        getattr(final[nid], part) for nid in sorted(final) for part in "UI"]
    grads = tape.grads_from_seeds(
        {o.node_id: rng.standard_normal(o.shape).astype(graph.dtype) for o in outs})
    return {name: grads[t.node_id] for name, t in leaves.items()}, tape


class TestRunHonoursCheckpointEvery:
    T = 12

    def setup_method(self):
        self.g = recurrent_graph()
        rng = np.random.default_rng(5)
        self.x = rng.uniform(0.0, 1.5, (self.T, 4)).astype(np.float32)

    @pytest.mark.parametrize("k,replayed", [(1, 11), (4, 8), (5, 10), (12, 0)])
    def test_taped_run_gradients_equal_and_segments_replayed(self, k, replayed, monkeypatch):
        ref, _ = taped_run_grads(self.g, ExecutionPlan("step_by_step"), self.x)
        calls = []
        forward = executor_mod._forward
        monkeypatch.setattr(executor_mod, "_forward",
                            lambda *args: calls.append(1) or forward(*args))
        got, tape = taped_run_grads(self.g, ExecutionPlan("step_by_step", checkpoint_every=k),
                                    self.x)
        # the forward runs every step once; the backward replays every step
        # before the newest segment, whose arrays the forward saved. The
        # input projection is off the feedback cycle, so each segment's run
        # and replay adds one call for it, over all of the segment's rows
        segments = -(-self.T // k)
        assert len(calls) == self.T + replayed + 2 * segments - 1
        assert tape._tags.count("graph_run") == 1
        assert sorted(got) == sorted(ref)
        for name in ref:
            assert got[name].dtype == ref[name].dtype, name
            assert np.array_equal(got[name], ref[name]), (k, name)
        assert any(np.any(ref[n] != 0) for n in ("x", "U1", "I1"))

    def test_backward_can_run_twice(self):
        tape = Tape()
        params = {n: tape.leaf(self.g.params[n]) for n in sorted(self.g.params)}
        _, rec = run(self.g, ExecutionPlan("step_by_step", checkpoint_every=5), self.x,
                     init_states(self.g), params=params)
        seed = {rec.outputs[3].node_id: np.ones(rec.outputs[3].shape, dtype=np.float32)}
        first, second = tape.grads_from_seeds(seed), tape.grads_from_seeds(seed)
        for nid in first:
            assert np.array_equal(first[nid], second[nid])

    def test_replay_frees_the_newest_segment(self, monkeypatch):
        # run_with_checkpointing must drop the newest segment's saved arrays
        # before it replays the segment before it, so that one segment's
        # arrays are alive at a time
        newest, alive = [], []
        forward_segments, backward = executor_mod._forward_segments, executor_mod._backward

        def spy_forward(*args):
            fwd = forward_segments(*args)
            newest.extend(weakref.ref(a) for slab in fwd.saved for a in slab)
            return fwd

        def spy_backward(*args):
            alive.append(sum(ref() is not None for ref in newest))
            return backward(*args)

        monkeypatch.setattr(executor_mod, "_forward_segments", spy_forward)
        monkeypatch.setattr(executor_mod, "_backward", spy_backward)
        run_with_checkpointing(self.g, ExecutionPlan("step_by_step", checkpoint_every=5),
                               self.x, init_states(self.g),
                               SpikeCountCELoss(np.array([0.0, 1.0, 0.0])))
        # T = 12, k = 5: the newest segment is steps 10 and 11, walked one
        # step at a time, then its input projection, which is off the
        # feedback cycle, over both steps at once; each segment walks so
        assert len(alive) == self.T + 3 and newest
        assert all(alive[:3]) and not any(alive[3:]), alive

    def test_layer_by_layer_with_checkpoint_every_rejected(self):
        g = mlp(dtype=np.float32)
        x = np.ones((6, 4), dtype=np.float32)
        with pytest.raises(PlanError):
            run(g, ExecutionPlan("layer_by_layer", checkpoint_every=2), x, init_states(g))

    def test_checkpoint_every_exceeding_t_rejected(self):
        with pytest.raises(ValidationError):
            run(self.g, ExecutionPlan("step_by_step", checkpoint_every=self.T + 1), self.x,
                init_states(self.g))


class TestDropsConsumedArrays:
    """The forward and the reverse walk let go of what no later instruction
    reads, rather than keeping it until the slab is done."""

    def setup_method(self):
        self.g = mlp(dtype=np.float32, width=8)
        self.x = (np.random.default_rng(2).random((9, 4)) < 0.5).astype(np.float32)

    def test_forward_drops_a_value_after_its_last_reader(self, monkeypatch):
        # layer_by_layer is one slab of all T steps; each matmul's output is
        # read by its LIF layer only, so it is gone before the next scan
        outputs, alive = [], []
        matmul_rows, scan = executor_mod.ops.matmul_rows, executor_mod.ops.lif_scan_forward

        def spy_matmul(*args):
            out = matmul_rows(*args)
            outputs.append(weakref.ref(out))
            return out

        def spy_scan(*args):
            alive.append(sum(ref() is not None for ref in outputs))
            return scan(*args)

        monkeypatch.setattr(executor_mod.ops, "matmul_rows", spy_matmul)
        monkeypatch.setattr(executor_mod.ops, "lif_scan_forward", spy_scan)
        run(self.g, ExecutionPlan("layer_by_layer"), self.x, init_states(self.g))
        assert alive == [1, 1]

    def test_reverse_walk_drops_saved_arrays_and_gradients_once_read(self, monkeypatch):
        # each saved array is gone by the next kernel call of the walk, and
        # no slot gradient or saved array outlives its instruction's backward
        saved_refs, alive, left = [], [], []
        forward_segments, backward = executor_mod._forward_segments, executor_mod._backward

        def spy_forward(*args):
            fwd = forward_segments(*args)
            saved_refs.extend(weakref.ref(a) for slab in fwd.saved for a in slab)
            return fwd

        def spy_backward(ctx, params, gr, saved, *rest):
            backward(ctx, params, gr, saved, *rest)
            left.append(sum(v is not None for v in gr + saved))

        def counting(kernel):
            def call(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in saved_refs))
                return kernel(*args, **kwargs)

            return call

        monkeypatch.setattr(executor_mod, "_forward_segments", spy_forward)
        monkeypatch.setattr(executor_mod, "_backward", spy_backward)
        for name in ("lif_scan_backward", "matmul_backward"):
            monkeypatch.setattr(executor_mod.ops, name, counting(getattr(executor_mod.ops, name)))
        loss_and_grad(self.g, ExecutionPlan("layer_by_layer"), [(self.x, np.eye(3)[1])])
        # two scans and two matmuls read one saved array each, the last first
        assert alive == [4, 3, 2, 1] and left == [0]

    def test_each_micro_batch_lets_go_of_its_inputs(self, monkeypatch):
        # the run boundary casts the float64 inputs to the graph's float32;
        # with a budget of one sample, each micro-batch's input is gone
        # before the next micro-batch's forward starts
        inputs, alive = [], []
        check, forward_segments = executor_mod._check_sample, executor_mod._forward_segments

        def spy_check(*args):
            x = check(*args)
            inputs.append(weakref.ref(x.data))
            return x

        def spy_forward(*args):
            alive.append(sum(ref() is not None for ref in inputs))
            return forward_segments(*args)

        monkeypatch.setattr(executor_mod, "_check_sample", spy_check)
        monkeypatch.setattr(executor_mod, "_forward_segments", spy_forward)
        rng = np.random.default_rng(4)
        xs = [(rng.random((9, 4)) < 0.5).astype(np.float64) for _ in range(4)]
        plan = ExecutionPlan("layer_by_layer")
        budget = executor_mod._ExecContext(self.g).sample_bytes(9, 9, None)
        executor_mod._loss_and_grad(self.g, plan, xs, [init_states(self.g)] * 4,
                                    [SpikeCountCELoss(np.eye(3)[i % 3]) for i in range(4)], {},
                                    budget)
        assert alive == [4, 3, 2, 1]


class TestInPlaceGradientSums:
    """A run of many slabs adds each parameter's later gradients in place to
    the first one the walk handed over, which must be the walk's own array:
    no parameter, input or saved array may share its memory."""

    @pytest.mark.parametrize("k", [None, 4])
    def test_sums_alias_nothing_the_run_keeps(self, k, monkeypatch):
        g = recurrent_graph(np.float64)
        x = np.random.default_rng(6).uniform(0.0, 1.5, (12, 4))
        params = {name: p.copy() for name, p in g.params.items()}
        kept = [*g.params.values(), x]
        forward = executor_mod._forward

        def spy_forward(ctx, p, program, vals, states, saved):
            forward(ctx, p, program, vals, states, saved)
            kept.extend(saved or [])

        monkeypatch.setattr(executor_mod, "_forward", spy_forward)
        _, grads = loss_and_grad(g, ExecutionPlan("step_by_step", checkpoint_every=k),
                                 [(x, np.eye(3)[1])])
        assert len(kept) > 2
        for name, grad in grads.items():
            assert not any(np.shares_memory(grad, a) for a in kept), name
        for name, p in params.items():
            assert np.array_equal(g.params[name], p), name


class TestKernelGradientSteps:
    def test_a_one_element_kernel_sums_its_steps_in_order(self):
        # A 1 x 1 single-channel conv runs before the feedback cycle, over
        # a whole segment's rows, and hands over one kernel gradient term
        # per step, newest first. A reduction over the steps would sum a
        # one-element kernel's terms pairwise, in an order that depends on
        # where the segments end.
        g = graph_build(
            [conv_layer(1, 1, 1), lif_layer(), flatten_layer(), linear_layer(4), lif_layer(4),
             linear_layer(4), linear_layer(3), lif_layer(3)],
            [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 4, 1), (4, 6, 0),
             (6, 7, 0)],
            input_shape=(1, 3, 3), seed=1, dtype=np.float32,
        )
        x = np.random.default_rng(0).uniform(0.0, 2.0, (24, 1, 3, 3)).astype(np.float32)
        states = init_states(g, mode="uniform", seed=1)
        want = {}
        executor_mod._loss_and_grad(g, ExecutionPlan("step_by_step"), [x], [states],
                                    [SpikeCountCELoss(np.eye(3)[1])], want)
        for k in (1, 3, 5):
            _, got, _ = run_with_checkpointing(
                g, ExecutionPlan("step_by_step", checkpoint_every=k), x, states,
                SpikeCountCELoss(np.eye(3)[1]))
            for name, w in want.items():
                assert got[name].tobytes() == w.tobytes(), (k, name)


def block_graph(dtype):
    """A recurrent graph with all three phases: two input layers (nodes 0
    and 1) run over whole segments, a LIF layer (2) with a delay-1 feedback
    weight (3) is stepped, and node 1 feeds the feedback weight too; the
    read-out (4, 5) runs after the stepped loop. The loss reaches nodes 1
    and 3 only through the delay-1 edge, so at the last step their weights
    get no gradient."""
    return graph_build(
        [linear_layer(5, in_features=3), linear_layer(5, in_features=3), lif_layer(5),
         linear_layer(5), linear_layer(4), lif_layer(4)],
        [(0, 2, 0), (2, 3, 0), (3, 2, 1), (1, 3, 0), (2, 4, 0), (4, 5, 0)],
        input_nodes=[0, 1], output_nodes=[5], input_shape=(3,), seed=2, dtype=dtype,
    )


class TestWeightGradientBlocks:
    """A step_by_step walk takes each matmul's weight gradient as one
    product per block of 16 steps, carried across segments, so the bytes
    depend neither on checkpoint_every nor on the micro-batch size. T = 53
    spans three full blocks and a partial one, [48, 53), in which the
    weights of nodes 1 and 3 get no gradient at step 52."""

    T = 53

    def batch(self, dtype):
        rng = np.random.default_rng(9)
        return [(rng.uniform(0.0, 2.0, (self.T, 3)).astype(dtype), np.eye(4)[i])
                for i in range(3)]

    @staticmethod
    def states(graph):
        return init_states(graph, mode="uniform", seed=3)

    def unsegmented(self, graph, x, target):
        grads = {}
        (loss,), _, _ = executor_mod._loss_and_grad(
            graph, ExecutionPlan("step_by_step"), [x], [self.states(graph)],
            [SpikeCountCELoss(target)], grads)
        return loss, grads

    def taped(self, graph, plan, x, target):
        tape = Tape()
        params = {n: tape.leaf(graph.params[n]) for n in sorted(graph.params)}
        _, rec = run(graph, plan, x, self.states(graph), params=params)
        loss = SpikeCountCELoss(target).loss_tensor(rec)
        grads = tape.grads_from_seeds({loss.node_id: np.ones((), dtype=graph.dtype)})
        return float(loss.data), {n: grads[t.node_id] for n, t in params.items()}

    @staticmethod
    def assert_same_bytes(got, want, label):
        assert got[0] == want[0], label
        assert sorted(got[1]) == sorted(want[1]), label
        for name, g in want[1].items():
            assert got[1][name].dtype == g.dtype, (label, name)
            assert got[1][name].tobytes() == g.tobytes(), (label, name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 7, 16, 19, 53])
    def test_bytes_independent_of_segments_tape_and_micro_batches(self, dtype, k):
        g, batch = block_graph(dtype), self.batch(dtype)
        plan = ExecutionPlan("step_by_step", checkpoint_every=k)
        refs = [self.unsegmented(g, x, target) for x, target in batch]
        for s, ((x, target), ref) in enumerate(zip(batch, refs)):
            loss, grads, _ = run_with_checkpointing(g, plan, x, self.states(g),
                                                    SpikeCountCELoss(target))
            self.assert_same_bytes((loss, grads), ref, ("checkpointed", s))
            self.assert_same_bytes(self.taped(g, plan, x, target), ref, ("taped", s))
        # the batch mean of the samples' gradients, summed in sample order
        total = {name: g.copy() for name, g in refs[0][1].items()}
        for _, grads in refs[1:]:
            for name in total:
                total[name] += grads[name]
        want = (sum(loss for loss, _ in refs) / 3, {n: v / 3 for n, v in total.items()})
        per_sample = executor_mod._ExecContext(g).sample_bytes(self.T, 1, k)
        for micro in (1, 3):
            with mock.patch.object(training_mod, "MICRO_BATCH_BYTES", micro * per_sample):
                got = loss_and_grad(g, plan, batch, init_mode="uniform", init_seed=3)
            self.assert_same_bytes(got, want, ("micro-batch", micro))

    def test_a_block_misses_the_steps_that_get_no_gradient(self, monkeypatch):
        g = block_graph(np.float64)
        steps = {}
        add_rows = executor_mod._ParamGrads.add_rows

        def spy(acc, name, t1, a, g_rows):
            steps.setdefault(name, []).extend(range(t1 - len(a) // acc.samples, t1))
            return add_rows(acc, name, t1, a, g_rows)

        monkeypatch.setattr(executor_mod._ParamGrads, "add_rows", spy)
        x, target = self.batch(np.float64)[0]
        run_with_checkpointing(g, ExecutionPlan("step_by_step", checkpoint_every=19), x,
                               self.states(g), SpikeCountCELoss(target))
        for name in ("node0.weight", "node4.weight"):
            assert sorted(steps[name]) == list(range(self.T)), name
        for name in ("node1.weight", "node3.weight"):
            assert sorted(steps[name]) == list(range(self.T - 1)), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_against_the_per_op_reference(self, dtype):
        g = block_graph(dtype)
        x, target = self.batch(dtype)[0]
        head = SpikeCountCELoss(target)
        tape = Tape()
        params = {n: tape.leaf(g.params[n]) for n in sorted(g.params)}
        _, records = per_op_step_by_step(g, Tensor(x), self.states(g), params)
        ref = head.loss_tensor(SpikeRecord(outputs=records, steps=self.T))
        seed = {ref.node_id: np.ones((), dtype=g.dtype)}
        want = tape.grads_from_seeds(seed)
        with summing_magnitudes(tape):
            terms = tape.grads_from_seeds(seed)
        for k in (1, 7, 16, 19, 53):
            loss, got, _ = run_with_checkpointing(
                g, ExecutionPlan("step_by_step", checkpoint_every=k), x, self.states(g), head)
            assert abs(loss - float(ref.data)) <= TOLERANCE[g.dtype] * max(abs(loss), 1.0)
            for name, leaf in params.items():
                bound = TOLERANCE[g.dtype] * terms[leaf.node_id]
                assert np.all(np.abs(got[name] - want[leaf.node_id]) <= bound), (k, name)

    def test_sample_bytes_count_the_carried_rows(self, monkeypatch):
        g = block_graph(np.float32)
        ctx = executor_mod._ExecContext(g)
        # per step and sample, the saved matmul inputs (3, 3, 5, 5) and
        # U_pre (5, 4); the four weights' per-sample gradients; and 16 steps
        # of each matmul's input and output-gradient rows: (3 + 5) twice,
        # 5 + 5 and 5 + 4
        saved, grads, carried = 3 + 3 + 5 + 5 + 5 + 4, 15 + 15 + 25 + 20, 16 * (8 + 8 + 10 + 9)
        assert ctx.sample_bytes(self.T, 1, 7) == (7 * saved + grads + carried) * 4
        assert ctx.sample_bytes(self.T, 1, None) == (self.T * saved + grads + carried) * 4
        # a walk of one step keeps every gradient too, and the carry
        assert ctx.sample_bytes(1, 1, None) == (saved + grads + carried) * 4
        # the walk's carried rows are what sample_bytes counts
        held = []
        finish = executor_mod._ParamGrads.finish

        def spy(acc):
            held.append(sum(r.nbytes for rows in acc.blocks.values() for r in rows[2:])
                        // acc.samples)
            finish(acc)

        monkeypatch.setattr(executor_mod._ParamGrads, "finish", spy)
        with mock.patch.object(training_mod, "MICRO_BATCH_BYTES",
                               3 * ctx.sample_bytes(self.T, 1, 7)):
            loss_and_grad(g, ExecutionPlan("step_by_step", checkpoint_every=7),
                          self.batch(np.float32))
        assert held == [carried * 4]


class SignedZeroHead:
    """A loss head whose logit gradient is a fixed array, -0.0 entries and
    all."""

    def __init__(self, dlogits):
        self.dlogits = dlogits

    def loss_and_logit_grad(self, logits):
        return float(np.sum(logits * np.abs(self.dlogits))), self.dlogits


def negative_zeros(a):
    return int(np.sum((a == 0) & np.signbit(a)))


class TestSignedZeros:
    """-0.0 seeds give the same gradient bytes, signed zeros included,
    whatever checkpoint_every, and with or without a tape: no path of the
    walk adds a +0 that another path does not."""

    T = 7

    def inputs(self, dtype):
        rng = np.random.default_rng(12)
        return rng.uniform(0.0, 2.0, (self.T, 3)).astype(dtype), rng

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_taped_seeds_on_a_record_and_a_final_u(self, dtype):
        g = block_graph(dtype)
        x, rng = self.inputs(dtype)
        # -0.0 in the read-out's record and final U, for one neuron
        rec_seed = rng.standard_normal((self.T, 4)).astype(dtype)
        rec_seed[:, 1] = -0.0
        u_seed = rng.standard_normal(4).astype(dtype)
        u_seed[1] = -0.0
        got = {}
        for k in (1, 3, None):
            tape = Tape()
            leaves = {n: tape.leaf(g.params[n]) for n in sorted(g.params)}
            leaves["x"] = tape.leaf(x)
            states = {}
            for nid, st in init_states(g, mode="uniform", seed=3).items():
                leaves[f"U{nid}"], leaves[f"I{nid}"] = tape.leaf(st.U.data), tape.leaf(st.I.data)
                states[nid] = NeuronState(U=leaves[f"U{nid}"], I=leaves[f"I{nid}"], S=st.S)
            final, rec = run(g, ExecutionPlan("step_by_step", checkpoint_every=k), leaves["x"],
                             states, params={n: leaves[n] for n in g.params})
            grads = tape.grads_from_seeds({rec.outputs[5].node_id: rec_seed,
                                           final[5].U.node_id: u_seed})
            got[k] = {name: grads[t.node_id] for name, t in leaves.items()}
        assert sum(negative_zeros(v) for v in got[None].values()) > 0
        for k in (1, 3):
            for name, want in got[None].items():
                assert got[k][name].tobytes() == want.tobytes(), (k, name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_logit_gradient_with_negative_zeros(self, dtype):
        g = block_graph(dtype)
        x, _ = self.inputs(dtype)
        head = SignedZeroHead(np.array([0.5, -0.0, -1.0, -0.0], dtype=dtype))
        states = init_states(g, mode="uniform", seed=3)
        want = {}
        executor_mod._loss_and_grad(g, ExecutionPlan("step_by_step"), [x], [states], [head],
                                    want)
        for k in (1, 3):
            _, got, _ = run_with_checkpointing(
                g, ExecutionPlan("step_by_step", checkpoint_every=k), x, states, head)
            for name, w in want.items():
                assert got[name].tobytes() == w.tobytes(), (k, name)
        # a taped run seeded with the logit gradient on every step of the record
        tape = Tape()
        params = {n: tape.leaf(g.params[n]) for n in sorted(g.params)}
        _, rec = run(g, ExecutionPlan("step_by_step"), x, states, params=params)
        grads = tape.grads_from_seeds({rec.outputs[5].node_id: np.tile(head.dlogits,
                                                                       (self.T, 1))})
        for name, w in want.items():
            assert grads[params[name].node_id].tobytes() == w.tobytes(), ("taped", name)


class TestTrace:
    def test_write_trace_csv(self, tmp_path):
        g = sequential([lif_layer(2)], input_shape=(2,), dtype=np.float64)
        x = np.array([[1.5, 0.0], [0.0, 1.5], [1.5, 1.5]])
        _, rec = run(g, ExecutionPlan(), x, init_states(g), record_hidden=True)
        path = tmp_path / "trace.csv"
        write_trace(rec, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,node_id,neuron_idx,spike"
        assert len(lines) == 1 + 3 * 2
        assert lines[1] == "0,0,0,1"  # 1.5 crosses the unit threshold immediately

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_write_trace_bytes_match_per_element_format(self, tmp_path, dtype):
        # hidden records of a smooth graph, plus hand-picked values: -0,
        # tiny, huge and values that .6g rounds
        g = mlp(seed=1, dtype=dtype, smooth=5.0)
        x = np.random.default_rng(2).uniform(0.0, 2.0, (6, 4))
        _, rec = run(g, ExecutionPlan(), x, init_states(g), record_hidden=True)
        special = np.array([[-0.0, 0.0, 1.0, 1e-7, -2.5e-30, 123456789.0],
                            [2.0 / 3, -1.0 / 3, 0.1, 1e30, 5e-45, -0.0]], dtype=dtype)
        rec.hidden[7] = Tensor(np.concatenate([special] * 3))
        path = tmp_path / "trace.csv"
        write_trace(rec, path)
        want = ["t,node_id,neuron_idx,spike\n"]
        for nid in sorted(rec.hidden):
            data = rec.hidden[nid].data.reshape(rec.steps, -1)
            for t in range(rec.steps):
                for idx in range(data.shape[1]):
                    want.append(f"{t},{nid},{idx},{data[t][idx]:.6g}\n")
        assert path.read_bytes() == "".join(want).encode()
