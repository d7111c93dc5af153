"""Schedulers, the fused layer_by_layer scan, delayed feedback, and gradient checkpointing."""

import numpy as np
import pytest

from spikegrad.executor import (
    ExecutionPlan,
    PlanError,
    init_states,
    run,
    run_with_checkpointing,
    write_trace,
)
from spikegrad.tensor import ShapeError, Tape, ValidationError
from spikegrad.topology import lif_layer, linear_layer, sequential, sequential_recurrent
from spikegrad.training import SpikeCountCELoss


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

    def test_layer_by_layer_one_scan_node_per_lif_layer(self):
        g = mlp(seed=2)
        tape = Tape()
        params = {name: tape.leaf(g.params[name]) for name in sorted(g.params)}
        x = (np.random.default_rng(1).random((30, 4)) < 0.3).astype(np.float64)
        run(g, ExecutionPlan("layer_by_layer"), x, init_states(g), params=params)
        assert tape._tags.count("lif_scan") == len(g.stateful_nodes())
        assert "threshold" not in tape._tags and "stack_rows" not in tape._tags

    def test_layer_by_layer_rejects_feedback(self):
        g = sequential_recurrent(
            [linear_layer(4, in_features=3), lif_layer(4)], feedback=[(1, 1)],
            input_shape=(3,),
        )
        with pytest.raises(PlanError):
            run(g, ExecutionPlan("layer_by_layer"), np.ones((3, 3)), init_states(g))

    def test_gradients_agree_across_schedulers(self):
        from spikegrad.training import loss_and_grad

        g = mlp(seed=4, smooth=20.0)
        rng = np.random.default_rng(3)
        batch = [((rng.random((15, 4)) < 0.4).astype(np.float64),
                  np.array([0.0, 1.0, 0.0]))]
        _, ga = loss_and_grad(g, ExecutionPlan("step_by_step"), batch)
        _, gb = loss_and_grad(g, ExecutionPlan("layer_by_layer"), batch)
        for name in ga:
            denom = max(np.abs(ga[name]).max(), 1e-12)
            assert np.abs(ga[name] - gb[name]).max() / denom < 1e-10


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

    def test_peak_tape_smaller_than_full(self):
        _, _, full_nodes = full_bptt(self.g, self.x, self.target)
        plan = ExecutionPlan("step_by_step", checkpoint_every=5)
        _, _, stats = run_with_checkpointing(
            self.g, plan, self.x, init_states(self.g), self.head
        )
        assert stats["peak_tape_nodes"] < full_nodes

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
