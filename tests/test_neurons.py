"""LIF cell behavior: hand-evaluated steps, decay laws, smooth-twin checks,
and the scan against unrolled steps."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikegrad import ops
from spikegrad.executor import ExecutionPlan, init_states, run
from spikegrad.neurons import (
    LIFParams,
    NeuronState,
    init_state,
    lif_scan,
    lif_smooth_step,
    lif_step,
)
from spikegrad.surrogates import SURROGATE_TAGS, SurrogateFn
from spikegrad.tensor import ShapeError, Tape, Tensor, ValidationError
from spikegrad.topology import lif_layer, linear_layer, sequential


def params(**kw):
    return LIFParams(**kw)


class TestLifStep:
    def test_zero_fixed_point(self):
        st0 = init_state(3)
        st1, spikes = lif_step(st0, Tensor(np.zeros(3)), params())
        assert np.array_equal(st1.U.data, np.zeros(3))
        assert np.array_equal(st1.I.data, np.zeros(3))
        assert np.array_equal(spikes.data, np.zeros(3))

    def test_hand_step_with_spike(self):
        # alpha=.9 beta=.8 thr=1, zero state, input 1.5:
        # I'=1.5, U_pre=1.5, spike, U'=0.5
        st0 = init_state(1)
        st1, spikes = lif_step(st0, Tensor([1.5]), params(alpha=0.9, beta=0.8, thr=1.0))
        assert np.allclose(st1.I.data, [1.5])
        assert np.array_equal(spikes.data, [1.0])
        assert np.allclose(st1.U.data, [0.5], atol=1e-7)

    def test_hand_decay_no_spike(self):
        st0 = NeuronState(U=Tensor([0.5]), I=Tensor([0.0]), S=Tensor([0.0]))
        st1, spikes = lif_step(st0, Tensor([0.0]), params(alpha=0.9))
        assert np.allclose(st1.U.data, [0.45], atol=1e-7)
        assert np.array_equal(spikes.data, [0.0])

    def test_reset_to_zero_mode(self):
        st0 = init_state(1)
        st1, spikes = lif_step(st0, Tensor([2.5]), params(reset="to_zero"))
        assert np.array_equal(spikes.data, [1.0])
        assert np.array_equal(st1.U.data, [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lif_step(init_state(3), Tensor(np.zeros(4)), params())

    def test_zero_input_geometric_decay_50_steps(self):
        # U_t == alpha^t * U_0 exactly while no spike occurs; both reset
        # modes agree because no reset fires
        alpha = 0.9
        for reset in ("subtract", "to_zero"):
            state = NeuronState(
                U=Tensor(np.array([0.7], dtype=np.float64)),
                I=Tensor(np.array([0.0], dtype=np.float64)),
                S=Tensor(np.array([0.0], dtype=np.float64)),
            )
            p = params(alpha=alpha, beta=0.8, reset=reset)
            zero = Tensor(np.array([0.0], dtype=np.float64))
            expected = 0.7
            for t in range(1, 51):
                state, spikes = lif_step(state, zero, p)
                expected *= alpha
                assert spikes.data[0] == 0.0
                assert state.U.data[0] == expected  # bit-exact
                assert np.isclose(state.U.data[0], 0.7 * alpha**t, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
           st.floats(-3, 3))
    def test_spikes_always_binary(self, inputs, u0):
        state = NeuronState(U=Tensor([u0]), I=Tensor([0.0]), S=Tensor([0.0]))
        for v in inputs:
            state, spikes = lif_step(state, Tensor([v]), params())
            assert spikes.data[0] in (0.0, 1.0)


class TestSmoothTwin:
    def test_zero_in_zero_out(self):
        # superspike's fast-sigmoid primitive has polynomial tails, so the
        # zero-state output is small but nonzero; the sigmoid primitive's
        # exponential tail makes it numerically zero
        st0 = init_state(4, dtype=np.float64)
        st1, acts = lif_smooth_step(st0, Tensor(np.zeros(4)), params(), sharpness=25.0)
        assert np.all(acts.data < 0.02)
        assert np.allclose(st1.I.data, 0.0)
        p_sig = params(surrogate=SurrogateFn("sigmoid_derivative"))
        _, acts2 = lif_smooth_step(init_state(4, dtype=np.float64),
                                   Tensor(np.zeros(4)), p_sig, sharpness=25.0)
        assert np.all(acts2.data < 1e-9)

    def test_matches_hard_step_away_from_threshold(self):
        rng = np.random.default_rng(5)
        p = params()
        sharpness = 1e4
        hard = init_state(4, dtype=np.float64)
        smooth = init_state(4, dtype=np.float64)
        for _ in range(10):
            x = Tensor(rng.uniform(-1.5, 1.5, 4).astype(np.float64))
            u_pre_h = p.alpha * hard.U.data + (p.beta * hard.I.data + x.data)
            if np.any(np.abs(u_pre_h - p.thr) <= 0.1):
                hard, _ = lif_step(hard, x, p)
                smooth, _ = lif_smooth_step(smooth, x, p, sharpness)
                continue  # limit statement only claimed away from threshold
            hard, s_h = lif_step(hard, x, p)
            smooth, s_s = lif_smooth_step(smooth, x, p, sharpness)
            assert np.allclose(s_h.data, s_s.data, atol=1e-2)

    def test_fd_vs_ad_on_smooth_chain(self):
        # 4 neurons, 5 steps: AD on the tape vs central differences on the
        # exact smooth forward map, 64-bit
        rng = np.random.default_rng(11)
        w0 = rng.uniform(-0.8, 0.8, (4, 4))
        xs = rng.uniform(-1.0, 2.0, (5, 4))
        p = params()
        sharp = 20.0

        def forward_loss(w):
            state = init_state(4, dtype=np.float64)
            total = Tensor(np.zeros((), dtype=np.float64))
            wt = w if isinstance(w, Tensor) else Tensor(w, dtype=np.float64)
            for t in range(5):
                cur = ops.reshape(ops.matmul(Tensor(xs[t : t + 1]), wt), (4,))
                state, acts = lif_smooth_step(state, cur, p, sharp)
                total = ops.add(total, ops.sum_all(acts))
            return total

        tape = Tape()
        w = tape.leaf(w0)
        loss = forward_loss(w)
        grads = tape.grads_from_seeds({loss.node_id: np.ones((), dtype=np.float64)})
        ad = grads[w.node_id]

        eps = 1e-6
        fd = np.zeros_like(w0)
        for i in range(4):
            for j in range(4):
                wp = w0.copy()
                wp[i, j] += eps
                wm = w0.copy()
                wm[i, j] -= eps
                fd[i, j] = (
                    float(forward_loss(wp).data) - float(forward_loss(wm).data)
                ) / (2 * eps)
        rel = np.abs(ad - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel < 1e-4


def _taped_state(tape, u, i, dtype):
    return NeuronState(U=tape.leaf(u), I=tape.leaf(i), S=Tensor(np.zeros(u.shape, dtype=dtype)))


def _unrolled(state, x, p, sharpness):
    """Reference: one lif_step (or lif_smooth_step) per row, then stack."""
    outs = []
    for t in range(x.shape[0]):
        xt = ops.reshape(ops.slice_rows(x, t, t + 1), x.shape[1:])
        if sharpness is None:
            state, s = lif_step(state, xt, p)
        else:
            state, s = lif_smooth_step(state, xt, p, sharpness)
        outs.append(s)
    return state, ops.stack_rows(outs)


def _rel(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-30))


class TestLifScan:
    """lif_scan against lif_step / lif_smooth_step unrolled on the tape:
    spikes and final state bit-identical, gradients within 1e-10 (float64)
    or 1e-5 (float32) relative error."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sharpness", [None, 8.0])
    @pytest.mark.parametrize("reset", ["subtract", "to_zero"])
    @pytest.mark.parametrize("tag", SURROGATE_TAGS)
    def test_matches_unrolled_steps(self, tag, reset, sharpness, dtype):
        self._check_against_unrolled(tag, reset, sharpness, dtype, t_steps=25)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sharpness", [None, 8.0])
    @pytest.mark.parametrize("reset", ["subtract", "to_zero"])
    @pytest.mark.parametrize("tag", SURROGATE_TAGS)
    def test_one_row_matches_unrolled_step(self, tag, reset, sharpness, dtype):
        # step_by_step's one-row slabs take their own forward branch
        self._check_against_unrolled(tag, reset, sharpness, dtype, t_steps=1)

    @staticmethod
    def _check_against_unrolled(tag, reset, sharpness, dtype, t_steps):
        shape = (3, 4)
        rng = np.random.default_rng(7)
        p = LIFParams(surrogate=SurrogateFn(tag), reset=reset)
        st0 = init_state(shape, mode="uniform", rng_seed=3, dtype=dtype)
        x0 = rng.uniform(-0.5, 1.5, (t_steps,) + shape).astype(dtype)
        seeds = [rng.normal(size=(t_steps,) + shape).astype(dtype)] + [
            rng.normal(size=shape).astype(dtype) for _ in range(3)
        ]
        results = []
        for fn in (_unrolled, lif_scan):
            tape = Tape()
            x = tape.leaf(x0)
            st = _taped_state(tape, st0.U.data, st0.I.data, dtype)
            final, spikes = fn(st, x, p, sharpness)
            outs = (spikes, final.U, final.I, final.S)
            grads = tape.grads_from_seeds({o.node_id: g for o, g in zip(outs, seeds)})
            results.append(([o.data for o in outs],
                            [grads[t.node_id] for t in (x, st.U, st.I)]))
        (ref_out, ref_grads), (got_out, got_grads) = results
        for got, ref in zip(got_out, ref_out):
            assert got.dtype == ref.dtype == dtype
            assert np.array_equal(got, ref)
        tol = 1e-10 if dtype == np.float64 else 1e-5
        for got, ref in zip(got_grads, ref_grads):
            assert _rel(got, ref) < tol

    @pytest.mark.parametrize("reset", ["subtract", "to_zero"])
    def test_final_state_seed_alone_reaches_initial_state(self, reset):
        # only I_0 on the tape and only U_T seeded: the gradient still runs
        # the whole reverse recurrence and lands in the right slot
        self._check_final_seed_alone(reset, steps=10, seeded="U")

    @pytest.mark.parametrize("seeded", ["U", "I", "UI"])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("reset", ["subtract", "to_zero"])
    def test_final_seeds_alone_reach_initial_state(self, reset, steps, seeded):
        # whichever of U_T and I_T is seeded hands graph_run the zero
        # gradient that makes the sweep reach it
        self._check_final_seed_alone(reset, steps, seeded)

    @staticmethod
    def _check_final_seed_alone(reset, steps, seeded):
        p = LIFParams(reset=reset)
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(0.0, 1.2, (steps, 5)))
        u0 = rng.uniform(0.0, 1.0, 5)
        i0 = rng.uniform(0.0, 1.0, 5)
        seed_u, seed_i = rng.normal(size=5), rng.normal(size=5)
        grads = []
        for fn in (_unrolled, lif_scan):
            tape = Tape()
            i_leaf = tape.leaf(i0)
            st = NeuronState(U=Tensor(u0), I=i_leaf, S=Tensor(np.zeros(5)))
            final, _ = fn(st, x, p, None)
            seeds = {}
            if "U" in seeded:
                seeds[final.U.node_id] = seed_u
            if "I" in seeded:
                seeds[final.I.node_id] = seed_i
            grads.append(tape.grads_from_seeds(seeds)[i_leaf.node_id])
        assert np.abs(grads[1]).max() > 0
        assert _rel(grads[1], grads[0]) < 1e-10

    @pytest.mark.parametrize("steps", [1, 50])
    def test_one_tape_node_for_the_spike_train(self, steps):
        # however long the scan: one graph_run node plus one output node
        # each for the spike train, U_T, I_T and S_T
        tape = Tape()
        x = tape.leaf(np.full((steps, 4), 0.6))
        before = len(tape)
        final, spikes = lif_scan(init_state(4, dtype=np.float64), x, params())
        added = tape._tags[before:]
        assert sorted(added) == ["graph_run"] + ["graph_run_out"] * 4
        for out in (spikes, final.U, final.I, final.S):
            assert tape._tags[out.node_id] == "graph_run_out"

    @pytest.mark.parametrize("scheduler", ["layer_by_layer", "step_by_step"])
    def test_dropped_tape_freed_without_cycle_collector(self, scheduler):
        # a reference cycle through a backward closure would keep every
        # training step's tape alive until the next gc pass: a taped run's
        # graph_run closures hold no Tensor, whether lif_scan or run made it
        g = sequential(
            [linear_layer(3, in_features=2), lif_layer(3), linear_layer(2), lif_layer(2)],
            input_shape=(2,), dtype=np.float64,
        )
        gc.disable()
        try:
            tape = Tape()
            x = tape.leaf(np.full((5, 3), 0.6))
            lif_scan(init_state(3, dtype=np.float64), x, params())
            ref = weakref.ref(tape)
            del tape, x
            assert ref() is None

            tape = Tape()
            ps = {name: tape.leaf(g.params[name]) for name in sorted(g.params)}
            x = tape.leaf(np.full((5, 2), 0.8))
            states = {nid: NeuronState(U=tape.leaf(st.U.data), I=tape.leaf(st.I.data), S=st.S)
                      for nid, st in init_states(g).items()}
            final, rec = run(g, ExecutionPlan(scheduler), x, states, params=ps)
            out = rec.outputs[g.output_nodes[0]]
            tape.grads_from_seeds({out.node_id: np.ones(out.shape),
                                   final[1].U.node_id: np.ones(3)})
            ref = weakref.ref(tape)
            del tape, ps, x, states, final, rec, out
            assert ref() is None
        finally:
            gc.enable()

    def test_untaped_scan_records_nothing(self):
        final, spikes = lif_scan(init_state(3), Tensor(np.ones((5, 3), dtype=np.float32)),
                                 params())
        assert spikes.tape is None and final.U.tape is None
        assert spikes.shape == (5, 3)

    @pytest.mark.parametrize("reset, arrays", [("subtract", 2), ("to_zero", 4)])
    def test_backward_evaluates_superspike_in_place(self, reset, arrays):
        # mlp_lbl's second LIF layer at B = 4: T * B = 400 rows of 256. The
        # superspike surrogate is evaluated over U_pre - thr in place, so the
        # backward's peak holds `arrays` arrays of U_pre's size besides a
        # little; evaluated out of place, it held one more
        rng = np.random.default_rng(0)
        u_pre = rng.uniform(-1.0, 2.0, (400, 256)).astype(np.float32)
        g = rng.standard_normal((400, 256)).astype(np.float32)
        args = ops.lif_args(params(reset=reset))
        tracemalloc.start()
        try:
            gx, _, _ = ops.lif_scan_backward(u_pre, g, 0.0, 0.0, *args, samples=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.dtype == np.float32
        assert peak < (arrays + 0.5) * u_pre.nbytes

    def test_taped_input_of_another_dtype_rejected(self):
        # the scan computes in the state's dtype; casting a taped input would
        # cut it off its tape
        tape = Tape()
        x = tape.leaf(np.full((5, 3), 0.6, dtype=np.float32))
        with pytest.raises(ValidationError, match="dtype"):
            lif_scan(init_state(3, dtype=np.float64), x, params())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.full((5, 3), 0.6)
        x[2, 1] = bad
        with pytest.raises(ValidationError, match="NaN or inf"):
            lif_scan(init_state(3, dtype=np.float64), Tensor(x), params())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lif_scan(init_state(3), Tensor(np.zeros((5, 4))), params())
        with pytest.raises(ShapeError):
            lif_scan(init_state(3), Tensor(np.zeros(3)), params())


class TestResetDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reset", ["subtract", "to_zero"])
    def test_state_keeps_precision(self, reset, dtype):
        p = params(reset=reset)
        st0 = init_state(4, mode="uniform", rng_seed=1, dtype=dtype)
        x = Tensor(np.full(4, 0.7, dtype=dtype))
        st1, spikes = lif_step(st0, x, p)
        st2, acts = lif_smooth_step(st0, x, p, 10.0)
        st3, train = lif_scan(st0, ops.reshape(x, (1, 4)), p)
        for t in (st1.U, st1.I, spikes, st2.U, st2.I, acts, st3.U, st3.I, st3.S, train):
            assert t.dtype == dtype


class TestInitState:
    def test_zeros(self):
        st0 = init_state(3, mode="zeros")
        assert np.array_equal(st0.U.data, np.zeros(3))
        assert np.array_equal(st0.I.data, np.zeros(3))
        assert np.array_equal(st0.S.data, np.zeros(3))

    def test_uniform_mean(self):
        st0 = init_state(1000, mode="uniform", rng_seed=42, lo=0.0, hi=1.0)
        assert 0.45 <= float(st0.U.data.mean()) <= 0.55

    def test_seed_determinism(self):
        a = init_state(50, mode="uniform", rng_seed=9)
        b = init_state(50, mode="uniform", rng_seed=9)
        assert np.array_equal(a.U.data, b.U.data)
        assert np.array_equal(a.I.data, b.I.data)

    def test_bad_bounds(self):
        with pytest.raises(ValidationError):
            init_state(3, mode="uniform", lo=1.0, hi=1.0)

    @pytest.mark.parametrize("mode", ["zeros", "uniform"])
    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    def test_seed_must_be_a_non_negative_int(self, mode, seed):
        with pytest.raises(ValidationError, match="rng_seed"):
            init_state(3, mode=mode, rng_seed=seed)

    def test_shape_tuple(self):
        st0 = init_state((2, 3, 3))
        assert st0.U.shape == (2, 3, 3)

    def test_s_starts_zero_even_for_uniform(self):
        st0 = init_state(10, mode="uniform", rng_seed=1)
        assert np.array_equal(st0.S.data, np.zeros(10))


class TestLIFParamsValidation:
    @pytest.mark.parametrize("kw", [dict(alpha=0.0), dict(alpha=1.0), dict(beta=1.5),
                                    dict(thr=0.0), dict(reset="clamp")])
    def test_invalid(self, kw):
        with pytest.raises(ValidationError):
            LIFParams(**kw)

    def test_listing_decay_pair(self):
        p = LIFParams(alpha=0.9, beta=0.8)
        assert (p.alpha, p.beta) == (0.9, 0.8)
