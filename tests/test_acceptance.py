"""Acceptance suite: one test and one printed PASS/FAIL line per criterion."""

import statistics
import time

import numpy as np
import pytest

from spikegrad import ops
from spikegrad.benchcli import gen_random_spikes, gen_toy, gradcheck_run
from spikegrad.executor import ExecutionPlan, init_states, run, run_with_checkpointing
from spikegrad.neurons import LIFParams, NeuronState, lif_step
from spikegrad.tensor import Tape, Tensor
from spikegrad.topology import (
    CycleError,
    graph_build,
    lif_layer,
    linear_layer,
    sequential,
    sequential_recurrent,
)
from spikegrad.training import SpikeCountCELoss, TrainConfig, loss_and_grad, train


def report(num, desc, ok, detail=""):
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def lif_numpy_step(u, i, x, p):
    i = p.beta * i + x
    u_pre = p.alpha * u + i
    s = (u_pre >= p.thr).astype(u_pre.dtype)
    return u_pre - p.thr * s, i, s


def two_block_mlp(width, n_in, n_out, seed=0, dtype=np.float64, smooth=None):
    return sequential(
        [linear_layer(width, in_features=n_in), lif_layer(width, smooth_sharpness=smooth),
         linear_layer(n_out), lif_layer(n_out, smooth_sharpness=smooth)],
        input_shape=(n_in,), seed=seed, dtype=dtype,
    )


def test_criterion_1_ad_matches_fd_on_smooth_twins():
    rep = gradcheck_run(eps=1e-6, seed=0, n_archs=5, threshold=1e-4)
    report(1, "AD vs central differences on 5 random smooth architectures",
           rep.passed, f"max rel error {rep.max_rel_error:.3e} < 1e-4")


def test_criterion_2_hard_bptt_hand_oracle():
    # one LIF neuron, three steps, loss = total spike count; gradient w.r.t.
    # the input weight hand-propagated in forward mode through the surrogate
    p = LIFParams()
    xs = [1.5, 0.2, 1.1]
    w0 = 1.0

    tape = Tape()
    w = tape.leaf(np.array([w0], dtype=np.float64))
    state = NeuronState(U=Tensor(np.zeros(1, dtype=np.float64)),
                        I=Tensor(np.zeros(1, dtype=np.float64)),
                        S=Tensor(np.zeros(1, dtype=np.float64)))
    total = None
    for x in xs:
        state, s = lif_step(state, ops.mul(w, Tensor([x], dtype=np.float64)), p)
        total = s if total is None else ops.add(total, s)
    ad = float(tape.grads_from_seeds(
        {total.node_id: np.ones(1, dtype=np.float64)})[w.node_id][0])

    u = i = du = di = 0.0
    hand = 0.0
    for x in xs:
        i = p.beta * i + w0 * x
        di = p.beta * di + x
        u_pre = p.alpha * u + i
        du_pre = p.alpha * du + di
        spike = 1.0 if u_pre >= p.thr else 0.0
        ds = float(p.surrogate(np.array([u_pre - p.thr]))[0]) * du_pre
        u = u_pre - p.thr * spike
        du = du_pre - p.thr * ds
        hand += ds
    err = abs(ad - hand)
    report(2, "1-neuron 3-step BPTT vs hand-unrolled oracle", err < 1e-10,
           f"abs error {err:.3e} < 1e-10")


def test_criterion_3_scheduler_equivalence():
    g = two_block_mlp(32, 16, 4, seed=5)
    x = gen_random_spikes(16, 100, 0.3, seed=2)
    _, a = run(g, ExecutionPlan("step_by_step"), x, init_states(g))
    out_ref = a.outputs[3].data

    out_ok = True
    repeat_outs = []
    for _ in range(4):
        _, b = run(g, ExecutionPlan("layer_by_layer"), x, init_states(g))
        out = b.outputs[3].data
        out_ok &= bool(np.abs(out - out_ref).max() < 1e-6)
        repeat_outs.append(out)
    repeat_ok = all(np.array_equal(o, repeat_outs[0]) for o in repeat_outs[1:])

    batch = [(x, np.array([0.0, 1.0, 0.0, 0.0]))]
    _, ga = loss_and_grad(g, ExecutionPlan("step_by_step"), batch)
    _, gb = loss_and_grad(g, ExecutionPlan("layer_by_layer"), batch)
    grad_rel = 0.0
    for name in ga:
        denom = np.maximum(np.maximum(np.abs(ga[name]), np.abs(gb[name])), 1e-12)
        grad_rel = max(grad_rel, float((np.abs(ga[name] - gb[name]) / denom).max()))
    grad_ok = grad_rel < 1e-5
    report(3, "scheduler equivalence at T=100 and repeat-run invariance",
           out_ok and repeat_ok and grad_ok,
           f"outputs match, 4 repeat runs identical, grad rel {grad_rel:.3e} < 1e-5")


def test_criterion_4_checkpointing_bit_identical():
    g = two_block_mlp(24, 12, 3, seed=7)
    x = gen_random_spikes(12, 100, 0.3, seed=4)
    target = np.array([1.0, 0.0, 0.0])

    tape = Tape()
    params_t = {name: tape.leaf(g.params[name]) for name in sorted(g.params)}
    _, rec = run(g, ExecutionPlan("step_by_step"), x, init_states(g), params=params_t)
    loss_t = SpikeCountCELoss(target).loss_tensor(rec, g.output_nodes[0])
    full_grads = tape.grads_from_seeds({loss_t.node_id: np.ones((), dtype=g.dtype)})
    ref = {name: full_grads[t.node_id] for name, t in params_t.items()}
    full_nodes = len(tape)

    plan = ExecutionPlan("step_by_step", checkpoint_every=10)
    loss, grads, stats = run_with_checkpointing(
        g, plan, x, init_states(g), SpikeCountCELoss(target)
    )
    identical = loss == float(loss_t.data) and all(
        np.array_equal(grads[name], ref[name]) for name in ref
    )
    smaller = stats["peak_tape_nodes"] < full_nodes
    report(4, "checkpointing (T=100, k=10) bit-identical to full BPTT with smaller tape",
           identical and smaller,
           f"grads bit-identical, peak tape {stats['peak_tape_nodes']} < full {full_nodes}")


def test_criterion_5_delayed_feedback_and_cycle_rejection():
    g = sequential_recurrent([lif_layer(2), lif_layer(2)], feedback=[(1, 0)],
                             input_shape=(2,), dtype=np.float64)
    x = np.array([[1.5, 0.4], [0.2, 1.3], [0.9, 0.9]])
    _, rec = run(g, ExecutionPlan("step_by_step"), x, init_states(g))
    p = g.nodes[0].lif
    u0 = np.zeros(2); i0 = np.zeros(2)
    u1 = np.zeros(2); i1 = np.zeros(2)
    prev = np.zeros(2)
    expected = []
    for t in range(3):
        u0, i0, s0 = lif_numpy_step(u0, i0, x[t] + prev, p)
        u1, i1, s1 = lif_numpy_step(u1, i1, s0, p)
        prev = s1
        expected.append(s1)
    exact = np.array_equal(rec.outputs[1].data, np.stack(expected))

    with pytest.raises(CycleError) as exc:
        graph_build([lif_layer(2), lif_layer(2), lif_layer(2)],
                    [(0, 1, 0), (1, 2, 0), (2, 0, 0)], input_shape=(2,))
    witness_ok = set(exc.value.cycle) == {0, 1, 2} and exc.value.cycle[0] == exc.value.cycle[-1]
    report(5, "delay-1 feedback matches hand unroll; delay-0 cycle rejected",
           exact and witness_ok, f"exact spikes, cycle witness {exc.value.cycle}")


def test_criterion_6_toy_training_reaches_90_percent():
    dataset = gen_toy(3, 12, 20, 100, seed=0)
    g = two_block_mlp(64, 12, 3, seed=0, dtype=np.float32)
    cfg = TrainConfig(epochs=200, batch_size=32, learning_rate=1e-3,
                      optimizer="adam", seed=0)
    _, metrics = train(g, dataset, cfg, stop_at_accuracy=0.9)
    final_acc = metrics[-1][2]
    report(6, "3-class toy task reaches 90% within 200 epochs",
           final_acc >= 0.9 and len(metrics) <= 200,
           f"accuracy {final_acc:.3f} after {len(metrics)} epochs")


def test_criterion_7_layer_by_layer_forward_not_slower():
    g = two_block_mlp(256, 64, 256, seed=0, dtype=np.float32)
    batch = [gen_random_spikes(64, 100, 0.2, seed=i) for i in range(8)]

    def forward_median(plan):
        def once():
            for x in batch:
                run(g, plan, x, init_states(g))

        once()  # warmup, discarded
        times = []
        for _ in range(10):
            t0 = time.perf_counter()
            once()
            times.append((time.perf_counter() - t0) * 1000.0)
        return statistics.median(times)

    step_ms = forward_median(ExecutionPlan("step_by_step"))
    layer_ms = forward_median(ExecutionPlan("layer_by_layer"))
    report(7, "layer_by_layer forward median <= step_by_step",
           layer_ms <= step_ms, f"{layer_ms:.2f} ms <= {step_ms:.2f} ms")


def test_criterion_8_zero_input_exponential_decay():
    alpha = 0.9
    p = LIFParams(alpha=alpha, beta=0.8)
    state = NeuronState(U=Tensor(np.array([0.7], dtype=np.float64)),
                        I=Tensor(np.array([0.0], dtype=np.float64)),
                        S=Tensor(np.array([0.0], dtype=np.float64)))
    zero = Tensor(np.array([0.0], dtype=np.float64))
    expected = 0.7
    exact = True
    for _ in range(50):
        state, spikes = lif_step(state, zero, p)
        expected *= alpha
        exact &= spikes.data[0] == 0.0 and state.U.data[0] == expected
    report(8, "zero-input membrane follows U_t = alpha^t U_0 exactly for 50 steps",
           exact, "bit-exact against the iterated product")
