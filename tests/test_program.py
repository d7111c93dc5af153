"""The executor's node program against a per-op reference.

The reference runs step_by_step on one Tape with one node per op: lif_step
or lif_smooth_step per LIF layer, ops.matmul per linear node and projection,
ops.add per fan-in, ops.reshape and ops.conv2d_batched. The program computes
the same forward expressions, so spikes and final states must be
bit-identical; its backward is the fused BPTT walk, so gradients agree to
rounding. The reference shares no code with the executor's segment forward
and reverse walk, so it also checks run_with_checkpointing's replays.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spikegrad import ops
from spikegrad.executor import (
    ExecutionPlan,
    SpikeRecord,
    init_states,
    input_shape,
    run,
    run_with_checkpointing,
)
from spikegrad.neurons import LIFParams, NeuronState, lif_smooth_step, lif_step
from spikegrad.surrogates import SURROGATE_TAGS, SurrogateFn
from spikegrad.tensor import Tape, Tensor
from spikegrad.topology import (
    conv_layer,
    flatten_layer,
    graph_build,
    lif_layer,
    linear_layer,
    topo_order,
)
from spikegrad.training import SpikeCountCELoss

TOLERANCE = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-10}


def per_op_step_by_step(graph, x, states, params):
    """step_by_step with one tape node per op; returns (final states,
    output records [T, ...] by node id)."""
    in_edges = {n.id: [] for n in graph.nodes}
    for s, d, dl in graph.edges:
        in_edges[d].append((s, dl))
    delayed = sorted({s for s, _, dl in graph.edges if dl == 1})
    prev = {s: Tensor(np.zeros((1,) + graph.node(s).out_shape, dtype=graph.dtype))
            for s in delayed}
    states = dict(states)
    rows = {nid: [] for nid in graph.output_nodes}
    for t in range(x.shape[0]):
        xt = ops.slice_rows(x, t, t + 1)
        cur = {}
        for nid in topo_order(graph):
            node = graph.node(nid)
            one = (1,) + node.in_shape
            contribs = [ops.reshape(xt, one)] if nid in graph.input_nodes else []
            for src, dl in in_edges[nid]:
                v = prev[src] if dl == 1 else cur[src]
                proj = graph.proj_name(src, nid)
                if proj in params:
                    v = ops.matmul(ops.reshape(v, (1, math.prod(v.shape))), params[proj])
                contribs.append(ops.reshape(v, one))
            merged = contribs[0]
            for c in contribs[1:]:
                merged = ops.add(merged, c)
            if node.stateful:
                drive = ops.reshape(merged, node.shape)
                if node.smooth_sharpness is None:
                    states[nid], s = lif_step(states[nid], drive, node.lif)
                else:
                    states[nid], s = lif_smooth_step(states[nid], drive, node.lif,
                                                     node.smooth_sharpness)
                cur[nid] = ops.reshape(s, one)
            elif node.kind == "conv":
                cur[nid] = ops.conv2d_batched(merged, params[graph.param_name(nid)],
                                              stride=node.stride, padding=node.padding)
            elif node.kind == "linear":
                flat = ops.reshape(merged, (1, node.in_features))
                cur[nid] = ops.matmul(flat, params[graph.param_name(nid)])
            else:
                cur[nid] = ops.reshape(merged, (1,) + node.out_shape)
        for s in delayed:
            prev[s] = cur[s]
        for nid in rows:
            rows[nid].append(cur[nid])
    records = {nid: ops.reshape(ops.stack_rows(r), (x.shape[0],) + r[0].shape[1:])
               for nid, r in rows.items()}
    return states, records


@st.composite
def cases(draw):
    """conv -> LIF -> flatten -> linear -> LIF -> linear -> LIF, with a
    projected fan-in from the conv LIF into the hidden LIF and a delay-1
    feedback edge, projected unless it is the hidden layer's self-loop."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))

    def lif(n=None):
        p = LIFParams(alpha=draw(st.floats(0.5, 0.95)), beta=draw(st.floats(0.5, 0.95)),
                      thr=draw(st.floats(0.3, 1.2)),
                      surrogate=SurrogateFn(draw(st.sampled_from(SURROGATE_TAGS)),
                                            draw(st.floats(1.0, 10.0))),
                      reset=draw(st.sampled_from(["subtract", "to_zero"])))
        return lif_layer(n, params=p, smooth_sharpness=draw(st.sampled_from([None, 15.0])))

    c_in, size = draw(st.integers(1, 2)), draw(st.integers(3, 5))
    n_h, n_out = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    nodes = [conv_layer(c_in, draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                        stride=draw(st.integers(1, 2)), padding=draw(st.integers(0, 1))),
             lif(), flatten_layer(), linear_layer(n_h), lif(n_h), linear_layer(n_out),
             lif(n_out)]
    feedback = draw(st.sampled_from([(6, 4, 1), (4, 4, 1), (6, 0, 1), (4, 3, 1)]))
    edges = [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 6, 0), (1, 4, 0),
             feedback]
    graph = graph_build(nodes, edges, input_shape=(c_in, size, size),
                        seed=draw(st.integers(0, 2**16)), dtype=dtype)
    t = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return graph, rng, t, draw(st.booleans())


def taped_leaves(graph, rng, t):
    """A tape, and on it the parameters, an input and uniform initial U and I."""
    tape = Tape()
    params = {n: tape.leaf(graph.params[n]) for n in sorted(graph.params)}
    x = tape.leaf(rng.uniform(0.0, 2.0, (t,) + input_shape(graph)).astype(graph.dtype))
    states = {nid: NeuronState(U=tape.leaf(s.U.data), I=tape.leaf(s.I.data), S=s.S)
              for nid, s in init_states(graph, mode="uniform", seed=1).items()}
    return tape, params, x, states


def rel_error(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-30)


class TestProgramAgainstPerOpReference:
    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_spikes_states_and_gradients(self, case):
        graph, rng, t, seed_record = case
        seed = int(rng.integers(2**31))
        out = graph.output_nodes[0]
        results = []
        for program in (True, False):
            tape, params, x, states = taped_leaves(graph, np.random.default_rng(seed), t)
            if program:
                final, rec = run(graph, ExecutionPlan("step_by_step"), x, states, params=params)
                record = rec.outputs[out]
                assert tape._tags.count("graph_run") == 1 and "lif_scan" not in tape._tags
            else:
                final, records = per_op_step_by_step(graph, x, states, params)
                record = records[out]
            # the same seeds on every final U and I and, unless a final state
            # alone is to reach the scans, on the output record
            srng = np.random.default_rng(seed + 1)
            seeds = {}
            if seed_record:
                seeds[record.node_id] = srng.standard_normal(record.shape).astype(graph.dtype)
            for nid in sorted(final):
                for part in (final[nid].U, final[nid].I):
                    seeds[part.node_id] = srng.standard_normal(part.shape).astype(graph.dtype)
            grads = tape.grads_from_seeds(seeds)
            leaves = {**params, "x": x}
            for nid, s in states.items():
                leaves[f"U{nid}"], leaves[f"I{nid}"] = s.U, s.I
            forward = [record.data] + [getattr(final[nid], p).data
                                       for nid in sorted(final) for p in "UIS"]
            results.append((forward, {k: grads[v.node_id] for k, v in leaves.items()}))
        (fwd, got), (ref_fwd, want) = results
        for a, b in zip(fwd, ref_fwd):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].dtype == want[name].dtype == graph.dtype, name
            assert rel_error(got[name], want[name]) < TOLERANCE[graph.dtype], name


class TestCheckpointingAgainstPerOpReference:
    @settings(max_examples=40, deadline=None)
    @given(cases(), st.integers(1, 6))
    def test_loss_and_parameter_gradients(self, case, k):
        graph, rng, t, _ = case
        k = min(k, t)
        x = rng.uniform(0.0, 2.0, (t,) + input_shape(graph)).astype(graph.dtype)
        states = init_states(graph, mode="uniform", seed=1)
        out = graph.output_nodes[0]
        classes = graph.node(out).shape[0]
        head = SpikeCountCELoss(np.eye(classes)[int(rng.integers(classes))])
        loss, got, _ = run_with_checkpointing(
            graph, ExecutionPlan("step_by_step", checkpoint_every=k), x, states, head)
        tape = Tape()
        params = {n: tape.leaf(graph.params[n]) for n in sorted(graph.params)}
        _, records = per_op_step_by_step(graph, Tensor(x), states, params)
        ref = head.loss_tensor(SpikeRecord(outputs=records, steps=t))
        grads = tape.grads_from_seeds({ref.node_id: np.ones((), dtype=graph.dtype)})
        assert abs(loss - float(ref.data)) <= TOLERANCE[graph.dtype] * max(abs(loss), 1.0)
        assert sorted(got) == sorted(params)
        for name, leaf in params.items():
            want = grads.get(leaf.node_id, np.zeros_like(leaf.data))
            assert got[name].dtype == graph.dtype, name
            assert rel_error(got[name], want) < TOLERANCE[graph.dtype], (k, name)
