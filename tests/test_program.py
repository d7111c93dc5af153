"""The executor's node program against a per-op reference.

The reference runs step_by_step on one Tape with one node per op: lif_step
or lif_smooth_step per LIF layer, ops.matmul per linear node and projection,
ops.add per fan-in, ops.reshape and ops.conv2d. The program computes
the same forward expressions, so spikes and final states must be
bit-identical; its backward is the fused BPTT walk, so gradients agree to
rounding. The reference shares no code with the executor's segment forward
and reverse walk, so it also checks run_with_checkpointing's replays. The
program runs step_by_step on every graph and layer_by_layer on acyclic
twins of the same graphs.
"""

import math
from contextlib import contextmanager

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
                cur[nid] = ops.conv2d(merged, params[graph.param_name(nid)],
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


# recurrent shapes that exercise the program's phases (the instructions a
# segment runs before, on and after its feedback cycles): per shape, the
# node kinds (None: the input layer; in_*: another input layer), the edges
# and the input nodes; the last lif_out node is the read-out
PHASE_SHAPES = {
    # two cycles in series, with a stepped linear layer between them
    "series": ([None, "lif", "hidden", "hidden2", "lif2", "hidden2", "out", "lif_out"],
               [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 3, 0), (3, 4, 0), (4, 5, 0), (5, 4, 1),
                (4, 6, 0), (6, 7, 0)], [0]),
    # a second input layer that bypasses the cycle into the read-out
    "bypass": ([None, "lif", "hidden", "out", "lif_out", "in_out"],
               [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 3, 0), (3, 4, 0), (5, 4, 0)], [0, 5]),
    # a delay-1 edge from a source on no cycle: the first read-out into the second
    "open_delay": ([None, "lif", "hidden", "out", "lif_out", "out", "lif_out"],
                   [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 3, 0), (3, 4, 0), (4, 5, 1),
                    (5, 6, 0)], [0]),
    # an input layer into the feedback weight (node 3), which the loss
    # reaches only through the delay-1 edge, so not at the last step
    "skip_to_feedback": ([None, "in_hidden", "lif", "hidden", "out", "lif_out"],
                         [(0, 2, 0), (2, 3, 0), (3, 2, 1), (1, 3, 0), (2, 4, 0), (4, 5, 0)],
                         [0, 1]),
}


def _without_cycles(edges):
    """The edges of layer_by_layer's twin of a graph: a delay-1 edge that
    points back in node order is dropped, one that points forward loses
    its delay."""
    return [(s, d, 0) for s, d, dl in edges if not dl or s < d]


@st.composite
def cases(draw, acyclic=False):
    """conv -> LIF -> flatten -> linear -> LIF -> linear -> LIF, with a
    projected fan-in from the conv LIF into the hidden LIF and a delay-1
    feedback edge, projected unless it is the hidden layer's self-loop; or
    one of PHASE_SHAPES. With acyclic, the graph has no delay-1 edge
    (_without_cycles), so layer_by_layer can run it."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))

    def lif(n=None):
        p = LIFParams(alpha=draw(st.floats(0.5, 0.95)), beta=draw(st.floats(0.5, 0.95)),
                      thr=draw(st.floats(0.3, 1.2)),
                      surrogate=SurrogateFn(draw(st.sampled_from(SURROGATE_TAGS)),
                                            draw(st.floats(1.0, 10.0))),
                      reset=draw(st.sampled_from(["subtract", "to_zero"])))
        return lif_layer(n, params=p, smooth_sharpness=draw(st.sampled_from([None, 15.0])))

    n_h, n_out = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["conv", *PHASE_SHAPES]))
    if shape != "conv":
        n_in, n_h2 = draw(st.integers(1, 4)), draw(st.integers(2, 5))
        kinds, edges, inputs = PHASE_SHAPES[shape]
        sizes = {"hidden": n_h, "hidden2": n_h2, "out": n_out}
        sizes.update(lif=n_h, lif2=n_h2, lif_out=n_out, in_out=n_out, in_hidden=n_h)
        nodes = [linear_layer(n_h, in_features=n_in) if k is None
                 else linear_layer(sizes[k], in_features=n_in) if k.startswith("in_")
                 else lif(sizes[k]) if k.startswith("lif") else linear_layer(sizes[k])
                 for k in kinds]
        out = max(n for n, k in enumerate(kinds) if k == "lif_out")
        if acyclic:
            edges = _without_cycles(edges)
        graph = graph_build(nodes, edges, input_nodes=inputs, output_nodes=[out],
                            input_shape=(n_in,), seed=draw(st.integers(0, 2**16)), dtype=dtype)
        t = draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        return graph, rng, t, draw(st.booleans())
    c_in, size = draw(st.integers(1, 2)), draw(st.integers(3, 5))
    nodes = [conv_layer(c_in, draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                        stride=draw(st.integers(1, 2)), padding=draw(st.integers(0, 1))),
             lif(), flatten_layer(), linear_layer(n_h), lif(n_h), linear_layer(n_out),
             lif(n_out)]
    feedback = draw(st.sampled_from([(6, 4, 1), (4, 4, 1), (6, 0, 1), (4, 3, 1)]))
    edges = [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 6, 0), (1, 4, 0),
             feedback]
    if acyclic:
        edges = _without_cycles(edges)
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


@contextmanager
def summing_magnitudes(tape):
    """While active, tape.grads_from_seeds sums the magnitudes of each
    gradient's terms instead of the terms: every node's backward hands on
    the magnitudes of its contributions, and the matmul and conv backwards
    read the magnitudes of their operands. The ops' other backwards scale
    the incoming gradient elementwise or move it, so from |seeds| each
    gradient becomes the sum over its chain-rule terms of their magnitudes:
    the scale of its rounding error, however much the terms cancel."""
    backwards, matmul_backward, conv2d_backward = (
        tape._backwards, ops.matmul_backward, ops.conv2d_backward)

    def magnitudes(bwd):
        return lambda g: [None if d is None else np.abs(d) for d in bwd(g)]

    tape._backwards = [None if b is None else magnitudes(b) for b in backwards]
    ops.matmul_backward = lambda a, b, *rest: matmul_backward(np.abs(a), np.abs(b), *rest)
    ops.conv2d_backward = lambda g, planes, kernel, *rest: conv2d_backward(
        g, np.abs(planes), np.abs(kernel), *rest)
    try:
        yield
    finally:
        tape._backwards, ops.matmul_backward, ops.conv2d_backward = (
            backwards, matmul_backward, conv2d_backward)


class TestProgramAgainstPerOpReference:
    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_spikes_states_and_gradients(self, case):
        self._check(case, "step_by_step")

    @settings(max_examples=40, deadline=None)
    @given(cases(acyclic=True))
    def test_layer_by_layer(self, case):
        # the scheduler's own input-gradient GEMMs and one-product weight
        # gradients, against the oracle rather than against step_by_step
        self._check(case, "layer_by_layer")

    @staticmethod
    def _check(case, scheduler):
        graph, rng, t, seed_record = case
        seed = int(rng.integers(2**31))
        out = graph.output_nodes[0]
        results = []
        for program in (True, False):
            tape, params, x, states = taped_leaves(graph, np.random.default_rng(seed), t)
            if program:
                final, rec = run(graph, ExecutionPlan(scheduler), x, states, params=params)
                record = rec.outputs[out]
                # one graph_run node and its outputs, no node per op
                assert tape._tags.count("graph_run") == 1
                assert set(tape._tags) == {"leaf", "graph_run", "graph_run_out"}
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
            if not program:
                with summing_magnitudes(tape):
                    terms = tape.grads_from_seeds({k: np.abs(v) for k, v in seeds.items()})
                terms = {k: terms[v.node_id] for k, v in leaves.items()}
        (fwd, got), (ref_fwd, want) = results
        for a, b in zip(fwd, ref_fwd):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].dtype == want[name].dtype == graph.dtype, name
            # rounding scales with the magnitudes of a gradient's terms, not
            # with the gradient's own largest value (see the test below)
            bound = TOLERANCE[graph.dtype] * terms[name]
            assert np.all(np.abs(got[name] - want[name]) <= bound), name


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
        seed = {ref.node_id: np.ones((), dtype=graph.dtype)}
        grads = tape.grads_from_seeds(seed)
        with summing_magnitudes(tape):
            terms = tape.grads_from_seeds(seed)
        assert abs(loss - float(ref.data)) <= TOLERANCE[graph.dtype] * max(abs(loss), 1.0)
        assert sorted(got) == sorted(params)
        for name, leaf in params.items():
            want = grads.get(leaf.node_id, np.zeros_like(leaf.data))
            # the program and the tape sum the terms in different orders, so
            # their results may differ by rounding, which scales with the
            # terms' magnitudes; a gradient that cancels to near zero has no
            # scale of its own
            bound = TOLERANCE[graph.dtype] * terms.get(leaf.node_id, np.zeros_like(leaf.data))
            assert got[name].dtype == graph.dtype, name
            assert np.all(np.abs(got[name] - want) <= bound), (k, name)
