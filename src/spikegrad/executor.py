"""Time-loop evaluation of a network graph.

Two schedulers compute the same discretized system:

* step_by_step: outer loop over time, inner pass over the topological order.
  Delay-1 edges read the source's previous-step output (zeros at step 0), so
  arbitrary feedback is supported.
* layer_by_layer: outer loop over layers; each LIF layer runs its full
  T-step input as one fused scan node (neurons.lif_scan) before the next
  layer runs, and stateless layers apply to all T steps in one batched call.
  Only valid for graphs without delay-1 edges.

run_with_checkpointing stores only segment-boundary states during forward
and replays each segment on a fresh tape during backward, continuing the
gradient accumulation so results are bit-identical to full BPTT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .neurons import NeuronState, init_state, lif_scan, lif_smooth_step, lif_step
from .tensor import ShapeError, Tape, Tensor, ValidationError
from .topology import topo_order

SCHEDULERS = ("step_by_step", "layer_by_layer")


class PlanError(ValueError):
    """Execution plan incompatible with the graph."""


@dataclass
class ExecutionPlan:
    scheduler: str = "step_by_step"
    checkpoint_every: int | None = None

    def __post_init__(self):
        if self.scheduler not in SCHEDULERS:
            raise ValidationError(
                f"scheduler must be one of {SCHEDULERS}, got {self.scheduler!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValidationError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )


@dataclass
class SpikeRecord:
    """Per-node [T x ...] spike (or activation) traces."""

    outputs: dict  # output node id -> Tensor [T, ...]
    hidden: dict | None = None
    steps: int = 0


def init_states(graph, mode="zeros", seed=0):
    """One NeuronState per stateful node, deterministically derived from seed."""
    states = {}
    for nid in graph.stateful_nodes():
        node = graph.node(nid)
        states[nid] = init_state(
            node.shape, mode=mode, rng_seed=seed * 1000003 + nid, dtype=graph.dtype
        )
    return states


class _ExecContext:
    """Precomputed per-run structure shared by all schedulers."""

    def __init__(self, graph, params):
        self.graph = graph
        self.order = topo_order(graph)
        self.in_edges = {n.id: [] for n in graph.nodes}
        for s, d, dl in graph.edges:
            self.in_edges[d].append((s, dl))
        self.delay1_sources = sorted({s for s, _, dl in graph.edges if dl == 1})
        self.inputs = set(graph.input_nodes)
        if params is None:
            params = {name: Tensor(arr) for name, arr in graph.params.items()}
        self.params = params

    def zero_prev(self):
        return {
            s: Tensor(np.zeros(self.graph.node(s).out_shape, dtype=self.graph.dtype))
            for s in self.delay1_sources
        }


def _coerce(value, in_shape, batched):
    target = ((value.shape[0],) + tuple(in_shape)) if batched else tuple(in_shape)
    if value.shape == target:
        return value
    if int(np.prod(value.shape)) == int(np.prod(target)):
        return ops.reshape(value, target)
    raise ShapeError(f"cannot merge value of shape {value.shape} into input {target}")


def _edge_value(ctx, value, src, dst, batched):
    graph = ctx.graph
    proj = ctx.params.get(graph.proj_name(src, dst))
    in_shape = graph.node(dst).in_shape
    if proj is None:
        return _coerce(value, in_shape, batched)
    flat = int(np.prod(graph.node(src).out_shape))
    rows = value.shape[0] if batched else 1
    v = ops.matmul(ops.reshape(value, (rows, flat)), proj)
    return ops.reshape(v, ((rows,) + tuple(in_shape)) if batched else tuple(in_shape))


def _merge(contribs, in_shape, dtype, batched, rows=1):
    if not contribs:
        shape = ((rows,) + tuple(in_shape)) if batched else tuple(in_shape)
        return Tensor(np.zeros(shape, dtype=dtype))
    x = contribs[0]
    for c in contribs[1:]:
        x = ops.add(x, c)
    return x


def _apply_stateless_step(ctx, node, x):
    if node.kind == "linear":
        w = ctx.params[ctx.graph.param_name(node.id)]
        y = ops.matmul(ops.reshape(x, (1, node.in_features)), w)
        return ops.reshape(y, node.out_shape)
    if node.kind == "conv":
        w = ctx.params[ctx.graph.param_name(node.id)]
        return ops.conv2d(x, w, stride=node.stride, padding=node.padding)
    if node.kind == "flatten":
        return ops.reshape(x, node.out_shape)
    raise ValidationError(f"cannot apply layer kind {node.kind!r}")


def _apply_stateless_batched(ctx, node, x, t):
    if node.kind == "linear":
        w = ctx.params[ctx.graph.param_name(node.id)]
        y = ops.matmul(ops.reshape(x, (t, node.in_features)), w)
        return ops.reshape(y, (t,) + node.out_shape)
    if node.kind == "conv":
        w = ctx.params[ctx.graph.param_name(node.id)]
        return ops.conv2d_batched(x, w, stride=node.stride, padding=node.padding)
    if node.kind == "flatten":
        return ops.reshape(x, (t,) + node.out_shape)
    raise ValidationError(f"cannot apply layer kind {node.kind!r}")


def _neuron_step(node, state, x):
    if node.smooth_sharpness is not None:
        return lif_smooth_step(state, x, node.lif, node.smooth_sharpness)
    return lif_step(state, x, node.lif)


def _row(x, t, shape):
    return ops.reshape(ops.slice_rows(x, t, t + 1), shape)


def _step(ctx, states, prev, xt):
    """One synchronous time step; returns {node id: output tensor}."""
    cur = {}
    for nid in ctx.order:
        node = ctx.graph.node(nid)
        contribs = []
        if nid in ctx.inputs:
            contribs.append(_coerce(xt, node.in_shape, batched=False))
        for s, dl in ctx.in_edges[nid]:
            v = cur[s] if dl == 0 else prev[s]
            contribs.append(_edge_value(ctx, v, s, nid, batched=False))
        x = _merge(contribs, node.in_shape, ctx.graph.dtype, batched=False)
        if node.stateful:
            states[nid], out = _neuron_step(node, states[nid], x)
        else:
            out = _apply_stateless_step(ctx, node, x)
        cur[nid] = out
    return cur


def _validate_run_args(graph, input_spikes, init_states_map):
    if input_spikes.ndim < 1 or input_spikes.shape[0] < 1:
        raise ValidationError("input needs a leading time axis of length >= 1")
    for nid in graph.stateful_nodes():
        if nid not in init_states_map:
            raise ValidationError(f"missing initial state for stateful node {nid}")
        if init_states_map[nid].U.shape != graph.node(nid).shape:
            raise ShapeError(
                f"state shape {init_states_map[nid].U.shape} != layer shape "
                f"{graph.node(nid).shape} for node {nid}"
            )


def run(graph, plan, input_spikes, init_states_map, params=None, record_hidden=False):
    """Evaluate the graph over the input's T steps; returns (final states, record)."""
    if not isinstance(input_spikes, Tensor):
        input_spikes = Tensor(input_spikes)
    _validate_run_args(graph, input_spikes, init_states_map)
    if plan.scheduler == "layer_by_layer":
        if graph.has_delay_edges():
            raise PlanError(
                "layer_by_layer cannot execute graphs with delay-1 feedback edges; "
                "use step_by_step"
            )
        return _run_layer_by_layer(graph, input_spikes, init_states_map, params, record_hidden)
    return _run_step_by_step(graph, input_spikes, init_states_map, params, record_hidden)


def _run_step_by_step(graph, input_spikes, init_states_map, params, record_hidden):
    ctx = _ExecContext(graph, params)
    t_total = input_spikes.shape[0]
    states = dict(init_states_map)
    prev = ctx.zero_prev()
    traced = ctx.order if record_hidden else graph.output_nodes
    traces = {nid: [] for nid in traced}
    row_shape = input_spikes.shape[1:]
    for t in range(t_total):
        xt = _row(input_spikes, t, row_shape)
        cur = _step(ctx, states, prev, xt)
        for nid in traced:
            traces[nid].append(cur[nid])
        for s in ctx.delay1_sources:
            prev[s] = cur[s]
    stacked = {nid: ops.stack_rows(vals) for nid, vals in traces.items()}
    record = SpikeRecord(
        outputs={nid: stacked[nid] for nid in graph.output_nodes},
        hidden=stacked if record_hidden else None,
        steps=t_total,
    )
    return states, record


def _run_layer_by_layer(graph, input_spikes, init_states_map, params, record_hidden):
    ctx = _ExecContext(graph, params)
    t_total = input_spikes.shape[0]
    states = dict(init_states_map)
    seqs = {}
    for nid in ctx.order:
        node = graph.node(nid)
        contribs = []
        if nid in ctx.inputs:
            contribs.append(_coerce(input_spikes, node.in_shape, batched=True))
        for s, _ in ctx.in_edges[nid]:
            contribs.append(_edge_value(ctx, seqs[s], s, nid, batched=True))
        x = _merge(contribs, node.in_shape, graph.dtype, batched=True, rows=t_total)
        if node.stateful:
            states[nid], seqs[nid] = lif_scan(states[nid], x, node.lif, node.smooth_sharpness)
        else:
            seqs[nid] = _apply_stateless_batched(ctx, node, x, t_total)
    record = SpikeRecord(
        outputs={nid: seqs[nid] for nid in graph.output_nodes},
        hidden=dict(seqs) if record_hidden else None,
        steps=t_total,
    )
    return states, record


def run_with_checkpointing(graph, plan, input_spikes, init_states_map, loss_head):
    """Segmented-recompute BPTT.

    Forward stores only the states at every checkpoint_every steps; backward
    replays each segment on its own tape, seeding it with the gradients that
    arrived from later segments and continuing the parameter-gradient
    accumulation, so the result is bit-identical to a full-tape run.

    Returns (loss, gradients by parameter name, stats dict).
    """
    if not isinstance(input_spikes, Tensor):
        input_spikes = Tensor(input_spikes)
    _validate_run_args(graph, input_spikes, init_states_map)
    t_total = input_spikes.shape[0]
    k = plan.checkpoint_every
    if k is None:
        raise ValidationError("run_with_checkpointing requires plan.checkpoint_every")
    if k > t_total:
        raise ValidationError(f"checkpoint_every={k} exceeds T={t_total}")
    if plan.scheduler != "step_by_step":
        raise PlanError("checkpointing is implemented for the step_by_step scheduler")
    if len(graph.output_nodes) != 1:
        raise ValidationError("checkpointed loss heads support exactly one output node")
    out_node = graph.output_nodes[0]
    row_shape = input_spikes.shape[1:]
    input_np = Tensor(input_spikes.data)  # detached copy, never taped

    # forward without a tape: keep only boundary snapshots and output rows
    ctx = _ExecContext(graph, None)
    states = dict(init_states_map)
    prev = ctx.zero_prev()
    boundaries = []  # (t_start, states snapshot, prev snapshot)
    out_rows = []
    for t in range(t_total):
        if t % k == 0:
            boundaries.append((t, dict(states), dict(prev)))
        cur = _step(ctx, states, prev, _row(input_np, t, row_shape))
        out_rows.append(cur[out_node].data)
        for s in ctx.delay1_sources:
            prev[s] = cur[s]

    logits = np.sum(np.stack(out_rows), axis=0)
    loss, dlogits = loss_head.loss_and_logit_grad(logits)

    # backward, one segment at a time, newest first
    param_names = sorted(graph.params)
    running = None  # parameter grads accumulated from later segments
    state_grads = None
    prev_grads = None
    peak_nodes = 0
    for t0, st0, pv0 in reversed(boundaries):
        t1 = min(t0 + k, t_total)
        tape = Tape()
        params_t = {name: tape.leaf(graph.params[name]) for name in param_names}
        seg_ctx = _ExecContext(graph, params_t)
        states_t = {
            nid: NeuronState(
                U=tape.leaf(st.U.data), I=tape.leaf(st.I.data), S=tape.leaf(st.S.data)
            )
            for nid, st in st0.items()
        }
        start_state_ids = {
            nid: (st.U.node_id, st.I.node_id, st.S.node_id) for nid, st in states_t.items()
        }
        prev_t = {s: tape.leaf(pv0[s].data) for s in seg_ctx.delay1_sources}
        start_prev_ids = {s: t.node_id for s, t in prev_t.items()}

        seeds = {}

        def seed_add(nid, g):
            if nid is None:
                return
            if nid in seeds:
                seeds[nid] = seeds[nid] + g
            else:
                seeds[nid] = np.array(g, copy=True)

        for t in range(t0, t1):
            cur = _step(seg_ctx, states_t, prev_t, _row(input_np, t, row_shape))
            seed_add(cur[out_node].node_id, dlogits)
            for s in seg_ctx.delay1_sources:
                prev_t[s] = cur[s]

        if state_grads is not None:
            for nid, (gu, gi, gs) in state_grads.items():
                st = states_t[nid]
                seed_add(st.U.node_id, gu)
                seed_add(st.I.node_id, gi)
                seed_add(st.S.node_id, gs)
            for s, g in prev_grads.items():
                seed_add(prev_t[s].node_id, g)

        init_param = None
        if running is not None:
            init_param = {params_t[name].node_id: running[name] for name in param_names}
        grads = tape.grads_from_seeds(seeds, init_param_grads=init_param)
        running = {name: grads[params_t[name].node_id] for name in param_names}
        state_grads = {
            nid: tuple(grads[i] for i in ids) for nid, ids in start_state_ids.items()
        }
        prev_grads = {s: grads[i] for s, i in start_prev_ids.items()}
        peak_nodes = max(peak_nodes, len(tape))

    n_state_tensors = 3 * len(graph.stateful_nodes()) + len(ctx.delay1_sources)
    stats = {
        "segments": len(boundaries),
        "peak_tape_nodes": peak_nodes,
        "boundary_tensor_count": len(boundaries) * n_state_tensors,
    }
    gradients = dict(running) if running is not None else {}
    return loss, gradients, stats


def write_trace(record, path):
    """Dump per-step spike rasters as CSV rows t,node_id,neuron_idx,spike."""
    traces = record.hidden if record.hidden is not None else record.outputs
    with open(path, "w") as f:
        f.write("t,node_id,neuron_idx,spike\n")
        for nid in sorted(traces):
            data = traces[nid].data.reshape(record.steps, -1)
            for t in range(record.steps):
                row = data[t]
                for idx in range(row.shape[0]):
                    f.write(f"{t},{nid},{idx},{row[idx]:.6g}\n")
