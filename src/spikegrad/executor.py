"""Time-loop evaluation of a network graph.

One node function, _step, evaluates every node in topological order over a
slab of rows [rows, ...]: LIF nodes run neurons.lif_scan over the rows,
linear nodes one matmul, conv nodes one conv2d_batched, flatten a reshape.
The two schedulers compute the same discretized system and differ only in
loop order:

* layer_by_layer: one _step call over all T rows, so each LIF layer is one
  fused scan node. Only valid for graphs without delay-1 edges.
* step_by_step: one _step call per time step with a one-row slab. Delay-1
  edges read the source's previous-step output (zeros at step 0), so
  arbitrary feedback is supported.

run and run_with_checkpointing share one input boundary: the input must be a
finite [T, *input_shape(graph)] array, and an untaped one is cast to
graph.dtype, so a graph computes in its own precision end to end.

run_with_checkpointing stores only segment-boundary states during forward
and replays each segment of step_by_step on a fresh tape during backward,
continuing the gradient accumulation so results are bit-identical to full
BPTT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .neurons import NeuronState, init_state, lif_scan
from .neurons import lif_step  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
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
            s: Tensor(np.zeros((1,) + self.graph.node(s).out_shape, dtype=self.graph.dtype))
            for s in self.delay1_sources
        }


def _edge_value(ctx, value, src, dst):
    graph = ctx.graph
    proj = ctx.params.get(graph.proj_name(src, dst))
    rows = value.shape[0]
    shape = (rows,) + graph.node(dst).in_shape
    if proj is None:
        return ops.reshape(value, shape)
    flat = math.prod(graph.node(src).out_shape)
    return ops.reshape(ops.matmul(ops.reshape(value, (rows, flat)), proj), shape)


def _merge(contribs, shape, dtype):
    if not contribs:
        return Tensor(np.zeros(shape, dtype=dtype))
    x = contribs[0]
    for c in contribs[1:]:
        x = ops.add(x, c)
    return x


def _apply_stateless(ctx, node, x):
    rows = x.shape[0]
    if node.kind == "linear":
        w = ctx.params[ctx.graph.param_name(node.id)]
        y = ops.matmul(ops.reshape(x, (rows, node.in_features)), w)
        return ops.reshape(y, (rows,) + node.out_shape)
    if node.kind == "conv":
        w = ctx.params[ctx.graph.param_name(node.id)]
        return ops.conv2d_batched(x, w, stride=node.stride, padding=node.padding)
    if node.kind == "flatten":
        return ops.reshape(x, (rows,) + node.out_shape)
    raise ValidationError(f"cannot apply layer kind {node.kind!r}")


def _step(ctx, states, prev, x):
    """Every node over the slab x [rows, ...]: all T steps for layer_by_layer,
    one step for step_by_step. Delay-1 edges read prev; returns {node id:
    output [rows, ...]}."""
    rows = x.shape[0]
    cur = {}
    for nid in ctx.order:
        node = ctx.graph.node(nid)
        shape = (rows,) + node.in_shape
        contribs = [ops.reshape(x, shape)] if nid in ctx.inputs else []
        for s, dl in ctx.in_edges[nid]:
            v = cur[s] if dl == 0 else prev[s]
            contribs.append(_edge_value(ctx, v, s, nid))
        merged = _merge(contribs, shape, ctx.graph.dtype)
        if node.stateful:
            states[nid], cur[nid] = lif_scan(states[nid], merged, node.lif, node.smooth_sharpness)
        else:
            cur[nid] = _apply_stateless(ctx, node, merged)
    return cur


def input_shape(graph):
    """The per-step input shape run expects: graph.input_shape when set,
    otherwise the shape of the input nodes."""
    if graph.input_shape is not None:
        return tuple(graph.input_shape)
    return graph.node(graph.input_nodes[0]).in_shape


def _check_run_args(graph, input_spikes, init_states_map):
    """The run boundary. Returns input_spikes as a finite [T, *input_shape]
    Tensor in graph.dtype: an untaped input is cast, a taped one must already
    have graph.dtype, since a cast would cut it off its tape. Initial states
    must cover every LIF node with its shape and graph.dtype."""
    x = input_spikes if isinstance(input_spikes, Tensor) else Tensor(input_spikes)
    if x.ndim < 1 or x.shape[0] < 1:
        raise ValidationError("input needs a leading time axis of length >= 1")
    want = input_shape(graph)
    if x.shape[1:] != want:
        raise ShapeError(f"input shape {x.shape} is not [T, *{want}]")
    if x.dtype != graph.dtype:
        if x.tape is not None:
            raise ValidationError(
                f"taped input has dtype {x.dtype}, the graph computes in {graph.dtype}"
            )
        with np.errstate(over="ignore"):
            x = Tensor(x.data.astype(graph.dtype))
    if not np.isfinite(x.data).all():
        raise ValidationError(f"input has NaN or inf values (in {graph.dtype})")
    for nid in graph.stateful_nodes():
        if nid not in init_states_map:
            raise ValidationError(f"missing initial state for stateful node {nid}")
        st = init_states_map[nid]
        if st.U.shape != graph.node(nid).shape:
            raise ShapeError(
                f"state shape {st.U.shape} != layer shape "
                f"{graph.node(nid).shape} for node {nid}"
            )
        if any(v.dtype != graph.dtype for v in (st.U, st.I, st.S)):
            raise ValidationError(
                f"initial state of node {nid} is not {graph.dtype}: "
                f"U {st.U.dtype}, I {st.I.dtype}, S {st.S.dtype}"
            )
    return x


def run(graph, plan, input_spikes, init_states_map, params=None, record_hidden=False):
    """Evaluate the graph over the input's T steps; returns (final states, record)."""
    input_spikes = _check_run_args(graph, input_spikes, init_states_map)
    ctx = _ExecContext(graph, params)
    states = dict(init_states_map)
    traced = ctx.order if record_hidden else graph.output_nodes
    if plan.scheduler == "layer_by_layer":
        if graph.has_delay_edges():
            raise PlanError(
                "layer_by_layer cannot execute graphs with delay-1 feedback edges; "
                "use step_by_step"
            )
        seqs = _step(ctx, states, {}, input_spikes)
    else:
        seqs = _run_steps(ctx, states, input_spikes, traced)
    record = SpikeRecord(
        outputs={nid: seqs[nid] for nid in graph.output_nodes},
        hidden={nid: seqs[nid] for nid in traced} if record_hidden else None,
        steps=input_spikes.shape[0],
    )
    return states, record


def _run_steps(ctx, states, input_spikes, traced):
    """step_by_step: _step once per one-row slab; returns {traced node id:
    its [1, ...] outputs joined into [T, ...]}."""
    t_total = input_spikes.shape[0]
    prev = ctx.zero_prev()
    rows = {nid: [] for nid in traced}
    for t in range(t_total):
        cur = _step(ctx, states, prev, ops.slice_rows(input_spikes, t, t + 1))
        for nid in traced:
            rows[nid].append(cur[nid])
        for s in ctx.delay1_sources:
            prev[s] = cur[s]
    return {
        nid: ops.reshape(ops.stack_rows(vals), (t_total,) + vals[0].shape[1:])
        for nid, vals in rows.items()
    }


def run_with_checkpointing(graph, plan, input_spikes, init_states_map, loss_head):
    """Segmented-recompute BPTT.

    Forward stores only the states at every checkpoint_every steps; backward
    replays each segment on its own tape, seeding it with the gradients that
    arrived from later segments and continuing the parameter-gradient
    accumulation, so the result is bit-identical to a full-tape run.

    Returns (loss, gradients by parameter name, stats dict).
    """
    input_spikes = _check_run_args(graph, input_spikes, init_states_map)
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
        cur = _step(ctx, states, prev, ops.slice_rows(input_np, t, t + 1))
        out_rows.append(cur[out_node].data[0])
        for s in ctx.delay1_sources:
            prev[s] = cur[s]

    logits = np.sum(np.stack(out_rows), axis=0)
    loss, dlogits = loss_head.loss_and_logit_grad(logits)
    dlogits = dlogits[None]  # each step's output is a [1, C] row

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
            cur = _step(seg_ctx, states_t, prev_t, ops.slice_rows(input_np, t, t + 1))
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
