"""Time-loop evaluation of a network graph.

One node function, _step, evaluates every node in topological order over a
slab of rows [rows, ...]: LIF nodes run neurons.lif_scan over the rows,
linear nodes one matmul, conv nodes one conv2d_batched, flatten a reshape.
It runs a node program built once per run (_ExecContext), which holds each
node's parameter names and input edges and marks the reshapes that are not
identities, so a step formats no names and skips the identity reshapes.
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
BPTT. The newest segment is taped in the forward pass and not replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ops
from .neurons import NeuronState, init_state, lif_scan
from .neurons import lif_step  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
from .tensor import ShapeError, Tape, Tensor, ValidationError
from .topology import LayerNode, topo_order

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


class _NodeOp(NamedTuple):
    """One node of the program _step runs. A shape tail is None where the
    shapes are known to match already, so _step skips that reshape."""

    node: LayerNode
    input_tail: tuple | None  # None when the graph input is not fed in, or fits
    feeds_input: bool
    edges: tuple  # (src, delayed, proj name or None, src flat tail, dst tail)
    weight: str | None
    flat_tail: tuple | None  # linear and flatten: the [rows, n] view of the input


class _ExecContext:
    """The node program of one graph, built once per run: per node in
    topological order, the parameter names it reads, where its inputs come
    from and which reshapes are not identities. params maps those names to
    Tensors; checkpointed replay swaps in each segment's taped ones."""

    def __init__(self, graph, params):
        self.graph = graph
        self.order = topo_order(graph)
        in_edges = {n.id: [] for n in graph.nodes}
        for s, d, dl in graph.edges:
            in_edges[d].append((s, dl))
        self.delay1_sources = sorted({s for s, _, dl in graph.edges if dl == 1})
        x_shape = input_shape(graph)
        inputs = set(graph.input_nodes)
        self.program = [
            _compile_node(graph, graph.node(nid), in_edges[nid], nid in inputs, x_shape)
            for nid in self.order
        ]
        if params is None:
            params = {name: Tensor(arr) for name, arr in graph.params.items()}
        self.params = params

    def zero_prev(self):
        return {
            s: Tensor(np.zeros((1,) + self.graph.node(s).out_shape, dtype=self.graph.dtype))
            for s in self.delay1_sources
        }


def _tail(have, want):
    return None if have == want else want


def _compile_node(graph, node, in_edges, feeds_input, x_shape):
    if node.kind not in ("lif", "linear", "conv", "flatten"):
        raise ValidationError(f"cannot apply layer kind {node.kind!r}")
    edges = []
    for src, dl in in_edges:
        src_shape = graph.node(src).out_shape
        proj = graph.proj_name(src, node.id)
        if proj in graph.params:
            flat = (math.prod(src_shape),)
            edges.append((src, dl == 1, proj, _tail(src_shape, flat),
                          _tail((math.prod(node.in_shape),), node.in_shape)))
        else:
            edges.append((src, dl == 1, None, None, _tail(src_shape, node.in_shape)))
    weight = graph.param_name(node.id) if node.kind in ("linear", "conv") else None
    flat_tail = None
    if node.kind == "linear":
        flat_tail = _tail(node.in_shape, (node.in_features,))
    elif node.kind == "flatten":
        flat_tail = _tail(node.in_shape, node.out_shape)
    return _NodeOp(
        node=node,
        input_tail=_tail(x_shape, node.in_shape) if feeds_input else None,
        feeds_input=feeds_input, edges=tuple(edges), weight=weight, flat_tail=flat_tail,
    )


def _rows_as(t, rows, tail):
    """t as [rows, *tail], or t itself when the program knows it fits."""
    return t if tail is None else ops.reshape(t, (rows,) + tail)


def _merge(contribs, shape, dtype):
    if not contribs:
        return Tensor(np.zeros(shape, dtype=dtype))
    x = contribs[0]
    for c in contribs[1:]:
        x = ops.add(x, c)
    return x


def _apply_stateless(params, op, x, rows):
    node = op.node
    if node.kind == "conv":
        return ops.conv2d_batched(x, params[op.weight], stride=node.stride, padding=node.padding)
    x = _rows_as(x, rows, op.flat_tail)
    return ops.matmul(x, params[op.weight]) if node.kind == "linear" else x


def _step(ctx, states, prev, x):
    """Every node over the slab x [rows, ...]: all T steps for layer_by_layer,
    one step for step_by_step. Delay-1 edges read prev; returns {node id:
    output [rows, ...]}."""
    rows = x.shape[0]
    params = ctx.params
    cur = {}
    for op in ctx.program:
        node = op.node
        contribs = [_rows_as(x, rows, op.input_tail)] if op.feeds_input else []
        for src, delayed, proj, src_tail, dst_tail in op.edges:
            v = prev[src] if delayed else cur[src]
            if proj is not None:
                v = ops.matmul(_rows_as(v, rows, src_tail), params[proj])
            contribs.append(_rows_as(v, rows, dst_tail))
        merged = _merge(contribs, (rows,) + node.in_shape, ctx.graph.dtype)
        if node.stateful:
            states[node.id], cur[node.id] = lif_scan(
                states[node.id], merged, node.lif, node.smooth_sharpness
            )
        else:
            cur[node.id] = _apply_stateless(params, op, merged, rows)
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
    accumulation, so the result is bit-identical to a full-tape run. The
    newest segment is taped during the forward pass already and serves as
    its own replay.

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

    # forward without a tape up to the newest segment: keep only boundary
    # snapshots and output rows
    ctx = _ExecContext(graph, None)
    t_newest = (t_total - 1) // k * k
    states = dict(init_states_map)
    prev = ctx.zero_prev()
    boundaries = []  # (t_start, states snapshot, prev snapshot)
    out_rows = []
    for t in range(t_newest):
        if t % k == 0:
            boundaries.append((t, dict(states), dict(prev)))
        cur = _step(ctx, states, prev, ops.slice_rows(input_np, t, t + 1))
        out_rows.append(cur[out_node].data[0])
        for s in ctx.delay1_sources:
            prev[s] = cur[s]
    seg = _Segment(ctx, input_np, t_newest, t_total, states, prev, out_node)
    out_rows.extend(o.data[0] for o in seg.outputs)

    logits = np.sum(np.stack(out_rows), axis=0)
    loss, dlogits = loss_head.loss_and_logit_grad(logits)
    dlogits = dlogits[None]  # each step's output is a [1, C] row

    # backward, one segment at a time, newest first
    later = None  # (param grads, state grads, prev grads) of the later segments
    peak_nodes = 0
    for t0, st0, pv0 in reversed(boundaries):
        later = seg.backward(dlogits, later)
        peak_nodes = max(peak_nodes, len(seg.tape))
        seg = None  # free this tape before the next one is built
        seg = _Segment(ctx, input_np, t0, t0 + k, st0, pv0, out_node)
    later = seg.backward(dlogits, later)
    peak_nodes = max(peak_nodes, len(seg.tape))

    n_state_tensors = 3 * len(graph.stateful_nodes()) + len(ctx.delay1_sources)
    stats = {
        "segments": len(boundaries) + 1,
        "peak_tape_nodes": peak_nodes,
        "boundary_tensor_count": (len(boundaries) + 1) * n_state_tensors,
    }
    return loss, later[0], stats


class _Segment:
    """Steps [t0, t1) of step_by_step on a fresh tape, started from leaf
    copies of the boundary states. ctx.params becomes the tape's parameter
    leaves."""

    def __init__(self, ctx, input_np, t0, t1, states0, prev0, out_node):
        tape = self.tape = Tape()
        graph_params = ctx.graph.params
        self.params = {name: tape.leaf(graph_params[name]) for name in sorted(graph_params)}
        ctx.params = self.params
        self.start_states = {
            nid: NeuronState(
                U=tape.leaf(st.U.data), I=tape.leaf(st.I.data), S=tape.leaf(st.S.data)
            )
            for nid, st in states0.items()
        }
        self.start_prev = {s: tape.leaf(prev0[s].data) for s in ctx.delay1_sources}
        self.states = dict(self.start_states)
        self.prev = dict(self.start_prev)
        self.outputs = []
        for t in range(t0, t1):
            cur = _step(ctx, self.states, self.prev, ops.slice_rows(input_np, t, t + 1))
            self.outputs.append(cur[out_node])
            for s in ctx.delay1_sources:
                self.prev[s] = cur[s]

    def backward(self, dlogits, later):
        """Reverse sweep seeded with dlogits on every step's output and with
        the later segments' gradients on the final states; continues their
        parameter-gradient accumulation. Returns this segment's (param grads,
        start-state grads, start-prev grads)."""
        seeds = {}

        def seed_add(nid, g):
            if nid is None:
                return
            seeds[nid] = seeds[nid] + g if nid in seeds else g

        for out in self.outputs:
            seed_add(out.node_id, dlogits)
        init_param = None
        if later is not None:
            running, state_grads, prev_grads = later
            for nid, (gu, gi, gs) in state_grads.items():
                st = self.states[nid]
                seed_add(st.U.node_id, gu)
                seed_add(st.I.node_id, gi)
                seed_add(st.S.node_id, gs)
            for s, g in prev_grads.items():
                seed_add(self.prev[s].node_id, g)
            init_param = {t.node_id: running[name] for name, t in self.params.items()}
        grads = self.tape.grads_from_seeds(seeds, init_param_grads=init_param)
        return (
            {name: grads[t.node_id] for name, t in self.params.items()},
            {
                nid: (grads[st.U.node_id], grads[st.I.node_id], grads[st.S.node_id])
                for nid, st in self.start_states.items()
            },
            {s: grads[t.node_id] for s, t in self.start_prev.items()},
        )


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
