"""Time-loop evaluation of a network graph.

_ExecContext compiles a graph once per run into a node program: a list of
instructions (matmul, conv, LIF scan, add, reshape, zeros) over numbered
value slots, in topological order. A value that an op would return
unchanged (an identity reshape, a merge of one input) keeps its input's
slot. _forward runs the program on plain ndarrays over a slab of rows
[rows, ...]; _backward walks it in reverse. Both call the ndarray kernels
that the ops in ops.py wrap (lif_scan_forward/_backward, matmul_rows and
matmul_backward, conv2d_forward/_backward), so each formula exists once.
The two schedulers compute the same discretized system and differ only in
loop order:

* layer_by_layer: one slab of all T rows, so each LIF layer is one fused
  scan. Only valid for graphs without delay-1 edges.
* step_by_step: one one-row slab per time step. Delay-1 edges read the
  source's previous-step output (zeros at step 0), so arbitrary feedback is
  supported.

One forward and one reverse walk serve every run. _forward_segments runs
the program slab by slab: a slab is all T rows in layer_by_layer and one row
in step_by_step. When the run is differentiated, it splits the run into
segments of checkpoint_every steps (one segment without it), keeps each
segment's start (LIF states and delay-1 values) and saves, for the newest
segment only, what the reverse walk reads: each LIF's U_pre, each matmul's
input and each conv's zero-padded input, split into its flat phase planes
(ops.conv2d_forward). _reverse walks the slabs back, the program in reverse
within a slab, and replays each earlier segment from its start when it
reaches it. It sums every gradient in the order a tape with one node per op
sums it: a value's loss seed first, then its consumers at t+1 through
delay-1 edges, then its consumers at t in reverse program order, then the
+0 a LIF's final-state gradient hands over; parameter gradients are summed
in reverse time. So the gradients do not depend on checkpoint_every.

A run whose parameters, input or initial states are on a tape records one
graph_run node, whose backward is _reverse, plus one output node per
[T, ...] record and per final U, I and S. run_with_checkpointing and
training differentiate a loss head's loss with no tape (_loss_and_grad).
All of them share one boundary (_open_run): the input must be a finite
[T, *input_shape(graph)] array, and an untaped one is cast to graph.dtype,
so a graph computes in its own precision end to end. Initial states must
cover every LIF node with its shape and graph.dtype, and the plan must suit
the graph and T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ops
from .neurons import NeuronState, init_state
from .neurons import lif_step  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
from .tensor import ShapeError, Tensor, ValidationError, _int_at_least
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
        if self.checkpoint_every is not None:
            self.checkpoint_every = _int_at_least("checkpoint_every", self.checkpoint_every, 1)


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


_ADD, _RESHAPE, _ZEROS, _MATMUL, _CONV, _LIF = "add", "reshape", "zeros", "matmul", "conv", "lif"


class _Instr(NamedTuple):
    """One instruction of the node program. aux is, by kind: add, the right
    operand's slot; reshape, (new tail, old tail); zeros, the tail; matmul,
    the weight's name; conv, (kernel name, stride, padding, input tail);
    lif, the layer's index in _ExecContext.lifs."""

    kind: str
    out: int  # slot written
    src: int  # slot read (add: the left operand)
    aux: object
    save: int  # index of the array the forward saves for _backward, or -1


class _ExecContext:
    """The node program of one graph, built once per run.

    Slot 0 is the input slab. Each delay-1 edge reads a prev slot, which
    holds the previous step's value of its source's slot: prev_slots[j]
    carries prev_src[j]. lifs lists (node id, lif_args, output slot) per LIF
    layer, in program order; cur maps each node id to its output slot.
    """

    def __init__(self, graph):
        self.graph = graph
        self.order = topo_order(graph)
        in_edges = {n.id: [] for n in graph.nodes}
        for s, d, dl in graph.edges:
            in_edges[d].append((s, dl))
        delay1 = self.delay1_sources = sorted({s for s, _, dl in graph.edges if dl == 1})
        # a delay-1 edge reads a placeholder slot until its source has a slot
        delayed = {s: -1 - j for j, s in enumerate(delay1)}
        self.instrs, self.lifs, self.cur, self.param_shapes = [], [], {}, {}
        self.n_slots, self.n_saved = 1, 0
        x_shape = input_shape(graph)
        inputs = set(graph.input_nodes)
        for nid in self.order:
            self._compile_node(graph.node(nid), in_edges[nid], nid in inputs, x_shape, delayed)
        self.prev_src = sorted({self.cur[s] for s in delay1})
        self.prev_slots = list(range(self.n_slots, self.n_slots + len(self.prev_src)))
        self.n_slots += len(self.prev_src)
        self.prev_tails = [
            graph.node(next(s for s in delay1 if self.cur[s] == c)).out_shape
            for c in self.prev_src
        ]
        if delay1:
            slot_of = dict(zip(self.prev_src, self.prev_slots))
            fix = {delayed[s]: slot_of[self.cur[s]] for s in delay1}
            self.instrs = [
                i._replace(src=fix.get(i.src, i.src),
                           aux=fix.get(i.aux, i.aux) if i.kind is _ADD else i.aux)
                for i in self.instrs
            ]
        self.reversed = self.instrs[::-1]

    def _emit(self, kind, src, aux, save=False):
        self.instrs.append(_Instr(kind, self.n_slots, src, aux, self.n_saved if save else -1))
        self.n_saved += save
        self.n_slots += 1
        return self.n_slots - 1

    def _reshape(self, src, have, want):
        return src if have == want else self._emit(_RESHAPE, src, (want, have))

    def _compile_node(self, node, in_edges, feeds_input, x_shape, delayed):
        graph = self.graph
        if node.kind not in ("lif", "linear", "conv", "flatten"):
            raise ValidationError(f"cannot apply layer kind {node.kind!r}")
        contribs = [self._reshape(0, x_shape, node.in_shape)] if feeds_input else []
        for src, dl in in_edges:
            src_shape = graph.node(src).out_shape
            v = delayed[src] if dl == 1 else self.cur[src]
            proj = graph.proj_name(src, node.id)
            if proj in graph.params:
                self.param_shapes[proj] = (math.prod(src_shape), math.prod(node.in_shape))
                v = self._reshape(v, src_shape, (math.prod(src_shape),))
                v = self._emit(_MATMUL, v, proj, save=True)
                contribs.append(self._reshape(v, (math.prod(node.in_shape),), node.in_shape))
            else:
                contribs.append(self._reshape(v, src_shape, node.in_shape))
        if contribs:
            merged = contribs[0]
            for c in contribs[1:]:
                merged = self._emit(_ADD, merged, c)
        else:
            merged = self._emit(_ZEROS, 0, node.in_shape)
        if node.stateful:
            args = ops.lif_args(node.lif, node.smooth_sharpness)
            out = self._emit(_LIF, merged, len(self.lifs), save=True)
            self.lifs.append((node.id, args, out))
        elif node.kind == "conv":
            ops.validate_conv_args(node.stride, node.padding)
            self.param_shapes[graph.param_name(node.id)] = (
                node.out_channels, node.in_channels, node.kernel, node.kernel)
            aux = (graph.param_name(node.id), node.stride, node.padding, node.in_shape)
            out = self._emit(_CONV, merged, aux, save=True)
        elif node.kind == "linear":
            self.param_shapes[graph.param_name(node.id)] = (node.in_features, node.out_features)
            flat = self._reshape(merged, node.in_shape, (node.in_features,))
            out = self._emit(_MATMUL, flat, graph.param_name(node.id), save=True)
        else:
            out = self._reshape(merged, node.in_shape, node.out_shape)
            if out < 0:  # a flatten of a delayed value alone gets a slot of its own
                out = self._emit(_RESHAPE, out, (node.out_shape, node.out_shape))
        self.cur[node.id] = out

    def param_arrays(self, params):
        """The program's parameters from params (name -> Tensor or array) as
        Tensors, each checked against the shape the graph gives it."""
        out = {}
        for name in sorted(self.param_shapes):
            if name not in params:
                raise ValidationError(f"missing parameter {name!r}")
            t = ops._as_tensor(params[name])
            if t.shape != self.param_shapes[name]:
                raise ShapeError(f"parameter {name} has shape {t.shape}, the graph needs "
                                 f"{self.param_shapes[name]}")
            out[name] = t
        return out

    def requires_grad(self, x_taped, taped_params, taped_lifs):
        """Per slot, whether a gradient can flow from it to the input, a
        parameter in taped_params or an initial state of a LIF index in
        taped_lifs, at any step."""
        rg = [False] * self.n_slots
        rg[0] = x_taped
        changed = True
        while changed:
            changed = False
            for p, c in zip(self.prev_slots, self.prev_src):
                rg[p] = rg[c]
            for kind, out, src, aux, _ in self.instrs:
                if kind is _ADD:
                    on = rg[src] or rg[aux]
                elif kind is _MATMUL:
                    on = rg[src] or aux in taped_params
                elif kind is _CONV:
                    on = rg[src] or aux[0] in taped_params
                elif kind is _LIF:
                    on = rg[src] or aux in taped_lifs
                else:
                    on = kind is _RESHAPE and rg[src]
                if on and not rg[out]:
                    rg[out] = changed = True
        return rg


def _forward(ctx, params, vals, states, saved):
    """Run the program on one slab. vals holds the input slab in slot 0 and
    the delay-1 values in the prev slots and receives every other value;
    states holds each LIF's (U, I, S) and is advanced. With a saved list,
    appends the arrays _backward reads, in instruction order."""
    rows = vals[0].shape[0]
    lifs = ctx.lifs
    # an untaped run drops U_pre and the conv phase planes at once, as the ops did
    keep = (lambda a: None) if saved is None else saved.append
    for kind, out, src, aux, _ in ctx.instrs:
        if kind is _MATMUL:
            vals[out] = ops.matmul_rows(vals[src], params[aux])
            keep(vals[src])
        elif kind is _LIF:
            u, i, _ = states[aux]
            vals[out], u_pre, u, i, s = ops.lif_scan_forward(vals[src], u, i, *lifs[aux][1])
            states[aux] = (u, i, s)
            keep(u_pre)
            del u_pre
        elif kind is _ADD:
            vals[out] = vals[src] + vals[aux]
        elif kind is _RESHAPE:
            vals[out] = vals[src].reshape((rows,) + aux[0])
        elif kind is _CONV:
            vals[out], planes = ops.conv2d_forward(vals[src], params[aux[0]], aux[1], aux[2])
            keep(planes)
            del planes
        else:
            vals[out] = np.zeros((rows,) + aux, dtype=ctx.graph.dtype)


def _add_grad(gr, slot, g):
    old = gr[slot]
    gr[slot] = g if old is None else old + g


def _backward(ctx, params, gr, saved, sg, acc, rg):
    """Walk one slab's program in reverse. gr holds each slot's gradient
    (None where none arrived) and receives the contributions, in the order a
    tape sums them. sg holds each LIF's (gU, gI, gS) from the next slab and
    is replaced by its (gU, gI, None) for the slab before. acc holds the
    running gradient sums of the differentiated parameters."""
    lifs = ctx.lifs
    for kind, out, src, aux, save in ctx.reversed:
        g = gr[out]
        if kind is _LIF:
            gu, gi, gs = sg[aux]
            u_pre = saved[save]
            # the final-state nodes of a tape run after the layer's consumers:
            # S_T's gradient lands on the last row, U_T's or I_T's hands the
            # scan a zero spike-train gradient so the sweep reaches it
            if gs is not None:
                full = np.zeros(u_pre.shape, dtype=np.result_type(gs, u_pre.dtype))
                full[-1] = gs
                g = full if g is None else g + full
            hand = gi if gi is not None else gu
            if hand is not None:
                zero = np.zeros(u_pre.shape, dtype=np.result_type(hand, u_pre.dtype))
                g = zero if g is None else g + zero
            if g is None:
                sg[aux] = (None, None, None)
                continue
            gx, gu, gi = ops.lif_scan_backward(u_pre, g, 0.0 if gu is None else gu,
                                               0.0 if gi is None else gi, *lifs[aux][1])
            sg[aux] = (gu, gi, None)
            if rg[src]:
                _add_grad(gr, src, gx)
        elif g is None:
            continue
        elif kind is _MATMUL:
            ga, gw = ops.matmul_backward(saved[save], params[aux], g, rg[src], aux in acc)
            if ga is not None:
                _add_grad(gr, src, ga)
            if gw is not None:
                _add_grad(acc, aux, gw)
        elif kind is _ADD:
            if rg[src]:
                _add_grad(gr, src, g)
            if rg[aux]:
                _add_grad(gr, aux, g)
        elif kind is _RESHAPE:
            if rg[src]:
                _add_grad(gr, src, g.reshape((g.shape[0],) + aux[1]))
        elif kind is _CONV:
            name, stride, padding, in_tail = aux
            dx, dk = ops.conv2d_backward(g, saved[save], params[name], (g.shape[0],) + in_tail,
                                         stride, padding, rg[src], name in acc)
            if dx is not None:
                _add_grad(gr, src, dx)
            if dk is not None:
                _add_grad(acc, name, dk)


def _slabs(ctx, params, xs, t0, t1, rows, states, prev, saved_slabs=None, traced=()):
    """The forward over rows [t0, t1) of xs, one slab of `rows` rows at a
    time, from states and prev (the prev slots' values at t0). Appends each
    slab's value of each traced (slot, slabs) pair and, with saved_slabs,
    each slab's saved arrays; returns the prev slots' values for row t1."""
    for t in range(t0, t1, rows):
        vals = [None] * ctx.n_slots
        vals[0] = xs[t : t + rows]
        for p, v in zip(ctx.prev_slots, prev):
            vals[p] = v
        saved = None if saved_slabs is None else []
        _forward(ctx, params, vals, states, saved)
        if saved is not None:
            saved_slabs.append(saved)
        prev = [vals[c] for c in ctx.prev_src]
        for slot, out in traced:
            out.append(vals[slot])
    return prev


class _Forward(NamedTuple):
    """A run's forward pass: the [T, ...] records by node id, each LIF's
    final (U, I, S), and what _reverse reads: the input xs, the rows per
    slab, the start (row, states, prev) of each segment but the newest,
    and the newest segment's saved arrays by slab (None when not kept)."""

    records: dict
    states: list
    xs: np.ndarray
    rows: int
    starts: list
    saved: list | None


def _forward_segments(ctx, params, x, rows, k, init, traced, keep):
    """The forward pass of a run over every row of x from the initial
    NeuronStates init, one slab of `rows` rows at a time, recording the
    node ids in traced. With keep, it splits the run into segments of k
    steps (one segment when k is None), keeps each segment's start and
    saves the newest segment's arrays; the vals of a slab are dropped once
    it is done."""
    xs = np.ascontiguousarray(x.data)
    states = [(st.U.data, st.I.data, st.S.data) for st in init]
    slabs = {nid: [] for nid in traced}
    out = [(ctx.cur[nid], slabs[nid]) for nid in traced]
    t_total = xs.shape[0]
    t_newest = (t_total - 1) // k * k if keep and k else 0
    prev = [np.zeros((1,) + tail, dtype=ctx.graph.dtype) for tail in ctx.prev_tails]
    starts = []
    for t0 in range(0, t_newest, k or 1):
        starts.append((t0, list(states), prev))
        prev = _slabs(ctx, params, xs, t0, t0 + k, rows, states, prev, None, out)
    saved = [] if keep else None
    _slabs(ctx, params, xs, t_newest, t_total, rows, states, prev, saved, out)
    records = {nid: s[0] if len(s) == 1 else np.concatenate(s) for nid, s in slabs.items()}
    return _Forward(records, states, xs, rows, starts, saved)


def _reverse(ctx, params, fwd, saved, seeds, sg, acc, rg):
    """BPTT over every slab of the forward pass fwd, the last first, from
    saved, the newest segment's saved arrays by slab. When the walk reaches
    a segment before the newest, it empties saved, freeing the later
    segment's arrays, and replays the segment from its start into it, so a
    caller that walks again passes a copy. seeds(t) gives slab t's seeded
    gradient list; sg and acc are _backward's and end as the gradients of
    each LIF's initial (U, I) and of the parameters. Returns each slab's
    input gradient (None where none arrived)."""
    xs, rows, starts = fwd.xs, fwd.rows, fwd.starts
    n = xs.shape[0] // rows
    x_grads = [None] * n
    first = n - len(saved)  # the first slab of the segment in saved
    earlier = reversed(starts)
    gr = seeds(n - 1)
    for t in range(n - 1, -1, -1):
        if t < first:
            t0, start_states, prev = next(earlier)
            saved.clear()
            _slabs(ctx, params, xs, t0, first * rows, rows, list(start_states), prev, saved)
            first = t0 // rows
        nxt = None
        if t > 0:
            # the delay-1 consumers at t add to the source's value at t-1
            # after its seed and before its consumers at t-1
            nxt = seeds(t - 1)
            for p, c in zip(ctx.prev_slots, ctx.prev_src):
                gr[p] = nxt[c]
        _backward(ctx, params, gr, saved[t - first], sg, acc, rg)
        x_grads[t] = gr[0]
        if nxt is not None:
            for p, c in zip(ctx.prev_slots, ctx.prev_src):
                nxt[c] = gr[p]
            gr = nxt
    return x_grads


def input_shape(graph):
    """The per-step input shape run expects: graph.input_shape when set,
    otherwise the shape of the input nodes."""
    if graph.input_shape is not None:
        return tuple(graph.input_shape)
    return graph.node(graph.input_nodes[0]).in_shape


def _open_run(graph, plan, input_spikes, init_states_map, params):
    """The run boundary (see the module docstring); a taped input must
    already have graph.dtype, since a cast would cut it off its tape.
    Returns the input as a Tensor, the rows per slab, the node program, its
    parameters from params as Tensors and each LIF's initial NeuronState."""
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
    k = plan.checkpoint_every
    if plan.scheduler == "layer_by_layer":
        if graph.has_delay_edges():
            raise PlanError(
                "layer_by_layer cannot execute graphs with delay-1 feedback edges; "
                "use step_by_step"
            )
        if k is not None:
            raise PlanError("checkpointing is implemented for the step_by_step scheduler")
    elif k is not None and k > x.shape[0]:
        raise ValidationError(f"checkpoint_every={k} exceeds T={x.shape[0]}")
    rows = x.shape[0] if plan.scheduler == "layer_by_layer" else 1
    ctx = _ExecContext(graph)
    tensors = ctx.param_arrays(params)
    return x, rows, ctx, tensors, [init_states_map[nid] for nid, _, _ in ctx.lifs]


def run(graph, plan, input_spikes, init_states_map, params=None, record_hidden=False):
    """Evaluate the graph over the input's T steps; returns (final states, record).

    params maps parameter names to Tensors (graph.params when None). When a
    parameter, the input or an initial U or I is on a tape, the run records
    one graph_run node and returns taped records and final states. With
    plan.checkpoint_every, a taped run keeps only each segment's start and
    the newest segment's saved arrays, and graph_run's backward replays the
    earlier segments; the gradients are the same as without it.
    """
    x, rows, ctx, tensors, init = _open_run(graph, plan, input_spikes, init_states_map,
                                            graph.params if params is None else params)
    pdata = {name: t.data for name, t in tensors.items()}
    tape = ops._tape_of(x, *tensors.values(), *[v for st in init for v in (st.U, st.I)])
    traced = ctx.order if record_hidden else graph.output_nodes
    fwd = _forward_segments(ctx, pdata, x, rows, plan.checkpoint_every, init, traced,
                            tape is not None)
    if tape is None:
        seq_t = {nid: Tensor(v) for nid, v in fwd.records.items()}
        final = {nid: NeuronState(U=Tensor(u), I=Tensor(i), S=Tensor(s))
                 for (nid, _, _), (u, i, s) in zip(ctx.lifs, fwd.states)}
    else:
        seq_t, final = _record_run(tape, ctx, pdata, tensors, x, init, fwd)
    out_states = dict(init_states_map)
    out_states.update(final)
    record = SpikeRecord(
        outputs={nid: seq_t[nid] for nid in graph.output_nodes},
        hidden={nid: seq_t[nid] for nid in traced} if record_hidden else None,
        steps=x.shape[0],
    )
    return out_states, record


def _record_run(tape, ctx, pdata, tensors, x, init, fwd):
    """Record the graph_run node of a taped run and one output node per
    record and per final U, I and S of a LIF layer that a gradient can
    reach; returns (records, final states) as Tensors."""
    taped_params = {name for name, t in tensors.items() if t.tape is tape}
    taped_lifs = {k for k, st in enumerate(init) if st.U.tape is tape or st.I.tape is tape}
    rg = ctx.requires_grad(x.tape is tape, taped_params, taped_lifs)
    leaves = [(("param", name), tensors[name]) for name in sorted(taped_params)]
    leaves += [(("x", None), x)] + [((part, k), t) for k, st in enumerate(init)
                                    for part, t in (("U", st.U), ("I", st.I))]
    leaves = [(key, t) for key, t in leaves if t.tape is tape]
    arrived = {}  # output key -> its gradient, until graph_run's backward reads it
    bwd = _run_backward(ctx, pdata, fwd, rg, [key for key, _ in leaves], arrived)
    run_id = tape.record("graph_run", [t.node_id for _, t in leaves], bwd, (), ctx.graph.dtype)

    def output(key, data):
        t = Tensor(data)
        t.tape = tape
        t.node_id = tape.record("graph_run_out", [run_id], _hand_over(arrived, key),
                                data.shape, data.dtype)
        return t

    seq_t = {nid: output(("rec", nid), v) if rg[ctx.cur[nid]] else Tensor(v)
             for nid, v in fwd.records.items()}
    final = {}
    for k, ((nid, _, slot), (u, i, s)) in enumerate(zip(ctx.lifs, fwd.states)):
        if rg[slot]:
            final[nid] = NeuronState(U=output(("U", k), u), I=output(("I", k), i),
                                     S=output(("S", k), s))
        else:
            final[nid] = NeuronState(U=Tensor(u), I=Tensor(i), S=Tensor(s))
    return seq_t, final


def _hand_over(arrived, key):
    # The first output node the sweep reaches hands graph_run a zero
    # gradient, so the sweep reaches graph_run; the others add nothing.
    def bwd(g):
        first = not arrived
        arrived[key] = g
        return [np.zeros((), dtype=g.dtype) if first else None]

    return bwd


def _run_backward(ctx, pdata, fwd, rg, keys, arrived):
    """graph_run's backward. It holds arrays, the program and plain values,
    never a Tensor, so a dropped tape is freed by reference counting. It
    walks a copy of fwd.saved, so it can run twice."""
    traced, rows = list(fwd.records), fwd.rows

    def bwd(_):
        got = dict(arrived)
        arrived.clear()
        recs = [(ctx.cur[nid], got[("rec", nid)]) for nid in reversed(traced)
                if ("rec", nid) in got]  # a tape sums the records' seeds in reverse

        def seeds(t):
            gr = [None] * ctx.n_slots
            for slot, g in recs:
                _add_grad(gr, slot, g[t * rows : (t + 1) * rows])
            return gr

        acc = {name: None for kind, name in keys if kind == "param"}
        sg = [(got.get(("U", k)), got.get(("I", k)), got.get(("S", k)))
              for k in range(len(ctx.lifs))]
        x_grads = _reverse(ctx, pdata, fwd, list(fwd.saved), seeds, sg, acc, rg)
        out = []
        for kind, key in keys:
            if kind == "param":
                out.append(acc[key])
            elif kind == "x":
                out.append(_input_grad(x_grads, fwd.xs.shape))
            else:
                out.append(sg[key][0 if kind == "U" else 1])
        return out

    return bwd


def _input_grad(x_grads, x_shape):
    """The input's gradient from each slab's. A one-slab run passes its own.
    step_by_step slices one row per step, and a tape sums one full-size
    array per reached step, zero outside its row: each row is its gradient
    plus +0 once two or more steps were reached."""
    if len(x_grads) == 1:
        return x_grads[0]
    reached = [(t, g) for t, g in enumerate(x_grads) if g is not None]
    if not reached:
        return None
    full = np.zeros(x_shape, dtype=reached[0][1].dtype)
    for t, g in reached:
        full[t : t + 1] = g
    if len(reached) > 1:
        full += 0.0
    return full


def run_with_checkpointing(graph, plan, input_spikes, init_states_map, loss_head):
    """Segmented-recompute BPTT with no tape.

    The forward keeps only each segment's start (states and delay-1 values)
    every checkpoint_every steps and the newest segment's saved arrays; the
    reverse walk replays each earlier segment from its start when it
    reaches it, after freeing the later segment's arrays, so one segment's
    arrays are alive at a time. The result is bit-identical to a full-tape
    run.

    Returns (loss, gradients by parameter name, stats dict). The stats hold
    the segment count, the boundary arrays kept, peak_saved_bytes (the
    largest segment's saved arrays), the summed output logits, and
    peak_tape_nodes, which is 0.
    """
    if plan.checkpoint_every is None:
        raise ValidationError("run_with_checkpointing requires plan.checkpoint_every")
    if len(graph.output_nodes) != 1:
        raise ValidationError("checkpointed loss heads support exactly one output node")
    return _loss_and_grad(graph, plan, input_spikes, init_states_map, loss_head)


def _loss_and_grad(graph, plan, input_spikes, init_states_map, loss_head):
    """loss_head's loss on the summed record of the first output node and
    its gradients by parameter name, with no tape: _forward_segments, then
    _reverse from the loss head's logit gradient. Returns what
    run_with_checkpointing returns; without checkpoint_every the run is one
    segment."""
    x, rows, ctx, tensors, init = _open_run(graph, plan, input_spikes, init_states_map,
                                            graph.params)
    params = {name: t.data for name, t in tensors.items()}
    out = graph.output_nodes[0]
    k = plan.checkpoint_every
    fwd = _forward_segments(ctx, params, x, rows, k, init, [out], True)
    logits = np.sum(fwd.records[out], axis=0)
    loss, dlogits = loss_head.loss_and_logit_grad(logits)
    seed = np.broadcast_to(dlogits, (rows,) + dlogits.shape).copy()

    def seeds(t):
        gr = [None] * ctx.n_slots
        gr[ctx.cur[out]] = seed
        return gr

    # every slab saves arrays of the same shapes; the longest segment peaks
    slab_bytes = sum({id(a): a.nbytes for a in fwd.saved[0]}.values())
    peak_saved_bytes = slab_bytes * (k if fwd.starts else len(fwd.saved))
    acc = {name: None for name in sorted(params)}
    # the walk frees the newest segment's arrays before its first replay
    _reverse(ctx, params, fwd, fwd.saved, seeds, [(None, None, None)] * len(ctx.lifs), acc,
             ctx.requires_grad(False, set(params), set()))
    grads = {name: np.zeros_like(params[name]) if g is None else g for name, g in acc.items()}
    segments = len(fwd.starts) + 1
    stats = {
        "segments": segments,
        "peak_tape_nodes": 0,
        "peak_saved_bytes": peak_saved_bytes,
        "boundary_tensor_count": segments * (3 * len(ctx.lifs) + len(ctx.delay1_sources)),
        "logits": logits,
    }
    return loss, grads, stats


def write_trace(record, path):
    """Dump per-step spike rasters as CSV rows t,node_id,neuron_idx,spike.

    Each row is joined from arrays of strings: every distinct value (by bit
    pattern, so -0 keeps its sign) is formatted once, as f"{v:.6g}" formats
    it, and placed after the row's t, node id and neuron index.
    """
    traces = record.hidden if record.hidden is not None else record.outputs
    with open(path, "w") as f:
        f.write("t,node_id,neuron_idx,spike\n")
        for nid in sorted(traces):
            data = np.ascontiguousarray(traces[nid].data.reshape(record.steps, -1))
            bits, inverse = np.unique(data.view(f"u{data.itemsize}").ravel(),
                                      return_inverse=True)
            labels = np.array([f"{v:.6g}\n" for v in bits.view(data.dtype)])
            inverse = inverse.reshape(data.shape)
            neurons = np.char.add(np.arange(data.shape[1]).astype(str), ",")
            for t in range(record.steps):
                cells = np.char.add(np.char.add(f"{t},{nid},", neurons), labels[inverse[t]])
                f.write("".join(cells.tolist()))
