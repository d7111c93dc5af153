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

A run whose parameters, input or initial states are on a tape records one
graph_run node, plus one output node per [T, ...] record and per final U, I
and S. The forward saves what the reverse walk reads: each LIF's U_pre,
each matmul's input and each conv's zero-padded input, split into its flat
phase planes (ops.conv2d_forward). The node's backward walks the slabs in
reverse and, within a slab, the program in reverse. It sums every gradient
in the order a tape with one node per op sums it: a value's loss seed first,
then its consumers at t+1 through delay-1 edges, then its consumers at t in
reverse program order, then the +0 a LIF's final-state gradient hands over;
parameter gradients are summed in reverse time.

run and run_with_checkpointing share one input boundary: the input must be a
finite [T, *input_shape(graph)] array, and an untaped one is cast to
graph.dtype, so a graph computes in its own precision end to end.

run_with_checkpointing builds no tape. Its forward keeps only the states at
every checkpoint_every steps; its backward replays each earlier segment from
those arrays into a buffer of saved arrays and walks it back, continuing the
parameter-gradient sums, so results are bit-identical to full BPTT. The
newest segment is kept from the forward pass and not replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ops
from .neurons import NeuronState, init_state
from .neurons import lif_step  # noqa: F401  unused here; perfbench/tracing.py wraps it by name
from .tensor import ShapeError, Tensor, ValidationError
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
        k = self.checkpoint_every
        if k is not None and not (isinstance(k, int) and not isinstance(k, bool) and k >= 1):
            raise ValidationError(f"checkpoint_every must be a positive int, got {k!r}")


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


def _walk(ctx, params, saved_steps, t0, seeds, gr, sg, acc, rg, x_grads=None):
    """Walk slabs t0 + len(saved_steps) - 1 down to t0 in reverse. seeds(t)
    gives slab t's seeded gradient list; gr is the last slab's, with any
    gradient from later slabs added. Returns slab t0's list: its prev slots
    hold what the delay-1 edges send to the slab before t0. With x_grads,
    stores each slab's input gradient there."""
    for t in range(t0 + len(saved_steps) - 1, t0 - 1, -1):
        nxt = None
        if t > t0:
            # the delay-1 consumers at t add to the source's value at t-1
            # after its seed and before its consumers at t-1
            nxt = seeds(t - 1)
            for p, c in zip(ctx.prev_slots, ctx.prev_src):
                gr[p] = nxt[c]
        _backward(ctx, params, gr, saved_steps[t - t0], sg, acc, rg)
        if x_grads is not None:
            x_grads[t] = gr[0]
        if nxt is not None:
            for p, c in zip(ctx.prev_slots, ctx.prev_src):
                nxt[c] = gr[p]
            gr = nxt
    return gr


def _steps(ctx, params, xs, t0, t1, states, prev, saved_steps=None, traced=()):
    """step_by_step forward over steps [t0, t1) from states and prev (the
    prev slots' values at t0). Appends each traced (slot, rows) pair's row
    and, with saved_steps, each step's saved arrays; returns the prev slots'
    values for step t1."""
    for t in range(t0, t1):
        vals = [None] * ctx.n_slots
        vals[0] = xs[t : t + 1].copy()
        for p, v in zip(ctx.prev_slots, prev):
            vals[p] = v
        saved = None if saved_steps is None else []
        _forward(ctx, params, vals, states, saved)
        if saved is not None:
            saved_steps.append(saved)
        prev = [vals[c] for c in ctx.prev_src]
        for slot, rows in traced:
            rows.append(vals[slot][0])
    return prev


def _zero_prev(ctx):
    return [np.zeros((1,) + tail, dtype=ctx.graph.dtype) for tail in ctx.prev_tails]


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
    """Evaluate the graph over the input's T steps; returns (final states, record).

    params maps parameter names to Tensors (graph.params when None). When a
    parameter, the input or an initial U or I is on a tape, the run records
    one graph_run node and returns taped records and final states.
    """
    x = _check_run_args(graph, input_spikes, init_states_map)
    if plan.scheduler == "layer_by_layer" and graph.has_delay_edges():
        raise PlanError(
            "layer_by_layer cannot execute graphs with delay-1 feedback edges; "
            "use step_by_step"
        )
    ctx = _ExecContext(graph)
    tensors = ctx.param_arrays(graph.params if params is None else params)
    pdata = {name: t.data for name, t in tensors.items()}
    init = [init_states_map[nid] for nid, _, _ in ctx.lifs]
    tape = ops._tape_of(x, *tensors.values(), *[v for st in init for v in (st.U, st.I)])
    states = [(st.U.data, st.I.data, st.S.data) for st in init]
    traced = ctx.order if record_hidden else graph.output_nodes
    saved_steps = None if tape is None else []
    if plan.scheduler == "layer_by_layer":
        vals = [None] * ctx.n_slots
        vals[0] = x.data
        saved = None if tape is None else []
        _forward(ctx, pdata, vals, states, saved)
        if saved is not None:
            saved_steps.append(saved)
        seqs = {nid: vals[ctx.cur[nid]] for nid in traced}
    else:
        rows = {nid: [] for nid in traced}
        _steps(ctx, pdata, x.data, 0, x.shape[0], states, _zero_prev(ctx), saved_steps,
               [(ctx.cur[nid], rows[nid]) for nid in traced])
        seqs = {nid: np.stack(r) for nid, r in rows.items()}
    if tape is None:
        seq_t = {nid: Tensor(v) for nid, v in seqs.items()}
        final = {nid: NeuronState(U=Tensor(u), I=Tensor(i), S=Tensor(s))
                 for (nid, _, _), (u, i, s) in zip(ctx.lifs, states)}
    else:
        seq_t, final = _record_run(tape, ctx, pdata, tensors, x, init, states, seqs,
                                   saved_steps)
    out_states = dict(init_states_map)
    out_states.update(final)
    record = SpikeRecord(
        outputs={nid: seq_t[nid] for nid in graph.output_nodes},
        hidden={nid: seq_t[nid] for nid in traced} if record_hidden else None,
        steps=x.shape[0],
    )
    return out_states, record


def _record_run(tape, ctx, pdata, tensors, x, init, states, seqs, saved_steps):
    """Record the graph_run node of a taped run and one output node per
    record and per final U, I and S of a LIF layer that a gradient can
    reach; returns (records, final states) as Tensors."""
    taped_params = {name for name, t in tensors.items() if t.tape is tape}
    taped_lifs = {k for k, st in enumerate(init) if st.U.tape is tape or st.I.tape is tape}
    rg = ctx.requires_grad(x.tape is tape, taped_params, taped_lifs)
    keys, ids = [], []
    for name in sorted(taped_params):
        keys.append(("param", name))
        ids.append(tensors[name].node_id)
    if x.tape is tape:
        keys.append(("x", None))
        ids.append(x.node_id)
    for k, st in enumerate(init):
        for part, t in (("U", st.U), ("I", st.I)):
            if t.tape is tape:
                keys.append((part, k))
                ids.append(t.node_id)
    arrived = {}  # output key -> its gradient, until graph_run's backward reads it
    bwd = _run_backward(ctx, pdata, saved_steps, rg, keys, arrived, x.shape, list(seqs))
    run_id = tape.record("graph_run", ids, bwd, (), ctx.graph.dtype)

    def output(key, data):
        t = Tensor(data)
        t.tape = tape
        t.node_id = tape.record("graph_run_out", [run_id], _hand_over(arrived, key),
                                data.shape, data.dtype)
        return t

    seq_t = {nid: output(("rec", nid), v) if rg[ctx.cur[nid]] else Tensor(v)
             for nid, v in seqs.items()}
    final = {}
    for k, ((nid, _, slot), (u, i, s)) in enumerate(zip(ctx.lifs, states)):
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


def _run_backward(ctx, pdata, saved_steps, rg, keys, arrived, x_shape, traced):
    """graph_run's backward. It holds arrays, the program and plain values,
    never a Tensor, so a dropped tape is freed by reference counting."""

    def bwd(_):
        got = dict(arrived)
        arrived.clear()
        rows = x_shape[0] // len(saved_steps)
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
        x_grads = [None] * len(saved_steps)
        _walk(ctx, pdata, saved_steps, 0, seeds, seeds(len(saved_steps) - 1), sg, acc, rg,
              x_grads)
        out = []
        for kind, key in keys:
            if kind == "param":
                out.append(acc[key])
            elif kind == "x":
                out.append(_input_grad(x_grads, x_shape))
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

    Forward keeps only the states at every checkpoint_every steps; backward
    replays each segment from them, saving what the reverse walk reads,
    seeds the walk with the gradients that arrived from later segments and
    continues the parameter-gradient sums, so the result is bit-identical to
    a full-tape run. The newest segment is saved during the forward pass
    already and not replayed.

    Returns (loss, gradients by parameter name, stats dict). The stats hold
    the segment count, the boundary arrays kept, peak_saved_bytes (the
    largest segment's saved arrays), the summed output logits, and
    peak_tape_nodes, which is 0.
    """
    x = _check_run_args(graph, input_spikes, init_states_map)
    t_total = x.shape[0]
    k = plan.checkpoint_every
    if k is None:
        raise ValidationError("run_with_checkpointing requires plan.checkpoint_every")
    if k > t_total:
        raise ValidationError(f"checkpoint_every={k} exceeds T={t_total}")
    if plan.scheduler != "step_by_step":
        raise PlanError("checkpointing is implemented for the step_by_step scheduler")
    if len(graph.output_nodes) != 1:
        raise ValidationError("checkpointed loss heads support exactly one output node")
    ctx = _ExecContext(graph)
    params = {name: t.data for name, t in ctx.param_arrays(graph.params).items()}
    xs = x.data
    out_slot = ctx.cur[graph.output_nodes[0]]
    out_rows = []
    traced = [(out_slot, out_rows)]

    # forward up to the newest segment keeps only boundary arrays and output
    # rows; the newest segment saves what its reverse walk reads
    t_newest = (t_total - 1) // k * k
    states = [(st.U.data, st.I.data, st.S.data)
              for st in (init_states_map[nid] for nid, _, _ in ctx.lifs)]
    prev = _zero_prev(ctx)
    boundaries = []  # (t_start, states, prev)
    for t0 in range(0, t_newest, k):
        boundaries.append((t0, list(states), prev))
        prev = _steps(ctx, params, xs, t0, t0 + k, states, prev, traced=traced)
    saved_steps = []
    _steps(ctx, params, xs, t_newest, t_total, states, prev, saved_steps, traced)

    logits = np.sum(np.stack(out_rows), axis=0)
    loss, dlogits = loss_head.loss_and_logit_grad(logits)
    dlogits = dlogits[None]  # each step's output is a [1, C] row

    def seeds(t):
        gr = [None] * ctx.n_slots
        gr[out_slot] = dlogits
        return gr

    rg = ctx.requires_grad(False, set(params), set(range(len(ctx.lifs))))
    acc = {name: None for name in sorted(params)}
    sg = [(None, None, None)] * len(ctx.lifs)
    gr = seeds(t_total - 1)
    t0 = t_newest
    # every step saves arrays of the same shapes; the longest segment peaks
    step_bytes = sum({id(a): a.nbytes for a in saved_steps[0]}.values())
    peak_bytes = step_bytes * (k if boundaries else t_total)
    while True:
        bottom = _walk(ctx, params, saved_steps, t0, seeds, gr, sg, acc, rg)
        saved_steps = None  # free this segment's arrays before the next replay
        # at a boundary, a sum that no gradient reached passes on zeros, as a
        # leaf of a per-segment tape would, and the earlier segment adds to them
        for name, g in acc.items():
            if g is None:
                acc[name] = np.zeros_like(params[name])
        if not boundaries:
            break
        t0, start_states, start_prev = boundaries.pop()
        sg = [(_or_zeros(gu, u), _or_zeros(gi, i), np.zeros_like(s))
              for (gu, gi, _), (u, i, s) in zip(sg, start_states)]
        gr = seeds(t0 + k - 1)
        for p, c, v in zip(ctx.prev_slots, ctx.prev_src, start_prev):
            _add_grad(gr, c, _or_zeros(bottom[p], v))
        saved_steps = []
        _steps(ctx, params, xs, t0, t0 + k, list(start_states), start_prev, saved_steps)

    n_state_tensors = 3 * len(ctx.lifs) + len(ctx.delay1_sources)
    segments = t_newest // k + 1
    stats = {
        "segments": segments,
        "peak_tape_nodes": 0,
        "peak_saved_bytes": peak_bytes,
        "boundary_tensor_count": segments * n_state_tensors,
        "logits": logits,
    }
    return loss, acc, stats


def _or_zeros(g, like):
    return np.zeros_like(like) if g is None else g


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
