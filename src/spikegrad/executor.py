"""Time-loop evaluation of a network graph.

_ExecContext compiles a graph once per run into a node program: a list of
instructions (matmul, conv, LIF scan, add, reshape, zeros) over numbered
value slots, in topological order. A value that an op would return
unchanged (an identity reshape, a merge of one input) keeps its input's
slot. _forward runs the program on plain ndarrays over a slab of rows
[rows, ...]; _backward walks it in reverse. Both call the ndarray kernels
of ops.py (lif_scan_forward/_backward, matmul_rows and matmul_backward,
conv2d_forward/_backward), which the taped ops.matmul and ops.conv2d wrap
too, so each formula exists once. neurons.lif_scan is a one-layer run.
The two schedulers compute the same discretized system and differ only in
loop order:

* layer_by_layer: one slab of all T steps, so each LIF layer is one
  scan. Only valid for graphs without delay-1 edges.
* step_by_step: delay-1 edges read the source's previous-step output
  (zeros at step 0), so arbitrary feedback is supported. Only what lies on
  a feedback cycle needs the previous step, so the program splits into
  three phases (_ExecContext._phases). pre, the longest run of
  instructions at the program's start that no cycle reaches, runs over all
  of a segment's rows at once; stepped, which holds every cycle, runs on a
  one-step slab per time step; post, the longest run at the program's end
  that reaches no cycle, runs over all of the segment's rows after the
  stepped loop. A delay-1 edge's source and readers stay stepped. A graph
  without a feedback cycle is stepped whole, one slab per step.

A run carries B samples of one shape along a sample axis: every slot holds
[steps * B, ...] rows, time-major (row t * B + s is step t of sample s),
and each LIF state is [B, ...]. The row kernels (one gemv per row in
matmul_rows, per-row tap products in conv2d_forward) see B times the rows
and compute each row's bytes as before; a LIF layer scans the slab's steps
over rows of B samples. What sums over the rows of a slab (the weight and
kernel gradients, g @ W.T) is taken per sample, with the operand
dimensions of a one-sample run, so every sample's results have the bytes
of its own run. run and run_with_checkpointing run one sample
(B = 1); training stacks equal-shape samples into micro-batches
(_loss_and_grad), B of them as its byte budget allows
(_ExecContext.sample_bytes).

One forward and one reverse walk serve every run. _forward_segments splits
the run into segments of checkpoint_every steps when it is differentiated
(one segment without it) and runs each segment phase by phase (_slabs):
the pre phase over the segment's rows, the stepped slabs, which read the
pre phase's values row by row, then the post phase over the segment's
rows, which reads the stepped slabs' values gathered into one array. It
keeps each segment's start (LIF states and delay-1 values) and saves, for
the newest segment only, what the reverse walk reads: each LIF's U_pre,
each matmul's input and each conv's zero-padded input, split into its flat
phase planes (ops.conv2d_forward), one list per phase slab. In a slab of
many rows, a value is dropped after its last reader. _reverse walks the
segments back and replays each earlier segment from its start when it
reaches it; within a segment (_reverse_segment) it walks the post phase
over all rows, the stepped slabs back to front, then the pre phase over
all rows in one pass, each phase's program in reverse; a stepped slab
that a delay-1 path has not yet reached hands the pre phase zero rows.
It drops each slot's gradient and each saved array once their
instruction's backward ran.

It sums every gradient but a step_by_step weight gradient in the order a
walk of one step at a time sums it: a value's loss seed first, then its
consumers at t+1 through delay-1 edges, then its consumers at t in
reverse program order. The phases keep that order because they are
contiguous in program order and post reads no delay-1 source: a value's
post consumers come last in the program, so their terms, taken over the
whole segment, go first after its seed, then the stepped consumers'
terms, row by row, then the pre ones. A phase slab of several steps is
stepwise (_backward): a matmul's input gradient is one gemv per row
(ops.matmul_rows), and a conv's kernel gradient is taken per row and
added step by step in reverse time. The kernels hand each parameter's
gradient over per sample, [B, ...], and the walk keeps each parameter's
running per-sample sum (_ParamGrads). A step_by_step walk takes a
matmul's weight gradient in blocks of _GRAD_BLOCK = 16 steps counted
from step 0: it keeps each step's input and output-gradient rows, turns
a block into one product per sample when it leaves the block, and adds
the blocks newest first; an open block's rows carry across segments and
replays. Each stepped LIF layer's surrogate factors are evaluated once
over a segment's rows (ops.lif_factors), and a LIF's final-state
gradients start its reverse scan as they are, on every path. So the
gradients' bytes, signed zeros included, depend neither on
checkpoint_every, nor on the phases, nor on the micro-batch size, and a
taped run has the bytes of the tape-free driver; a tape with one node
per op sums in other orders and agrees to rounding.

A run whose parameters, input or initial states are on a tape records one
graph_run node, whose backward is _reverse, plus one output node per
[T, ...] record and per final U, I and S. run_with_checkpointing and
training differentiate a loss head's loss with no tape (_loss_and_grad).
All of them share one boundary (_open_run): each input must be a finite
[T, *input_shape(graph)] array, and an untaped one is cast to graph.dtype.
Initial states and parameters must have their shapes and graph.dtype, and
the plan must suit the graph and T. graph_run_out casts the gradient the
tape hands it to graph.dtype, and _loss_and_grad a loss head's logit
gradient, so graph.dtype is the one precision inside a run.
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
    seed = _int_at_least("seed", seed, 0)
    states = {}
    for nid in graph.stateful_nodes():
        node = graph.node(nid)
        states[nid] = init_state(
            node.shape, mode=mode, rng_seed=seed * 1000003 + nid, dtype=graph.dtype
        )
    return states


_ADD, _RESHAPE, _ZEROS, _MATMUL, _CONV, _LIF = "add", "reshape", "zeros", "matmul", "conv", "lif"
_DROP = "drop"


class _Instr(NamedTuple):
    """One instruction of the node program. aux is, by kind: add, the right
    operand's slot; reshape, (new tail, old tail); zeros, the tail; matmul,
    the weight's name; conv, (kernel name, stride, padding, input tail);
    lif, the layer's index in _ExecContext.lifs; drop, the slots whose
    values it drops (_ExecContext.programs)."""

    kind: str
    out: int  # slot written
    src: int  # slot read (add: the left operand)
    aux: object
    save: int  # index of the array the forward saves for _backward in its phase's slab, or -1


def _reads(instr):
    """The slots an instruction reads."""
    kind, _, src, aux, _ = instr
    if kind is _ZEROS:
        return ()
    return (src, aux) if kind is _ADD else (src,)


class _ExecContext:
    """The node program of one graph, built once per run.

    Slot 0 is the input slab. Each delay-1 edge reads a prev slot, which
    holds the previous step's value of its source's slot: prev_slots[j]
    carries prev_src[j]. lifs lists (node id, lif_args, output slot) per LIF
    layer, in program order; cur maps each node id to its output slot.

    The program splits into three phases (_phases): pre, the instructions a
    segment runs over all its rows before its stepped loop; stepped, run
    slab by slab; post, run over all its rows after the loop.
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
        self.n_slots, self.saved_sizes = 1, []
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
        # the instruction after which each slot is read no more
        self.last_read = {}
        for n, instr in enumerate(self.instrs):
            for slot in _reads(instr):
                self.last_read[slot] = n
        a, b = self.split = self._phases()
        # each phase numbers the arrays it saves from 0, in instruction order
        for lo, hi in ((a, b), (b, len(self.instrs))):
            first = next((i.save for i in self.instrs[lo:hi] if i.save >= 0), 0)
            if first:
                self.instrs[lo:hi] = [i._replace(save=i.save - first) if i.save >= 0 else i
                                      for i in self.instrs[lo:hi]]
        pre, stepped, post = self.instrs[:a], self.instrs[a:b], self.instrs[b:]
        self.reversed = (pre[::-1], stepped[::-1], post[::-1])
        written = {i.out for i in pre} | {0}
        stepped_reads = {slot for i in stepped for slot in _reads(i)}
        # the segment values the stepped loop reads row by row, and the slots
        # whose gradients it hands to the pre phase
        self.handoff = sorted(written & stepped_reads) if pre else []
        self.stepped_out = {i.out for i in stepped}
        self.gathered = sorted(self.stepped_out & {slot for i in post for slot in _reads(i)})

    def _phases(self):
        """(a, b): the program's first a instructions form the pre phase, its
        instructions from b on the post phase, and the ones between are
        stepped. Without a feedback cycle every instruction is stepped.
        Otherwise the core is every instruction on a cycle (which goes
        through a delay-1 edge) plus each delay-1 edge's source and readers;
        pre is the longest run of instructions at the program's start that
        no core instruction reaches, post the longest run at its end that
        reaches no core instruction and reads no delay-1 source. Keeping the
        phases contiguous in program order keeps every slot's gradient
        terms in the order the reverse walk sums them (see the module
        docstring)."""
        n = len(self.instrs)
        if not self.prev_src:  # every cycle goes through a delay-1 edge
            return 0, n
        writer = {i.out: k for k, i in enumerate(self.instrs)}
        carried = dict(zip(self.prev_slots, self.prev_src))
        succ = [set() for _ in range(n)]
        core = set()
        for k, instr in enumerate(self.instrs):
            for slot in _reads(instr):
                if slot in carried:
                    core.add(k)
                    slot = carried[slot]
                    if slot in writer:
                        core.add(writer[slot])
                if slot in writer:
                    succ[writer[slot]].add(k)

        def reach(k):  # the instructions reachable from k by one edge or more
            seen, todo = set(), list(succ[k])
            while todo:
                j = todo.pop()
                if j not in seen:
                    seen.add(j)
                    todo.extend(succ[j])
            return seen

        reaches = [reach(k) for k in range(n)]
        if not any(k in reaches[k] for k in range(n)):
            return 0, n
        core |= {k for k in range(n) if k in reaches[k]}
        downstream = core.union(*(reaches[k] for k in core))
        a = min(downstream)
        b = 1 + max(k for k in range(n) if k in core or reaches[k] & core)
        sources = set(self.prev_src)
        for k in range(b, n):
            if sources.intersection(_reads(self.instrs[k])):
                b = k + 1
        return a, b

    def _emit(self, kind, src, aux, saves=0):
        """Appends an instruction; saves is the size, per step and sample, of
        the array it saves for _backward (0 for none)."""
        self.instrs.append(_Instr(kind, self.n_slots, src, aux,
                                  len(self.saved_sizes) if saves else -1))
        if saves:
            self.saved_sizes.append(saves)
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
                v = self._emit(_MATMUL, v, proj, saves=math.prod(src_shape))
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
            out = self._emit(_LIF, merged, len(self.lifs), saves=math.prod(node.shape))
            self.lifs.append((node.id, args, out))
        elif node.kind == "conv":
            ops.validate_conv_args(node.stride, node.padding)
            self.param_shapes[graph.param_name(node.id)] = (
                node.out_channels, node.in_channels, node.kernel, node.kernel)
            aux = (graph.param_name(node.id), node.stride, node.padding, node.in_shape)
            c, h, w = node.in_shape
            plane = ops._plane_layout(h, w, node.kernel, node.stride, node.padding)[4]
            out = self._emit(_CONV, merged, aux, saves=c * node.stride**2 * plane)
        elif node.kind == "linear":
            self.param_shapes[graph.param_name(node.id)] = (node.in_features, node.out_features)
            flat = self._reshape(merged, node.in_shape, (node.in_features,))
            out = self._emit(_MATMUL, flat, graph.param_name(node.id), saves=node.in_features)
        else:
            out = self._reshape(merged, node.in_shape, node.out_shape)
            if out < 0:  # a flatten of a delayed value alone gets a slot of its own
                out = self._emit(_RESHAPE, out, (node.out_shape, node.out_shape))
        self.cur[node.id] = out

    def param_arrays(self, params):
        """The program's parameters from params (name -> Tensor or array) as
        Tensors, each checked against the shape and dtype the graph gives it."""
        out = {}
        for name in sorted(self.param_shapes):
            if name not in params:
                raise ValidationError(f"missing parameter {name!r}")
            t = ops._as_tensor(params[name])
            if t.shape != self.param_shapes[name]:
                raise ShapeError(f"parameter {name} has shape {t.shape}, the graph needs "
                                 f"{self.param_shapes[name]}")
            if t.dtype != self.graph.dtype:
                raise ValidationError(f"parameter {name} has dtype {t.dtype}, the graph "
                                      f"computes in {self.graph.dtype}")
            out[name] = t
        return out

    def programs(self, many, keep):
        """The pre, stepped and post programs. In a phase that runs over many
        rows, each instruction is followed by a drop of the slots it reads
        last, except the slots in keep, which are read after the segment;
        the stepped phase runs over many rows when a slab has `many` steps."""
        a, b = self.split
        out = ([], [], [])
        for n, instr in enumerate(self.instrs):
            phase = out[(n >= a) + (n >= b)]
            phase.append(instr)
            slots = [slot for slot, last in self.last_read.items()
                     if last == n and slot not in keep]
            if slots and (many or phase is not out[1]):
                phase.append(_Instr(_DROP, -1, -1, slots, -1))
        return out

    def sample_bytes(self, steps, rows, k):
        """The bytes per sample that a tape-free run of `steps` steps, `rows`
        a slab and segments of k steps keeps for its reverse walk: the saved
        arrays of its longest segment, plus its per-sample parameter
        gradients (_ParamGrads). A run of one-step slabs also keeps, per
        matmul, _GRAD_BLOCK steps of its input and output-gradient rows for
        its weight gradient (_ParamGrads.add_rows)."""
        grads = sum(math.prod(shape) for shape in self.param_shapes.values())
        if rows == 1:
            grads += _GRAD_BLOCK * sum(sum(self.param_shapes[i.aux]) for i in self.instrs
                                       if i.kind is _MATMUL)
        kept_steps = steps if k is None else min(k, steps)
        return (sum(self.saved_sizes) * kept_steps + grads) * np.dtype(self.graph.dtype).itemsize

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


def _forward(ctx, params, program, vals, states, saved):
    """Run program (a phase of ctx.programs) on one slab of B samples' rows,
    time-major (row t * B + s). vals holds the input slab in slot 0 and the
    delay-1 values in the prev slots and receives every other value.
    states holds each LIF's (U, I, S), [B, ...], and is advanced. With a
    saved list, appends the arrays _backward reads, in instruction order."""
    rows = vals[0].shape[0]
    lifs = ctx.lifs
    # an untaped run drops U_pre and the conv phase planes at once, as the ops did
    keep = (lambda a: None) if saved is None else saved.append
    for kind, out, src, aux, _ in program:
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
        elif kind is _ZEROS:
            vals[out] = np.zeros((rows,) + aux, dtype=ctx.graph.dtype)
        else:
            for slot in aux:
                vals[slot] = None


def _add_grad(gr, slot, g):
    old = gr[slot]
    gr[slot] = g if old is None else old + g


def _fold(total, acc, params):
    """Adds each sample's gradient of each parameter, from a walk's
    per-sample sums (acc, a _ParamGrads), to total (name -> sum) in sample
    order; a parameter no gradient reached adds zeros. The first becomes
    the total, copied when the walk ran several samples, so that the total
    holds on to none of their [samples, ...] sums, and the later ones are
    added in place, which gives the bytes of a loop that sums the samples'
    arrays."""
    for name, sums in acc.sums.items():
        for g in [None] * acc.samples if sums is None else sums:
            g = np.zeros_like(params[name]) if g is None else g
            if total.get(name) is None:
                total[name] = g if acc.samples == 1 else g.copy()
            else:
                total[name] += g


# a step_by_step weight gradient of a matmul is one product per sample for
# each block of this many steps, counted from step 0 (_ParamGrads.add_rows)
_GRAD_BLOCK = 16


class _ParamGrads:
    """The gradients of the differentiated parameters (names) in a run of
    `samples` samples: sums holds each one's running per-sample sum,
    [samples, ...] (None until a term arrives), to which add adds the
    terms the walk hands over, in the order it hands them.

    A walk of one-step slabs (step_by_step) hands over a matmul's weight
    gradient as rows (add_rows): each step's input row and output-gradient
    row. They are kept per block of _GRAD_BLOCK steps, [16j, 16j + 16), and
    when the walk leaves a block (or at finish) the block becomes one
    product per sample, np.matmul of contiguous copies [samples, n, K] @
    [samples, K, m] over its K steps that got a gradient, in time order.
    The products are added newest block first. An open block's rows carry
    across segments and replays, so the bytes depend neither on
    checkpoint_every, nor on the phases, nor on the samples per run.

    Every term handed to add is the walk's own array, or a view of one: the
    first becomes the running sum (a view is copied, so that the sum holds
    on to nothing larger) and the later ones are added to it in place (old
    + g and g + old have the same bytes)."""

    def __init__(self, names, samples):
        self.sums = dict.fromkeys(names)
        self.samples = samples
        self.blocks = {}  # name -> [open block, rows kept, input rows, gradient rows]

    def add(self, name, per_sample):
        if self.sums[name] is None:
            self.sums[name] = per_sample if per_sample.base is None else per_sample.copy()
        else:
            self.sums[name] += per_sample

    def add_rows(self, name, t1, a, g):
        """Keeps the rows of steps [t1 - steps, t1) of a matmul's input a
        and output gradient g, [steps * samples, ...] each, in their
        blocks, newest first; a block is closed when a step before it
        arrives."""
        per = self.samples
        held = self.blocks.get(name)
        if held is None:
            held = self.blocks[name] = [None, 0, np.empty((_GRAD_BLOCK * per, a.shape[1]), a.dtype),
                                        np.empty((_GRAD_BLOCK * per, g.shape[1]), g.dtype)]
        t0 = t1 - len(a) // per
        while t1 > t0:
            block = (t1 - 1) // _GRAD_BLOCK
            if held[0] != block:
                self._close(name)
                held[0] = block
            lo = max(t0, block * _GRAD_BLOCK)
            # a block's rows fill its buffers from the end, so they end in time order
            end, n = (_GRAD_BLOCK - held[1]) * per, (t1 - lo) * per
            rows = slice((lo - t0) * per, (t1 - t0) * per)
            held[2][end - n : end] = a[rows]
            held[3][end - n : end] = g[rows]
            held[1] += t1 - lo
            t1 = lo

    def _close(self, name):
        held = self.blocks[name]
        kept = held[1]
        if kept:
            a, g = (rows[-kept * self.samples :].reshape(kept, self.samples, -1)
                    for rows in held[2:])
            held[1] = 0
            self.add(name, np.matmul(np.ascontiguousarray(a.transpose(1, 2, 0)),
                                     np.ascontiguousarray(g.transpose(1, 0, 2))))

    def finish(self):
        """Closes every open block, once the walk is done."""
        for name in self.blocks:
            self._close(name)
        self.blocks.clear()


def _backward(ctx, params, gr, saved, sg, acc, rg, instrs, t1=None):
    """Walk one slab's instrs (a phase of ctx.reversed) in reverse program
    order. gr holds each slot's gradient (None where none arrived) and
    receives the contributions, in the order the module docstring gives.
    Only its own instruction reads a slot's gradient and a saved array, so
    both are dropped once that instruction's backward ran. sg holds each
    LIF's (gU, gI, gS) from the next slab, [B, ...] each, and is replaced
    by its (gU, gI, None) for the slab before. acc, a _ParamGrads, receives
    the differentiated parameters' per-sample gradients.

    In a step_by_step walk, t1 is the step after the slab's last, and the
    slab is stepwise: a matmul's input gradient is one gemv per row, and it
    hands acc its weight gradient's rows (_ParamGrads.add_rows); a conv
    hands acc its kernel gradient's per-step terms, newest first."""
    lifs = ctx.lifs
    stepwise = t1 is not None
    for kind, out, src, aux, save in instrs:
        g = gr[out]
        gr[out] = None
        dx = dp = None  # the input's and the parameter's gradient
        if kind is _LIF:
            dx = _lif_backward(saved[save], g, sg, aux, lifs[aux][1], acc.samples)
        elif g is None:
            pass
        elif kind is _MATMUL and stepwise:
            if rg[src]:
                dx = ops.matmul_rows(g, params[aux].T)
            if aux in acc.sums:
                acc.add_rows(aux, t1, saved[save], g)
        elif kind is _MATMUL:
            dx, dp = ops.matmul_backward(saved[save], params[aux], g, rg[src], aux in acc.sums,
                                         acc.samples)
        elif kind is _ADD:
            if rg[src]:
                _add_grad(gr, src, g)
            if rg[aux]:
                _add_grad(gr, aux, g)
        elif kind is _RESHAPE:
            dx = g.reshape((g.shape[0],) + aux[1])
        elif kind is _CONV:
            name, stride, padding, in_tail = aux
            rows = g.shape[0]
            dx, dp = ops.conv2d_backward(g, saved[save], params[name], (rows,) + in_tail,
                                         stride, padding, rg[src], name in acc.sums,
                                         rows if stepwise else acc.samples)
            if stepwise and dp is not None:
                for step in dp.reshape((-1, acc.samples) + dp.shape[1:])[::-1]:
                    acc.add(name, step)
                dp = None
        if dx is not None and rg[src]:
            _add_grad(gr, src, dx)
        if dp is not None:
            acc.add(aux if kind is _MATMUL else aux[0], dp)
        if save >= 0:
            saved[save] = None


def _lif_backward(saved, g, sg, k, args, samples):
    """LIF layer k's backward from what its forward saved, its U_pre, and
    its output's gradient g (None where none arrived), [steps * samples,
    ...] each; replaces sg[k] and returns the input's gradient, or None. In
    a one-step slab of the stepped phase, saved is the step's rows of the
    surrogate factors (sg, a) that _reverse_segment evaluated over the
    segment (ops.lif_factors). A gradient on S_T, which only the slab of
    the run's last step receives, adds to that step's rows of g; one on U_T
    or I_T alone starts the scan from a zero g."""
    factors = isinstance(saved, tuple)
    u_pre = saved[0] if factors else saved  # or an array of its shape and dtype
    gu, gi, gs = sg[k]
    if gs is not None:
        g = np.zeros_like(u_pre) if g is None else g.copy()
        g[-samples:] += gs
    elif g is None and (gu is not None or gi is not None):
        g = np.zeros_like(u_pre)
    if g is None:
        sg[k] = (None, None, None)
        return None
    gu = 0.0 if gu is None else gu
    gi = 0.0 if gi is None else gi
    if factors:
        gx, gu, gi = ops.lif_step_backward(*saved, g, gu, gi, *args[:2])
    else:
        gx, gu, gi = ops.lif_scan_backward(u_pre, g, gu, gi, *args, samples=samples)
    sg[k] = (gu, gi, None)
    return gx


def _slabs(ctx, params, programs, xs, t0, t1, rows, states, prev, saved_slabs=None, traced=()):
    """The forward over the segment of rows [t0, t1) of xs, from states and
    prev (the prev slots' values at t0): the pre program over all of its
    rows, the stepped program on one slab of `rows` rows at a time, then
    the post program over all of its rows. The stepped slabs read the pre
    phase's values row by row, and the post phase reads the stepped slabs'
    values gathered into one array. Appends the segment's value of each
    traced (slot, segments) pair and, with saved_slabs, the pre phase's
    saved arrays (if it has instructions), each stepped slab's and the post
    phase's (if it has instructions); returns the prev slots' values for
    row t1."""
    pre, stepped, post = programs

    def slab(program, vals):
        saved = None if saved_slabs is None else []
        _forward(ctx, params, program, vals, states, saved)
        if saved is not None:
            saved_slabs.append(saved)

    seg = [None] * ctx.n_slots
    seg[0] = xs[t0:t1]
    if pre:
        slab(pre, seg)
    gather = {slot: [] for slot in ctx.gathered}
    gather.update((slot, []) for slot, _ in traced if slot in ctx.stepped_out)
    reads = [slot for slot in ctx.handoff if slot != 0]
    for t in range(t0, t1, rows):
        vals = [None] * ctx.n_slots
        vals[0] = xs[t : t + rows]
        for slot in reads:
            vals[slot] = seg[slot][t - t0 : t - t0 + rows]
        for p, v in zip(ctx.prev_slots, prev):
            vals[p] = v
        slab(stepped, vals)
        prev = [vals[c] for c in ctx.prev_src]
        for slot, pieces in gather.items():
            pieces.append(vals[slot])
    for slot, pieces in gather.items():
        seg[slot] = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    if post:
        slab(post, seg)
    for slot, out in traced:
        out.append(seg[slot])
    return prev


class _Forward(NamedTuple):
    """A run's forward pass over B samples, whose rows are time-major (row
    t * B + s): the records [T * B, ...] by node id, each LIF's final (U,
    I, S), [B, ...] each, and what _reverse reads: the input xs [T * B,
    ...], the rows per slab, the start (row, states, prev) of each segment
    but the newest, the newest segment's first row, its saved arrays by
    slab, as _slabs lays them out (None when not kept), and the programs
    the forward ran."""

    records: dict
    states: list
    xs: np.ndarray
    rows: int
    starts: list
    newest: int
    saved: list | None
    programs: tuple


def _forward_segments(ctx, params, xs, samples, steps, k, init, traced, keep):
    """The forward pass of a run of `samples` samples over every row of xs
    [T * samples, ...], from each LIF's initial (U, I, S) in init,
    [samples, ...] each, `steps` steps a slab, recording the node ids in
    traced. With keep, it splits the run into segments of k steps (one
    segment when k is None), keeps each segment's start and saves the newest
    segment's arrays. A phase that runs over many rows drops a value after
    the last instruction that reads it, unless it is the input, traced or a
    delay-1 source; a stepped slab of one step drops its values when it is
    done."""
    states = list(init)
    segments = {nid: [] for nid in traced}
    out = [(ctx.cur[nid], segments[nid]) for nid in traced]
    programs = ctx.programs(steps > 1, {0, *ctx.prev_src} | {slot for slot, _ in out})
    rows, t_total = steps * samples, xs.shape[0]
    seg = k * samples if keep and k else None
    t_newest = (t_total // samples - 1) // k * seg if seg else 0
    prev = [np.zeros((samples,) + tail, dtype=ctx.graph.dtype) for tail in ctx.prev_tails]
    starts = []
    for t0 in range(0, t_newest, seg or 1):
        starts.append((t0, list(states), prev))
        prev = _slabs(ctx, params, programs, xs, t0, t0 + seg, rows, states, prev, None, out)
    saved = [] if keep else None
    _slabs(ctx, params, programs, xs, t_newest, t_total, rows, states, prev, saved, out)
    records = {nid: s[0] if len(s) == 1 else np.concatenate(s) for nid, s in segments.items()}
    return _Forward(records, states, xs, rows, starts, t_newest, saved, programs)


def _reverse(ctx, params, fwd, saved, seeds, sg, acc, rg):
    """BPTT over every segment of the forward pass fwd, the last first, from
    saved, the newest segment's saved arrays by slab, which the walk empties
    as it reads them. When the walk reaches a segment before the newest, it
    replays the segment from its start into saved, so a caller that walks
    again passes a copy of every slab's list. seeds(r0, r1) gives the
    seeded gradient list of rows [r0, r1); sg and acc are _backward's and
    end as the gradients of each LIF's initial (U, I) and of the
    parameters; acc's open weight-gradient blocks are closed at the end.
    Returns each stepped slab's input gradient (None where none arrived)."""
    xs, rows = fwd.xs, fwd.rows
    bounds = [t0 for t0, _, _ in fwd.starts] + [fwd.newest, xs.shape[0]]
    x_grads = [None] * (xs.shape[0] // rows)
    earlier = reversed(fwd.starts)
    carry = None
    for r0, r1 in reversed(list(zip(bounds, bounds[1:]))):
        if r1 < xs.shape[0]:
            _, start_states, prev = next(earlier)
            saved.clear()
            _slabs(ctx, params, fwd.programs, xs, r0, r1, rows, list(start_states), prev, saved)
        carry = _reverse_segment(ctx, params, r0, r1, rows, saved, seeds, carry, sg, acc, rg,
                                 x_grads)
    acc.finish()
    return x_grads


def _reverse_segment(ctx, params, r0, r1, rows, saved, seeds, carry, sg, acc, rg, x_grads):
    """The reverse walk over the segment of rows [r0, r1), whose arrays are
    in saved: the post phase over all of its rows, then the stepped slabs,
    the last first, then the pre phase over all of its rows in one stepwise
    pass (zero rows where a stepped slab handed a slot no gradient). carry
    holds, per prev slot, its source's gradient at the segment's last step:
    the source's seed plus its delay-1 consumers' gradients at the step
    after (None for the run's last segment). Writes each slab's input
    gradient into x_grads and returns the carry for the segment before.

    Where the slabs are one step (step_by_step), each slab's _backward gets
    its step, so that acc keeps the matmuls' weight-gradient rows in their
    blocks, and each stepped LIF's surrogate factors are evaluated over the
    segment's U_pre rows before the slabs are walked (_stepped_factors)."""
    pre, stepped, post = ctx.reversed
    n = (r1 - r0) // rows
    slabs = saved[bool(pre) : len(saved) - bool(post)]
    g = seeds(r0, r1)
    if post:
        # post reads no delay-1 source: only the seeds are on those slots
        _backward(ctx, params, g, saved[-1], sg, acc, rg, post, r1 // rows)
    if carry is None:
        carry = [None if g[c] is None else g[c][-rows:] for c in ctx.prev_src]
    if r0 > 0 and ctx.prev_src:
        before = seeds(r0 - rows, r0)
    # the seeds and the post phase's terms of each stepped or pre slot, by slab
    terms = [(slot, v) for slot, v in enumerate(g)
             if v is not None and slot not in ctx.prev_src]
    handoff = {slot: [] for slot in ctx.handoff}
    one_step = rows == acc.samples
    if one_step:
        _stepped_factors(ctx, slabs)
    for i in range(n - 1, -1, -1):
        gr = [None] * ctx.n_slots
        for slot, v in terms:
            gr[slot] = v[i * rows : (i + 1) * rows]
        for c, v in zip(ctx.prev_src, carry):
            gr[c] = v
        first = r0 + i * rows == 0
        if not first:
            # the delay-1 consumers at t add to the source's value at t-1
            # after its seed and before its consumers at t-1
            for p, c in zip(ctx.prev_slots, ctx.prev_src):
                if i == 0:
                    gr[p] = before[c]
                elif g[c] is not None:
                    gr[p] = g[c][(i - 1) * rows : i * rows]
        _backward(ctx, params, gr, slabs[i], sg, acc, rg, stepped,
                  r0 // rows + i + 1 if one_step else None)
        carry = None if first else [gr[p] for p in ctx.prev_slots]
        for slot, got in handoff.items():
            got.append(gr[slot])
        x_grads[r0 // rows + i] = gr[0]
    if pre:
        # each slot the stepped slabs read gets its segment gradient, in
        # time order: a slab that handed it none (a slot that a delay-1 edge
        # reaches only at steps before the run's end) adds zero rows
        for slot, got in handoff.items():
            like = next((v for v in got if v is not None), None)
            if like is not None:
                pieces = [np.zeros_like(like) if v is None else v for v in reversed(got)]
                g[slot] = pieces[0] if n == 1 else np.concatenate(pieces)
        _backward(ctx, params, g, saved[0], sg, acc, rg, pre, r1 // rows)
        for i in range(n):
            x_grads[r0 // rows + i] = None if g[0] is None else g[0][i * rows : (i + 1) * rows]
    return carry


def _stepped_factors(ctx, slabs):
    """Replaces each stepped LIF's U_pre in the one-step slabs' saved arrays
    by the step's rows of its surrogate factors (ops.lif_factors), evaluated
    once over the segment's U_pre rows."""
    for kind, _, _, k, save in ctx.reversed[1]:
        if kind is _LIF:
            u_pre = np.concatenate([slab[save] for slab in slabs])
            sg, a = ops.lif_factors(u_pre, u_pre.dtype, *ctx.lifs[k][1][2:])
            rows = len(u_pre) // len(slabs)
            for i, slab in enumerate(slabs):
                slab[save] = (sg[i * rows : (i + 1) * rows], a[i * rows : (i + 1) * rows])


def input_shape(graph):
    """The per-step input shape run expects: graph.input_shape when set,
    otherwise the shape of the input nodes."""
    if graph.input_shape is not None:
        return tuple(graph.input_shape)
    return graph.node(graph.input_nodes[0]).in_shape


def _check_sample(graph, input_spikes, init_states_map):
    """One sample's input and initial states at the run boundary (see the
    module docstring); a taped input must already have graph.dtype, since a
    cast would cut it off its tape. Returns the input as a Tensor."""
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


def _open_run(graph, plan, inputs, init_maps, params):
    """The run boundary of one or more samples of one shape: the plan's
    type, each sample's input and initial states (init_maps) in sample
    order, then the plan against the graph and T. Returns the inputs as
    Tensors, the steps per slab, the node program, its parameters from
    params as Tensors and, per LIF layer, each sample's initial
    NeuronState."""
    if not isinstance(plan, ExecutionPlan):
        raise ValidationError(f"plan must be an ExecutionPlan, got {plan!r}")
    xs = [_check_sample(graph, x, states) for x, states in zip(inputs, init_maps)]
    steps = xs[0].shape[0]
    if any(x.shape[0] != steps for x in xs):
        raise ShapeError(f"the samples of one run differ in T: {[x.shape[0] for x in xs]}")
    k = plan.checkpoint_every
    if plan.scheduler == "layer_by_layer":
        if graph.has_delay_edges():
            raise PlanError(
                "layer_by_layer cannot execute graphs with delay-1 feedback edges; "
                "use step_by_step"
            )
        if k is not None:
            raise PlanError("checkpointing is implemented for the step_by_step scheduler")
    elif k is not None and k > steps:
        raise ValidationError(f"checkpoint_every={k} exceeds T={steps}")
    ctx = _ExecContext(graph)
    tensors = ctx.param_arrays(params)
    init = [[states[nid] for states in init_maps] for nid, _, _ in ctx.lifs]
    return xs, steps if plan.scheduler == "layer_by_layer" else 1, ctx, tensors, init


def _time_major(arrays):
    """B samples' [T, ...] arrays as one [T * B, ...] array whose row
    t * B + s is row t of sample s."""
    if len(arrays) == 1:  # as np.stack would give it, without its cost
        return np.ascontiguousarray(arrays[0])
    return np.stack(arrays, axis=1).reshape((-1,) + arrays[0].shape[1:])


def _stacked(arrays):
    """Equal-shape arrays stacked on a new leading axis. A single array is
    viewed with the new axis, not copied: np.stack's own cost, paid per
    state per run, shows in short step_by_step runs."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _stacked_states(init):
    """Per LIF layer, its samples' initial NeuronStates as (U, I, S), each
    [B, ...]."""
    return [tuple(_stacked([getattr(st, part).data for st in states]) for part in "UIS")
            for states in init]


def run(graph, plan, input_spikes, init_states_map, params=None, record_hidden=False):
    """Evaluate the graph over the input's T steps; returns (final states, record).

    params maps parameter names to Tensors (graph.params when None). When a
    parameter, the input or an initial U or I is on a tape, the run records
    one graph_run node and returns taped records and final states. With
    plan.checkpoint_every, a taped run keeps only each segment's start and
    the newest segment's saved arrays, and graph_run's backward replays the
    earlier segments; the gradients are the same as without it.
    """
    (x,), steps, ctx, tensors, init = _open_run(graph, plan, [input_spikes], [init_states_map],
                                                graph.params if params is None else params)
    pdata = {name: t.data for name, t in tensors.items()}
    tape = ops._tape_of(x, *tensors.values(), *[v for (st,) in init for v in (st.U, st.I)])
    traced = ctx.order if record_hidden else graph.output_nodes
    fwd = _forward_segments(ctx, pdata, _time_major([x.data]), 1, steps, plan.checkpoint_every,
                            _stacked_states(init), traced, tape is not None)
    states = [(u[0], i[0], s[0]) for u, i, s in fwd.states]
    if tape is None:
        seq_t = {nid: Tensor(v) for nid, v in fwd.records.items()}
        final = {nid: NeuronState(U=Tensor(u), I=Tensor(i), S=Tensor(s))
                 for (nid, _, _), (u, i, s) in zip(ctx.lifs, states)}
    else:
        seq_t, final = _record_run(tape, ctx, pdata, tensors, x, [st for (st,) in init], fwd,
                                   states)
    out_states = dict(init_states_map)
    out_states.update(final)
    record = SpikeRecord(
        outputs={nid: seq_t[nid] for nid in graph.output_nodes},
        hidden={nid: seq_t[nid] for nid in traced} if record_hidden else None,
        steps=x.shape[0],
    )
    return out_states, record


def _record_run(tape, ctx, pdata, tensors, x, init, fwd, states):
    """Record the graph_run node of a taped run and one output node per
    record and per final U, I and S (states) of a LIF layer that a gradient
    can reach; returns (records, final states) as Tensors."""
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
        t.node_id = tape.record("graph_run_out", [run_id], _hand_over(arrived, key, data.dtype),
                                data.shape, data.dtype)
        return t

    seq_t = {nid: output(("rec", nid), v) if rg[ctx.cur[nid]] else Tensor(v)
             for nid, v in fwd.records.items()}
    final = {}
    for k, ((nid, _, slot), (u, i, s)) in enumerate(zip(ctx.lifs, states)):
        if rg[slot]:
            final[nid] = NeuronState(U=output(("U", k), u), I=output(("I", k), i),
                                     S=output(("S", k), s))
        else:
            final[nid] = NeuronState(U=Tensor(u), I=Tensor(i), S=Tensor(s))
    return seq_t, final


def _hand_over(arrived, key, dtype):
    # Each output's gradient enters the walk cast to the run's dtype. The
    # first output node the sweep reaches hands graph_run a zero gradient,
    # so the sweep reaches graph_run; the others add nothing.
    def bwd(g):
        first = not arrived
        arrived[key] = g.astype(dtype, copy=False)
        return [np.zeros((), dtype=dtype) if first else None]

    return bwd


def _run_backward(ctx, pdata, fwd, rg, keys, arrived):
    """graph_run's backward. It holds arrays, the program and plain values,
    never a Tensor, so a dropped tape is freed by reference counting. The
    walk empties the saved-array lists it reads, so it walks copies of
    them and can run twice."""
    traced = list(fwd.records)

    def bwd(_):
        got = dict(arrived)
        arrived.clear()
        recs = [(ctx.cur[nid], got[("rec", nid)]) for nid in reversed(traced)
                if ("rec", nid) in got]  # a tape sums the records' seeds in reverse

        def seeds(r0, r1):
            gr = [None] * ctx.n_slots
            for slot, g in recs:
                _add_grad(gr, slot, g[r0:r1])
            return gr

        def one_sample(key):  # a final-state seed as the run's [1, ...] state
            g = got.get(key)
            return None if g is None else g[None]

        acc = _ParamGrads([name for kind, name in keys if kind == "param"], 1)
        sg = [(one_sample(("U", k)), one_sample(("I", k)), one_sample(("S", k)))
              for k in range(len(ctx.lifs))]
        x_grads = _reverse(ctx, pdata, fwd, [list(slab) for slab in fwd.saved], seeds, sg, acc,
                           rg)
        out = []
        for kind, key in keys:
            if kind == "param":
                g = acc.sums[key]  # one sample's
            elif kind == "x":
                g = _input_grad(x_grads, fwd.xs.shape)
            else:
                g = sg[key][0 if kind == "U" else 1]
            out.append(g if g is None or kind == "x" else g[0])
        return out

    return bwd


def _input_grad(x_grads, x_shape):
    """The input's gradient from each slab's: a one-slab run's own, else
    the step_by_step slabs' rows, zero where none arrived."""
    if len(x_grads) == 1:
        return x_grads[0]
    reached = [(t, g) for t, g in enumerate(x_grads) if g is not None]
    if not reached:
        return None
    full = np.zeros(x_shape, dtype=reached[0][1].dtype)
    for t, g in reached:
        full[t : t + 1] = g
    return full


def run_with_checkpointing(graph, plan, input_spikes, init_states_map, loss_head):
    """Segmented-recompute BPTT with no tape.

    The forward keeps only each segment's start (states and delay-1 values)
    every checkpoint_every steps and the newest segment's saved arrays; the
    reverse walk replays each earlier segment from its start when it
    reaches it, after freeing the later segment's arrays, so one segment's
    arrays are alive at a time. The result has the bytes of a run without
    checkpoint_every and of a taped run.

    Returns (loss, gradients by parameter name, stats dict). The stats hold
    the segment count, the boundary arrays kept, peak_saved_bytes (the
    largest segment's saved arrays; the weight-gradient rows the walk
    carries, _ExecContext.sample_bytes, are not in it), the summed output
    logits, and peak_tape_nodes, which is 0.
    """
    if not isinstance(plan, ExecutionPlan) or plan.checkpoint_every is None:
        raise ValidationError("run_with_checkpointing requires an ExecutionPlan with "
                              "checkpoint_every")
    if len(graph.output_nodes) != 1:
        raise ValidationError("checkpointed loss heads support exactly one output node")
    grads = {}
    losses, logits, stats = _loss_and_grad(graph, plan, [input_spikes], [init_states_map],
                                           [loss_head], grads)
    return losses[0], grads, dict(stats, logits=logits[0])


def _loss_and_grad(graph, plan, inputs, init_maps, loss_heads, total, budget=None):
    """For each sample s of inputs, which share one shape, loss_heads[s]'s
    loss on the summed record of the first output node from the initial
    states init_maps[s], and its gradients by parameter name, with no tape.
    Each sample's gradients are added to total (name -> sum, None or absent
    before the first) in sample order; a parameter no gradient reaches adds
    zeros.

    The samples run in micro-batches: all at once without a budget, else as
    many as budget bytes hold at _ExecContext.sample_bytes each (at least
    one). A micro-batch of B samples is one run over [T * B, ...] rows,
    time-major: _forward_segments, then _reverse from the loss heads' logit
    gradients. Every kernel treats each sample's rows as a one-sample run
    would, so each sample's loss and gradients have the bytes of its own
    run. Without checkpoint_every the run is one segment.

    Returns (losses, logits, stats): the stats of the last micro-batch hold
    what run_with_checkpointing's hold but the logits.
    """
    xs, steps, ctx, tensors, init = _open_run(graph, plan, inputs, init_maps, graph.params)
    params = {name: t.data for name, t in tensors.items()}
    for name in params:
        total.setdefault(name, None)
    out = graph.output_nodes[0]
    k = plan.checkpoint_every
    micro = len(xs)
    if budget is not None:
        micro = max(1, budget // ctx.sample_bytes(xs[0].shape[0], steps, k))
    rg = ctx.requires_grad(False, set(params), set())
    losses, logits = [], []
    for s0 in range(0, len(xs), micro):
        part = slice(s0, s0 + micro)
        batch = [x.data for x in xs[part]]
        # a micro-batch's inputs are let go once it is done: its forward
        # holds the only reference left
        xs[part] = [None] * len(batch)
        b = len(batch)
        fwd = _forward_segments(ctx, params, _time_major(batch), b, steps, k,
                                _stacked_states([states[part] for states in init]), [out], True)
        del batch
        rec = fwd.records[out]
        rec = rec.reshape((-1, b) + rec.shape[1:])
        dlogits = []
        for s, head in enumerate(loss_heads[part]):
            logits.append(np.sum(np.ascontiguousarray(rec[:, s]), axis=0))
            loss, dl = head.loss_and_logit_grad(logits[-1])
            dl = np.asarray(dl, dtype=ctx.graph.dtype)
            if dl.shape != logits[-1].shape:
                raise ShapeError(f"logit gradient shape {dl.shape} != logits {logits[-1].shape}")
            losses.append(loss)
            dlogits.append(dl)
        # on every row of a segment, its sample's logit gradient
        seg_steps = k if fwd.starts else fwd.xs.shape[0] // b
        seed = np.tile(np.stack(dlogits), (seg_steps,) + (1,) * dlogits[0].ndim)

        def seeds(r0, r1, seed=seed):
            gr = [None] * ctx.n_slots
            gr[ctx.cur[out]] = seed[: r1 - r0]
            return gr

        # a segment's saved arrays grow with its steps; the longest segment peaks
        newest_steps = (fwd.xs.shape[0] - fwd.newest) // b
        newest_bytes = sum({id(a): a.nbytes for slab in fwd.saved for a in slab}.values())
        peak_saved_bytes = newest_bytes // newest_steps * (k if fwd.starts else newest_steps)
        acc = _ParamGrads(params, b)
        # the walk frees the newest segment's arrays before its first replay
        _reverse(ctx, params, fwd, fwd.saved, seeds, [(None, None, None)] * len(ctx.lifs), acc,
                 rg)
        _fold(total, acc, params)
        segments = len(fwd.starts) + 1
        del fwd, acc
    stats = {
        "segments": segments,
        "peak_tape_nodes": 0,
        "peak_saved_bytes": peak_saved_bytes,
        "boundary_tensor_count": segments * (3 * len(ctx.lifs) + len(ctx.delay1_sources)),
    }
    return losses, logits, stats


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
