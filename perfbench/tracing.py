"""Span tracing of spikegrad's layers, installed from outside the package.

`traced(tracer)` replaces each public function a layer exports at the name
its caller looks it up by (module attributes such as `spikegrad.ops.matmul`
and `spikegrad.executor.lif_step`, class attributes such as `Tape.record`)
with a wrapper that records a span: name, start, end, parent span and the
step the span belongs to. Spans are kept in memory; `Tracer.fold` turns one
step's spans into per-name call counts, inclusive time and self time (a
span's duration minus the time its child spans cover), and the originals
are restored when the context exits.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager


from spikegrad import executor, ops, training
from spikegrad.surrogates import SurrogateFn
from spikegrad.tensor import Tape
from spikegrad.training import SpikeCountCELoss

OPS_CATEGORIES = {
    "matmul": ("matmul",),
    "conv2d": ("conv2d", "conv2d_batched"),
    "elementwise": ("add", "sub", "mul", "scale"),
    "threshold": ("threshold", "smooth_spike"),
    "shape": ("reshape", "slice_rows", "stack_rows"),
}
# counted in ops.calls and ops.self time, but in none of the splits
OPS_OTHER = ("sum_axis", "sum_all", "softmax_cross_entropy")
OPS = [op for names in OPS_CATEGORIES.values() for op in names] + list(OPS_OTHER)

RECORD = "tensor.Tape.record"
BACKWARD = "tensor.Tape.grads_from_seeds"
SURROGATE = "surrogates.SurrogateFn.__call__"
LIF_STEP = "neurons.lif_step"
RUN = "executor.run"
CKPT = "executor.run_with_checkpointing"
LOSS = "training.spike_count_ce_loss"
CKPT_LOSS = "training.SpikeCountCELoss.loss_and_logit_grad"
OPTIMIZER = "training.optimizer_step"
TRAIN_ROOT = "bench.train_step"
FORWARD_ROOT = "bench.forward"

# (owner, attribute, span name): each owner is where the caller looks the name up
TARGETS = (
    [(ops, op, f"ops.{op}") for op in OPS]
    + [
        (Tape, "record", RECORD),
        (Tape, "grads_from_seeds", BACKWARD),
        (SurrogateFn, "__call__", SURROGATE),
        (executor, "lif_step", LIF_STEP),
        (executor, "run", RUN),
        (executor, "run_with_checkpointing", CKPT),
        (training, "spike_count_ce_loss", LOSS),
        (SpikeCountCELoss, "loss_and_logit_grad", CKPT_LOSS),
        (training, "optimizer_step", OPTIMIZER),
    ]
)


class Tracer:
    """In-memory span recorder; one list entry per span."""

    def __init__(self):
        # [name, start, end, parent index or -1, step id, tape bytes]
        self.spans = []
        self._stack = []
        self.step = -1
        self.enabled = False

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_record = name == RECORD

        def traced_fn(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.step, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if is_record:
                tape = args[0]
                span[5] = math.prod(tape.shape_of(result)) * tape.dtype_of(result).itemsize
            return result

        return traced_fn

    @contextmanager
    def span(self, name):
        """A root span opened by the benchmark itself around one phase."""
        if not self.enabled:
            yield
            return
        entry = [name, time.perf_counter(), 0.0, -1, self.step, 0]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        try:
            yield
        finally:
            self._stack.pop()
            entry[2] = time.perf_counter()

    def fold(self, agg):
        """Add this tracer's spans into `agg` and clear them."""
        spans = self.spans
        child = [0.0] * len(spans)
        root = [None] * len(spans)
        in_loss = [False] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
                in_loss[i] = in_loss[parent] or name == CKPT_LOSS
            else:
                root[i] = name
                in_loss[i] = name == CKPT_LOSS
        ckpt_parts = defaultdict(lambda: [0.0, 0.0, 0.0])  # loss start, loss end, top backward
        for i, (name, start, end, parent, _, nbytes) in enumerate(spans):
            key = (root[i], name)
            entry = agg.spans[key]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
            if name == RECORD:
                agg.tape_bytes[root[i]] += nbytes
            if name == BACKWARD and not in_loss[i]:
                agg.backward_s[root[i]] += end - start
            if parent >= 0 and spans[parent][0] == CKPT:
                if name == CKPT_LOSS:
                    ckpt_parts[parent][0] = start
                    ckpt_parts[parent][1] = end
                elif name == BACKWARD:
                    ckpt_parts[parent][2] += end - start
        for parent, (loss_start, loss_end, backward) in ckpt_parts.items():
            _, start, end, _, _, _ = spans[parent]
            agg.ckpt_forward_s += loss_start - start
            agg.ckpt_recompute_s += end - loss_end - backward
        spans.clear()


class Aggregate:
    """Totals over all folded steps."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (root, name) -> calls, incl s, self s
        self.tape_bytes = defaultdict(int)
        self.backward_s = defaultdict(float)
        self.ckpt_forward_s = 0.0
        self.ckpt_recompute_s = 0.0

    def calls(self, root, *names):
        return sum(self.spans[(root, n)][0] for n in names)

    def incl_s(self, root, *names):
        return sum(self.spans[(root, n)][1] for n in names)

    def self_s(self, root, *names):
        return sum(self.spans[(root, n)][2] for n in names)


@contextmanager
def traced(tracer):
    """Install the tracer's wrappers on every target; restore on exit."""
    saved = []
    try:
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        tracer.enabled = True
        yield tracer
    finally:
        tracer.enabled = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(agg, train_samples, forward_samples, steps):
    """Per-layer metrics from folded spans, as {name: (value, unit)}."""
    t, f = TRAIN_ROOT, FORWARD_ROOT
    per = 1.0 / train_samples
    ms = 1000.0 * per
    op_names = [f"ops.{op}" for op in OPS]
    out = {
        "tensor.tape_nodes_per_sample": (agg.calls(t, RECORD) * per, "count"),
        "tensor.tape_bytes_per_sample": (agg.tape_bytes[t] * per, "bytes"),
        "tensor.record_ms_per_sample": (agg.incl_s(t, RECORD) * ms, "ms"),
        "tensor.backward_ms_per_sample": (agg.backward_s[t] * ms, "ms"),
        "ops.calls_per_sample": (agg.calls(t, *op_names) * per, "count"),
        "ops.self_ms_per_sample": (agg.self_s(t, *op_names) * ms, "ms"),
    }
    for cat, names in OPS_CATEGORIES.items():
        out[f"ops.{cat}.ms_per_sample"] = (
            agg.self_s(t, *[f"ops.{n}" for n in names]) * ms, "ms")
    out.update({
        "neurons.lif_step.calls_per_sample": (agg.calls(t, LIF_STEP) * per, "count"),
        "neurons.lif_step.self_ms_per_sample": (agg.self_s(t, LIF_STEP) * ms, "ms"),
        "surrogates.calls_per_sample": (agg.calls(t, SURROGATE) * per, "count"),
        "surrogates.ms_per_sample": (agg.incl_s(t, SURROGATE) * ms, "ms"),
        "executor.forward_ms_per_sample": ((agg.incl_s(t, RUN) + agg.ckpt_forward_s) * ms, "ms"),
        "executor.self_ms_per_sample": (agg.self_s(t, RUN, CKPT) * ms, "ms"),
        "executor.forward_notape_ms_per_sample": (
            agg.incl_s(f, RUN) * 1000.0 / forward_samples, "ms"),
        "executor.ckpt.recompute_ms_per_sample": (agg.ckpt_recompute_s * ms, "ms"),
        "training.loss_ms_per_sample": (agg.incl_s(t, LOSS, CKPT_LOSS) * ms, "ms"),
        "training.optimizer_ms_per_step": (agg.incl_s(t, OPTIMIZER) * 1000.0 / steps, "ms"),
    })
    return out
