"""The benchmark's workloads: graph, seeded inputs, training step and checks.

Everything here drives spikegrad through its public functions only:
topology builders, benchcli generators, executor.run and
run_with_checkpointing, training.train / loss_and_grad / optimizer_step and
Tape. Each workload is a closed loop with one caller: the next training step
starts when the previous one, its forward pass and its checks are done.
"""

from __future__ import annotations

import math
import pickle
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spikegrad
from spikegrad import benchcli, executor, topology, training
from spikegrad.executor import ExecutionPlan
from spikegrad.tensor import Tape
from spikegrad.topology import conv_layer, flatten_layer, lif_layer, linear_layer

from tracing import FORWARD_ROOT, TRAIN_ROOT

CLASSES = 10
RATE = 0.2  # Bernoulli spike probability of every input bin
POOL_BATCHES = 4  # distinct mini-batches generated per run, used in turn
SETUPS = 5  # set-ups per run; setup_s is their median
# layer_by_layer and step_by_step compute the same spikes; a flipped spike
# differs by 1.0, so this only absorbs rounding in non-spike outputs
SCHEDULER_ATOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str  # 'mlp' | 'cnn' | 'rsnn'
    input_shape: tuple
    width: int  # hidden neurons (mlp, rsnn) or feature maps (cnn)
    steps: int  # T
    batch: int
    scheduler: str
    checkpoint_every: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mlp_lbl", "mlp", (64,), 256, 100, 8, "layer_by_layer"),
        Workload("cnn_lbl", "cnn", (2, 16, 16), 16, 25, 4, "layer_by_layer"),
        Workload("rsnn_ckpt", "rsnn", (64,), 128, 100, 8, "step_by_step", checkpoint_every=10),
    )
}


def build_graph(w, seed):
    if w.arch == "mlp":
        return topology.sequential(
            [linear_layer(w.width, in_features=w.input_shape[0]), lif_layer(w.width),
             linear_layer(w.width), lif_layer(w.width),
             linear_layer(CLASSES), lif_layer(CLASSES)],
            input_shape=w.input_shape, seed=seed,
        )
    if w.arch == "cnn":
        return topology.sequential(
            [conv_layer(w.input_shape[0], w.width, 3, padding=1), lif_layer(),
             conv_layer(w.width, w.width, 3, padding=1), lif_layer(),
             flatten_layer(), linear_layer(CLASSES), lif_layer(CLASSES)],
            input_shape=w.input_shape, seed=seed,
        )
    # node 2 is the width x width recurrent weight; its delay-1 edge feeds the
    # LIF layer's spikes at step t back into that layer's input at step t+1
    return topology.graph_build(
        [linear_layer(w.width, in_features=w.input_shape[0]), lif_layer(w.width),
         linear_layer(w.width), linear_layer(CLASSES), lif_layer(CLASSES)],
        [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 3, 0), (3, 4, 0)],
        input_nodes=[0], output_nodes=[4], input_shape=w.input_shape, seed=seed,
    )


def make_batches(w, seed):
    """POOL_BATCHES mini-batches of (spikes [T, *input_shape], one-hot target).

    The generator's float64 output is passed on unchanged, as users do.
    """
    rng = np.random.default_rng(seed)
    n = POOL_BATCHES * w.batch
    sample_seeds = rng.integers(0, 2**31, size=n)
    labels = rng.integers(0, CLASSES, size=n)
    samples = []
    for s, label in zip(sample_seeds, labels):
        x = benchcli.gen_random_spikes(w.input_shape, w.steps, RATE, seed=int(s))
        target = np.zeros(CLASSES)
        target[label] = 1.0
        samples.append((x, target))
    return [samples[i : i + w.batch] for i in range(0, n, w.batch)]


def full_tape_sample(graph, plan, x, target):
    """Loss, named gradients and tape length of one sample on one full tape,
    computed the way training.loss_and_grad computes them."""
    tape = Tape()
    params = {name: tape.leaf(graph.params[name]) for name in sorted(graph.params)}
    _, record = executor.run(graph, plan, x, executor.init_states(graph), params=params)
    loss = training.spike_count_ce_loss(record, target)
    grads = tape.grads_from_seeds({loss.node_id: np.ones(loss.shape, dtype=graph.dtype)})
    return float(loss.data), {name: grads[t.node_id] for name, t in params.items()}, len(tape)


class Trainer:
    """A graph, its optimizer state and the workload's training step.

    kind 'train' calls training.train for one mini-batch; 'decomposed' does
    the same work from its parts (tape, executor.run, loss, backward,
    optimizer_step) so a trace can tell them apart; 'ckpt' runs
    executor.run_with_checkpointing per sample, because train ignores
    checkpoint_every.
    """

    def __init__(self, w, graph, decomposed):
        self.w = w
        self.graph = graph
        self.plan = ExecutionPlan(w.scheduler, checkpoint_every=w.checkpoint_every)
        self.config = training.TrainConfig(epochs=1, batch_size=w.batch, plan=self.plan)
        self.opt_state = None
        self.ckpt_stats = None
        if w.checkpoint_every:
            self.kind = "ckpt"
        else:
            self.kind = "decomposed" if decomposed else "train"

    def step(self, batch, probe):
        """One optimizer update on batch.

        Returns (mean loss, parameters before the update, (loss, gradients)
        of sample `probe`, or None when the step does not expose them).
        """
        before = self.graph.params
        if self.kind == "train":
            _, rows = training.train(self.graph, batch, self.config)
            return rows[-1][1], before, None
        total_loss, total, probed = 0.0, None, None
        for i, (x, target) in enumerate(batch):
            if self.kind == "ckpt":
                loss, grads, self.ckpt_stats = executor.run_with_checkpointing(
                    self.graph, self.plan, x, executor.init_states(self.graph),
                    training.SpikeCountCELoss(target),
                )
            else:
                loss, grads, _ = full_tape_sample(self.graph, self.plan, x, target)
            if i == probe:
                probed = (loss, grads)
            total_loss += loss
            total = grads if total is None else {k: total[k] + grads[k] for k in total}
        mean = {k: v / len(batch) for k, v in total.items()}
        self.graph.params, self.opt_state = training.optimizer_step(
            self.graph.params, mean, self.opt_state, self.config
        )
        return total_loss / len(batch), before, probed

    def forward(self, batch):
        """Untaped forward (inference) of every sample; returns output traces."""
        plan = ExecutionPlan(self.w.scheduler)
        out = self.graph.output_nodes[0]
        return [
            executor.run(self.graph, plan, x, executor.init_states(self.graph))[1]
            .outputs[out].data
            for x, _ in batch
        ]


def reference_loss_and_grad(graph, scheduler, x, target):
    """training.loss_and_grad on one sample; module level so a worker
    process can run it."""
    return training.loss_and_grad(graph, ExecutionPlan(scheduler), [(x, target)])


def serve_references(inp, out):
    """Worker loop: answer pickled reference_loss_and_grad calls until EOF."""
    pickle.dump("ready", out)
    out.flush()
    while True:
        try:
            args = pickle.load(inp)
        except EOFError:
            return
        pickle.dump(reference_loss_and_grad(*args), out)
        out.flush()


class ReferenceWorker:
    """reference_loss_and_grad in a child process, so that the full tape it
    builds does not count toward the caller's peak resident memory.

    The child reads pickled arguments on stdin and writes pickled results on
    stdout; it exits when close() ends its stdin.
    """

    def __init__(self):
        paths = [str(Path(__file__).resolve().parent),
                 str(Path(spikegrad.__file__).resolve().parent.parent)]
        code = (f"import sys; sys.path[:0] = {paths!r}; import workloads; "
                "workloads.serve_references(sys.stdin.buffer, sys.stdout.buffer)")
        self.proc = subprocess.Popen([sys.executable, "-c", code],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if pickle.load(self.proc.stdout) != "ready":
            raise RuntimeError("reference worker did not start")

    def __call__(self, *args):
        pickle.dump(args, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def same_loss_and_grads(got, ref):
    (loss, grads), (ref_loss, ref_grads) = got, ref
    return loss == ref_loss and grads.keys() == ref_grads.keys() and all(
        grads[k].dtype == ref_grads[k].dtype and np.array_equal(grads[k], ref_grads[k])
        for k in grads
    )


def check_step(trainer, batch, probe, loss, before, probed, outputs, reference):
    """None if the step is correct, else what failed.

    reference(graph, scheduler, x, target) computes training.loss_and_grad
    for one sample; the run may send it to another process.
    """
    if not math.isfinite(loss):
        return f"non-finite loss {loss}"
    graph = trainer.graph
    x, target = batch[probe]
    if trainer.w.scheduler == "layer_by_layer":
        _, rec = executor.run(graph, ExecutionPlan("step_by_step"), x, executor.init_states(graph))
        want = rec.outputs[graph.output_nodes[0]].data
        got = outputs[probe]
        if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=SCHEDULER_ATOL):
            return f"layer_by_layer output differs from step_by_step beyond atol {SCHEDULER_ATOL}"
    if probed is not None:
        ref = reference(graph.copy_with_params(before), trainer.w.scheduler, x.data, target)
        if not same_loss_and_grads(probed, ref):
            return f"{trainer.kind} loss or gradients differ from training.loss_and_grad"
    return None


def set_up(w, seed, decomposed):
    """Build graph and inputs and run one discarded warm-up step."""
    t0 = time.perf_counter()
    graph = build_graph(w, seed)
    t1 = time.perf_counter()
    batches = make_batches(w, seed)
    t2 = time.perf_counter()
    trainer = Trainer(w, graph, decomposed)
    loss, _, _ = trainer.step(batches[0], 0)
    t3 = time.perf_counter()
    if not math.isfinite(loss):
        raise RuntimeError(f"warm-up step gave non-finite loss {loss}")
    return trainer, batches, {"build_s": t1 - t0, "gen_s": t2 - t1, "setup_s": t3 - t0}


def set_up_repeatedly(w, seed, decomposed):
    """SETUPS identical set-ups; returns the last one and the median timings."""
    timings = []
    for _ in range(SETUPS):
        trainer, batches, t = set_up(w, seed, decomposed)
        timings.append(t)
    medians = {k: statistics.median(t[k] for t in timings) for k in timings[0]}
    return trainer, batches, medians


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    step_s: list = field(default_factory=list)
    train_samples: int = 0
    forward_s: float = 0.0
    forward_samples: int = 0
    output_itemsize: int = 0
    errors: list = field(default_factory=list)


def run_steps(trainer, batches, seconds, reference, tally, tracer=None, agg=None):
    """Closed loop of train step, forward pass and checks for `seconds`
    (one step when seconds is 0).

    With a tracer, the train step and the forward pass run inside root spans
    and the spans are folded into agg after every step; the checks are not
    traced.
    """
    deadline = time.perf_counter() + seconds
    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    first = tally.attempted
    while tally.attempted == first or time.perf_counter() < deadline:
        batch = batches[tally.attempted % len(batches)]
        probe = tally.attempted % len(batch)
        tally.attempted += 1
        if tracer is not None:
            tracer.step = tally.attempted
            tracer.enabled = True
        try:
            t0 = time.perf_counter()
            with phase(TRAIN_ROOT):
                loss, before, probed = trainer.step(batch, probe)
            t1 = time.perf_counter()
            with phase(FORWARD_ROOT):
                outputs = trainer.forward(batch)
            t2 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
            tally.step_s.append(t1 - t0)
            tally.train_samples += len(batch)
            tally.forward_s += t2 - t1
            tally.forward_samples += len(batch)
            tally.output_itemsize = outputs[0].itemsize
            problem = check_step(trainer, batch, probe, loss, before, probed, outputs, reference)
        except Exception as e:  # a failed step is counted, and the loop goes on
            problem = f"{type(e).__name__}: {e}"
        finally:
            if tracer is not None:
                tracer.enabled = False
                tracer.fold(agg)
        if problem is not None:
            tally.failed += 1
            tally.errors.append(f"step {tally.attempted}: {problem}")
    return tally


def tail(values):
    """(value, percentile, n) for the highest percentile of `values` with at
    least ten values above it; the maximum when there are ten or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n
