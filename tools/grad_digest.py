"""Byte digests of spikegrad's losses, gradients and trained parameters.

Prints one line per record, `<name> <sha256>`, where the hash covers the
bytes (`tobytes`) of the record's loss and of every array it produced, in
sorted-name order, so signed zeros count. It imports spikegrad from the
`src/` beside its own directory, so a copy placed in another checkout's
`tools/` digests that checkout. Run it on two commits and diff the output;
an empty diff means both compute the same bytes:

    python3 tools/grad_digest.py > before.txt   # in a checkout of the parent
    python3 tools/grad_digest.py > after.txt    # in a checkout of the change
    diff before.txt after.txt

The graphs have the benchmark's shapes (an MLP, a CNN and a recurrent net
with a delay-1 feedback weight), plus a CNN whose convs have stride 2 and
padding 1, a recurrent net whose program has all three phases (two
feedback cycles in series, layers before and after them) and an MLP with
a hidden layer one neuron wide, built here, in float32 and float64. Each
graph gets records for step_by_step on a full tape, layer_by_layer where
the graph allows it, run_with_checkpointing at k = 7, 10 and T (1, 3 and
T for the phases graph), a taped run whose input, initial states and
final state are taped as well, and the parameters after an Adam epoch
over four samples, once in batches of 2 and 2 and once in batches of 3
and 1. train differentiates a batch in micro-batches of as many samples
as training.MICRO_BATCH_BYTES allows, so where the budget holds several
samples, the batches of 3 and 1 train a micro-batch of several samples
and one of a single sample.

The tool also checks itself, and prints what failed to stderr and exits 1
when a check fails: per scheduler, training.loss_and_grad (which builds no
tape) must give the bytes of a full-tape reference (Tape, executor.run,
spike_count_ce_loss, grads_from_seeds), and two samples run as one
micro-batch must give the bytes of the two run one by one; every
checkpoint_k record must equal the step_by_step record of its sample.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

# one BLAS thread unless the environment sets the count, so a many-row
# product sums in one fixed order; CI also runs the self-checks at two
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from spikegrad import executor, training  # noqa: E402
from spikegrad.benchcli import gen_random_spikes  # noqa: E402
from spikegrad.executor import ExecutionPlan  # noqa: E402
from spikegrad.neurons import NeuronState  # noqa: E402
from spikegrad.tensor import Tape  # noqa: E402
from spikegrad.topology import (  # noqa: E402
    conv_layer,
    flatten_layer,
    graph_build,
    lif_layer,
    linear_layer,
    sequential,
)

CLASSES = 10
SAMPLES = 2  # per record kind: one from zero states, one from uniform states


def mlp(dtype):
    return sequential(
        [linear_layer(256, in_features=64), lif_layer(256), linear_layer(256), lif_layer(256),
         linear_layer(CLASSES), lif_layer(CLASSES)],
        input_shape=(64,), seed=3, dtype=dtype,
    ), 100


def cnn(dtype):
    return sequential(
        [conv_layer(2, 16, 3, padding=1), lif_layer(), conv_layer(16, 16, 3, padding=1),
         lif_layer(), flatten_layer(), linear_layer(CLASSES), lif_layer(CLASSES)],
        input_shape=(2, 16, 16), seed=3, dtype=dtype,
    ), 25


def cnn_stride2(dtype):
    # both convs stride 2, padding 1: the second one's input gradient goes
    # through every phase plane
    return sequential(
        [conv_layer(2, 8, 3, stride=2, padding=1), lif_layer(),
         conv_layer(8, 8, 3, stride=2, padding=1), lif_layer(), flatten_layer(),
         linear_layer(CLASSES), lif_layer(CLASSES)],
        input_shape=(2, 16, 16), seed=3, dtype=dtype,
    ), 25


def rsnn(dtype):
    # node 2 is the 128 x 128 recurrent weight on a delay-1 edge into node 1
    return graph_build(
        [linear_layer(128, in_features=64), lif_layer(128), linear_layer(128),
         linear_layer(CLASSES), lif_layer(CLASSES)],
        [(0, 1, 0), (1, 2, 0), (2, 1, 1), (1, 3, 0), (3, 4, 0)],
        input_nodes=[0], output_nodes=[4], input_shape=(64,), seed=3, dtype=dtype,
    ), 100


def phases(dtype):
    # two feedback cycles in series (node 2 with its delay-1 weight node 3,
    # node 5 with node 6) and a linear layer between them; an input layer
    # (node 1) into the first feedback weight, which the loss reaches only
    # through its delay-1 edge; a second input layer (node 8) that bypasses
    # both cycles into the read-out. The program runs nodes 0 and 1 over a
    # whole segment before its stepped loop and the read-out after it.
    return graph_build(
        [linear_layer(32, in_features=16), linear_layer(32, in_features=16), lif_layer(32),
         linear_layer(32), linear_layer(24), lif_layer(24), linear_layer(24),
         linear_layer(CLASSES), linear_layer(CLASSES, in_features=16), lif_layer(CLASSES)],
        [(0, 2, 0), (2, 3, 0), (1, 3, 0), (3, 2, 1), (2, 4, 0), (4, 5, 0), (5, 6, 0),
         (6, 5, 1), (5, 7, 0), (7, 9, 0), (8, 9, 0)],
        input_nodes=[0, 1, 8], output_nodes=[9], input_shape=(16,), seed=3, dtype=dtype,
    ), 30


def narrow(dtype):
    # a hidden layer one neuron wide: both of its weights are one wide
    return sequential(
        [linear_layer(1, in_features=16), lif_layer(1), linear_layer(CLASSES),
         lif_layer(CLASSES)],
        input_shape=(16,), seed=5, dtype=dtype,
    ), 50


# checkpoint_every values per graph besides T
CHECKPOINTS = {"phases": (1, 3)}


def digest(loss, arrays):
    h = hashlib.sha256(np.float64(loss).tobytes())
    for name in sorted(arrays):
        a = np.asarray(arrays[name])
        h.update(f"{name}:{a.dtype}:{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def samples(graph, steps, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(SAMPLES):
        x = gen_random_spikes(graph.input_shape, steps, 0.2, seed=seed * 100 + i).data
        out.append((x, np.eye(CLASSES)[rng.integers(CLASSES)]))
    return out


def taped_run(graph, plan, x, target, mode):
    """Loss on the output record plus a fixed seed on the first LIF layer's
    final U; gradients of every parameter, the input and the initial states."""
    tape = Tape()
    params = {n: tape.leaf(graph.params[n]) for n in sorted(graph.params)}
    xt = tape.leaf(x.astype(graph.dtype))
    states = executor.init_states(graph, mode=mode, seed=5)
    leaves = {}
    for nid, st in states.items():
        for part in ("U", "I", "S"):
            leaves[f"state{nid}.{part}"] = tape.leaf(getattr(st, part).data)
    taped = {nid: NeuronState(U=leaves[f"state{nid}.U"], I=leaves[f"state{nid}.I"],
                              S=leaves[f"state{nid}.S"]) for nid in states}
    final, rec = executor.run(graph, plan, xt, taped, params=params)
    loss = training.spike_count_ce_loss(rec, target)
    first = graph.stateful_nodes()[0]
    u_seed = np.linspace(-1.0, 1.0, final[first].U.size).reshape(final[first].U.shape)
    grads = tape.grads_from_seeds({loss.node_id: np.ones((), dtype=graph.dtype),
                                   final[first].U.node_id: u_seed.astype(graph.dtype)})
    named = {n: grads[t.node_id] for n, t in params.items()}
    named["input"] = grads[xt.node_id]
    named.update({n: grads[t.node_id] for n, t in leaves.items()})
    return float(loss.data), named


def full_tape(graph, plan, x, target, mode):
    """training.loss_and_grad of one sample, computed on one full tape."""
    tape = Tape()
    params = {n: tape.leaf(graph.params[n]) for n in sorted(graph.params)}
    _, rec = executor.run(graph, plan, x, executor.init_states(graph, mode=mode, seed=5),
                          params=params)
    loss = training.spike_count_ce_loss(rec, target)
    grads = tape.grads_from_seeds({loss.node_id: np.ones((), dtype=graph.dtype)})
    return float(loss.data), {n: grads[t.node_id] for n, t in params.items()}


def micro_batch_matches(graph, plan, pair):
    """Whether training.loss_and_grad of the two samples in pair, run as one
    micro-batch from the same initial states, has the bytes of their
    single-sample results summed in sample order and halved, loss included."""
    singles = [training.loss_and_grad(graph, plan, [s], init_mode="uniform", init_seed=5)
               for s in pair]
    budget = training.MICRO_BATCH_BYTES
    training.MICRO_BATCH_BYTES = 2**40  # both samples in one micro-batch
    try:
        loss, grads = training.loss_and_grad(graph, plan, pair, init_mode="uniform", init_seed=5)
    finally:
        training.MICRO_BATCH_BYTES = budget
    want = {name: (singles[0][1][name] + singles[1][1][name]) / 2 for name in grads}
    return digest(loss, grads) == digest((singles[0][0] + singles[1][0]) / 2, want)


def records(failures):
    """Yields (name, digest) per record; appends each failed check to failures."""
    for build in (mlp, cnn, cnn_stride2, rsnn, phases, narrow):
        for dtype in (np.float32, np.float64):
            graph, steps = build(dtype)
            tag = f"{build.__name__}.{np.dtype(dtype).name}"
            schedulers = ["step_by_step"]
            if not graph.has_delay_edges():
                schedulers.append("layer_by_layer")
            for i, (x, target) in enumerate(samples(graph, steps, seed=1)):
                mode = ("zeros", "uniform")[i % 2]
                by_sched = {}  # this sample's loss_and_grad digest per scheduler
                for sched in schedulers:
                    loss, grads = training.loss_and_grad(
                        graph, ExecutionPlan(sched), [(x, target)], init_mode=mode, init_seed=5)
                    name, by_sched[sched] = f"{tag}.{sched}.sample{i}", digest(loss, grads)
                    yield name, by_sched[sched]
                    if by_sched[sched] != digest(*full_tape(graph, ExecutionPlan(sched), x,
                                                            target, mode)):
                        failures.append(f"{name}: loss_and_grad differs from a full tape")
                    loss, grads = taped_run(graph, ExecutionPlan(sched), x, target, mode)
                    yield f"{tag}.{sched}.taped_input_states.sample{i}", digest(loss, grads)
                for k in (*CHECKPOINTS.get(build.__name__, (7, 10)), steps):
                    loss, grads, _ = executor.run_with_checkpointing(
                        graph, ExecutionPlan("step_by_step", checkpoint_every=k), x,
                        executor.init_states(graph, mode=mode, seed=5),
                        training.SpikeCountCELoss(target))
                    name, h = f"{tag}.checkpoint_k{k}.sample{i}", digest(loss, grads)
                    yield name, h
                    if h != by_sched["step_by_step"]:
                        failures.append(f"{name}: differs from the step_by_step record")
            for sched in schedulers:
                if not micro_batch_matches(graph, ExecutionPlan(sched), samples(graph, steps, 1)):
                    failures.append(f"{tag}.{sched}: a micro-batch of two samples differs "
                                    "from the samples run one by one")
            dataset = samples(graph, steps, seed=2) + samples(graph, steps, seed=3)
            for sched in schedulers:
                for batch_size, record in ((2, "adam_2_batches"), (3, "adam_batches_3_1")):
                    trained, _ = training.train(
                        graph.copy_with_params(graph.params), dataset,
                        training.TrainConfig(epochs=1, batch_size=batch_size, learning_rate=1e-3,
                                             optimizer="adam", seed=0,
                                             plan=ExecutionPlan(sched)))
                    yield f"{tag}.{sched}.{record}.params", digest(0.0, trained.params)


def main():
    failures = []
    for name, h in records(failures):
        print(f"{name} {h}", flush=True)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
