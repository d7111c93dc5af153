"""Synthetic data, benchmark configurations, and the command-line entry point."""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import executor, topology, training
from .executor import ExecutionPlan, PlanError
from .neurons import LIFParams
from .tensor import ContractError, ShapeError, Tensor, ValidationError, _int_at_least
from .topology import GraphError, conv_layer, flatten_layer, lif_layer, linear_layer, sequential


CNN_CLASSES = 10  # width of the CNN bench graph's LIF readout
# the BenchSpec fields that each arch's graph does not read
_UNREAD = {"mlp": ("channels", "kernel", "stride", "in_channels", "image_size"),
           "cnn": ("width", "n_in")}


@dataclass
class BenchSpec:
    arch: str = "mlp"  # 'mlp' | 'cnn'
    width: int = 256  # neurons per LIF block (mlp)
    channels: int = 16  # feature maps per conv block (cnn)
    depth: int = 2
    kernel: int = 3
    stride: int = 1
    n_in: int = 64
    in_channels: int = 2
    image_size: int = 16
    steps: int = 100
    batch_size: int = 8
    repeats: int = 10
    rate: float = 0.2
    seed: int = 0
    schedulers: tuple = ("step_by_step", "layer_by_layer")

    def __post_init__(self):
        if self.arch not in ("mlp", "cnn"):
            raise ValidationError(f"arch must be 'mlp' or 'cnn', got {self.arch!r}")
        for name in ("width", "channels", "depth", "kernel", "stride", "n_in", "in_channels",
                     "image_size", "steps", "batch_size"):
            setattr(self, name, _int_at_least(name, getattr(self, name), 1))
        self.repeats = _int_at_least("repeats", self.repeats, 3)
        self.seed = _int_at_least("seed", self.seed, 0)
        if not isinstance(self.schedulers, (list, tuple)) or not self.schedulers:
            raise ValidationError(f"schedulers must be a nonempty list, got {self.schedulers!r}")
        self.schedulers = tuple(self.schedulers)
        for s in self.schedulers:
            if s not in executor.SCHEDULERS:
                raise ValidationError(f"unknown scheduler {s!r}")

    @classmethod
    def from_json(cls, doc):
        """The spec a JSON document gives; a key the arch does not read is
        rejected, not ignored."""
        doc = dict(doc)
        doc.pop("version", None)
        arch = doc.get("arch", cls.arch)
        unread = sorted(set(doc) & set(_UNREAD.get(arch, ())))
        if unread:
            raise ValidationError(f"bench spec keys {unread} do not apply to arch {arch!r}")
        return cls(**doc)


@dataclass
class TimingRow:
    scheduler: str
    phase: str  # 'forward' | 'forward_backward'
    median_ms: float
    p10_ms: float
    p90_ms: float

    def __post_init__(self):
        if not (self.p10_ms <= self.median_ms <= self.p90_ms):
            raise ValidationError("timing percentiles out of order")


def gen_random_spikes(n, t, rate, seed=0):
    """[t, n] (or [t, *n] for a shape tuple) of independent Bernoulli(rate) bins."""
    if not (0.0 <= rate <= 1.0):
        raise ValidationError(f"rate must be in [0, 1], got {rate}")
    shape = (int(n),) if np.isscalar(n) else tuple(int(s) for s in n)
    rng = np.random.default_rng(_int_at_least("seed", seed, 0))
    spikes = (rng.random((int(t),) + shape) < rate).astype(np.float64)
    return Tensor(spikes)


def gen_toy(classes, n_in, t, samples_per_class, seed=0):
    """Rate-coded toy classification set, linearly separable by spike counts.

    Class c's own block of input channels fires at rate 0.8, all others at
    0.05. Returns a list of (spikes [t, n_in], one-hot target) pairs.
    """
    if classes < 2:
        raise ValidationError(f"need at least 2 classes, got {classes}")
    if classes > n_in:
        raise ValidationError(f"{classes} classes need at least {classes} input channels")
    rng = np.random.default_rng(_int_at_least("seed", seed, 0))
    block = n_in // classes
    dataset = []
    for c in range(classes):
        rates = np.full(n_in, 0.05)
        lo = c * block
        hi = n_in if c == classes - 1 else lo + block
        rates[lo:hi] = 0.8
        target = np.zeros(classes)
        target[c] = 1.0
        for _ in range(samples_per_class):
            spikes = (rng.random((t, n_in)) < rates).astype(np.float64)
            dataset.append((Tensor(spikes), target))
    return dataset


def build_bench_graph(spec, dtype=None):
    lif = LIFParams()
    if spec.arch == "mlp":
        layers = []
        width_in = spec.n_in
        for _ in range(spec.depth):
            layers.append(linear_layer(spec.width, in_features=width_in))
            layers.append(lif_layer(spec.width, params=lif))
            width_in = spec.width
        return sequential(layers, input_shape=(spec.n_in,), seed=spec.seed, dtype=dtype)
    layers = []
    c_in = spec.in_channels
    pad = spec.kernel // 2
    for _ in range(spec.depth):
        layers.append(conv_layer(c_in, spec.channels, spec.kernel, stride=spec.stride,
                                 padding=pad))
        layers.append(lif_layer(params=lif))
        c_in = spec.channels
    layers += [flatten_layer(), linear_layer(CNN_CLASSES), lif_layer(CNN_CLASSES, params=lif)]
    return sequential(
        layers,
        input_shape=(spec.in_channels, spec.image_size, spec.image_size),
        seed=spec.seed,
        dtype=dtype,
    )


def _bench_inputs(spec):
    if spec.arch == "mlp":
        shape = spec.n_in
    else:
        shape = (spec.in_channels, spec.image_size, spec.image_size)
    return [
        gen_random_spikes(shape, spec.steps, spec.rate, seed=spec.seed + i)
        for i in range(spec.batch_size)
    ]


def _target_for(graph):
    out_shape = graph.node(graph.output_nodes[0]).out_shape
    c = int(np.prod(out_shape))
    target = np.zeros(c)
    target[0] = 1.0
    return target


def _check_scheduler_equivalence(graph, batch, atol=1e-6):
    """Verify output equivalence once, before any timing loop runs."""

    def output(scheduler):
        states = executor.init_states(graph)
        _, rec = executor.run(graph, ExecutionPlan(scheduler), batch[0], states)
        return rec.outputs[graph.output_nodes[0]].data

    if not np.allclose(output("layer_by_layer"), output("step_by_step"), atol=atol):
        raise ValidationError(f"scheduler outputs diverged beyond {atol}")


def bench(spec):
    """Timed scheduler comparison; returns a list of TimingRow."""
    graph = build_bench_graph(spec)
    batch = _bench_inputs(spec)
    target = _target_for(graph)
    _check_scheduler_equivalence(graph, batch)
    loss_batch = [(x, target) for x in batch]

    def forward_once(plan):
        for x in batch:
            states = executor.init_states(graph)
            executor.run(graph, plan, x, states)

    def forward_backward_once(plan):
        training.loss_and_grad(graph, plan, loss_batch)

    rows = []
    for scheduler in spec.schedulers:
        plan = ExecutionPlan(scheduler)
        for phase, fn in (
            ("forward", forward_once),
            ("forward_backward", forward_backward_once),
        ):
            fn(plan)  # warmup, discarded
            times = []
            for _ in range(spec.repeats):
                t0 = time.perf_counter()
                fn(plan)
                times.append((time.perf_counter() - t0) * 1000.0)
            rows.append(
                TimingRow(
                    scheduler=scheduler,
                    phase=phase,
                    median_ms=statistics.median(times),
                    p10_ms=float(np.percentile(times, 10)),
                    p90_ms=float(np.percentile(times, 90)),
                )
            )
    return rows


def write_bench_csv(rows, path):
    with open(path, "w") as f:
        f.write("scheduler,phase,median_ms,p10_ms,p90_ms\n")
        for r in rows:
            f.write(
                f"{r.scheduler},{r.phase},"
                f"{r.median_ms:.6g},{r.p10_ms:.6g},{r.p90_ms:.6g}\n"
            )


# --- gradient-check suite ---------------------------------------------------


def random_smooth_graph(rng, sharpness=25.0):
    """Random smooth-twin MLP: depth 1-3 LIF blocks, widths 2-8, float64."""
    depth = int(rng.integers(1, 4))
    n_in = int(rng.integers(2, 9))
    layers = []
    width_in = n_in
    for _ in range(depth):
        width = int(rng.integers(2, 9))
        layers.append(linear_layer(width, in_features=width_in))
        layers.append(lif_layer(width, params=LIFParams(), smooth_sharpness=sharpness))
        width_in = width
    seed = int(rng.integers(0, 2**31))
    return sequential(layers, input_shape=(n_in,), seed=seed, dtype=np.float64), n_in, width_in


def gradcheck_run(eps=1e-6, seed=0, n_archs=5, threshold=1e-4):
    """AD-vs-FD sweep over random smooth architectures; returns a GradReport."""
    rng = np.random.default_rng(_int_at_least("seed", seed, 0))
    plan = ExecutionPlan("step_by_step")
    reports = []
    per_param = {}
    for a in range(n_archs):
        graph, n_in, n_out = random_smooth_graph(rng)
        t_steps = int(rng.choice([3, 10]))
        batch = []
        for b in range(2):
            x = rng.uniform(-2.0, 2.0, size=(t_steps, n_in))
            target = np.zeros(n_out)
            target[int(rng.integers(0, n_out))] = 1.0
            batch.append((Tensor(x, dtype=np.float64), target))
        _, ad = training.loss_and_grad(graph, plan, batch)
        fd = training.fd_gradient(graph, plan, batch, eps=eps)
        rep = training.compare_gradients(ad, fd, threshold=threshold)
        reports.append(rep)
        for name, errs in rep.per_param.items():
            per_param[f"arch{a}/{name}"] = errs
    max_rel = max(r.max_rel_error for r in reports)
    mean_rel = float(np.mean([r.mean_rel_error for r in reports]))
    return training.GradReport(
        per_param=per_param,
        max_rel_error=max_rel,
        mean_rel_error=mean_rel,
        threshold=threshold,
        passed=max_rel < threshold,
    )


# --- CLI ---------------------------------------------------------------------


def _default_train_config():
    return {
        "version": 1,
        "epochs": 50,
        "batch_size": 32,
        "learning_rate": 1e-3,
        "optimizer": "adam",
        "seed": 0,
        "scheduler": "step_by_step",
        "hidden": 64,
        "classes": 3,
        "n_in": 12,
        "steps": 20,
        "samples_per_class": 100,
        "init_state_mode": "zeros",
    }


def _train_from_config(cfg, data, metrics_path):
    plan = ExecutionPlan(cfg["scheduler"])
    config = training.TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        optimizer=cfg.get("optimizer", "adam"),
        seed=cfg.get("seed", 0),
        plan=plan,
        init_state_mode=cfg.get("init_state_mode", "zeros"),
    )
    if data == "toy":
        dataset = gen_toy(
            cfg["classes"], cfg["n_in"], cfg["steps"], cfg["samples_per_class"],
            seed=cfg.get("seed", 0),
        )
        n_in, classes = cfg["n_in"], cfg["classes"]
    else:
        loaded = np.load(data)
        if not isinstance(loaded, np.lib.npyio.NpzFile):
            raise ValidationError(f"{data} holds one array, not an .npz of inputs and targets")
        inputs, targets = loaded["inputs"], loaded["targets"]
        if inputs.ndim != 3 or targets.ndim != 2 or len(inputs) != len(targets):
            raise ValidationError(f"{data}: inputs must be [N, T, n_in] and targets [N, classes], "
                                  f"got {inputs.shape} and {targets.shape}")
        dataset = [(Tensor(inputs[i]), targets[i]) for i in range(inputs.shape[0])]
        n_in, classes = inputs.shape[-1], targets.shape[-1]
    graph = sequential(
        [
            linear_layer(cfg["hidden"], in_features=n_in),
            lif_layer(cfg["hidden"]),
            linear_layer(classes, in_features=cfg["hidden"]),
            lif_layer(classes),
        ],
        input_shape=(n_in,),
        seed=cfg.get("seed", 0),
    )
    graph, metrics = training.train(graph, dataset, config)
    if metrics_path:
        training.write_metrics(metrics_path, metrics)
    final = metrics[-1]
    print(f"trained {len(metrics)} epochs: loss {final[1]:.4f}, accuracy {final[2]:.3f}")
    return 0


def _load_input_csv(path, shape):
    """One flattened time step per line, reshaped to [T, *shape]."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as e:
                raise ValidationError(f"{path} line {lineno}: {e}") from None
    if not rows:
        raise ValidationError(f"input file {path} is empty")
    n = math.prod(shape)
    bad = next((len(r) for r in rows if len(r) != n), None)
    if bad is not None:
        raise ShapeError(f"an input row has {bad} values, the graph takes {n} per step")
    return Tensor(np.asarray(rows).reshape((len(rows),) + tuple(shape)))


def _simulate(graph_path, input_path, trace_path):
    graph = topology.load_graph(graph_path)
    inputs = _load_input_csv(input_path, executor.input_shape(graph))
    states = executor.init_states(graph)
    _, record = executor.run(
        graph, ExecutionPlan("step_by_step"), inputs, states, record_hidden=True
    )
    if trace_path:
        executor.write_trace(record, trace_path)
    counts = record.outputs[graph.output_nodes[0]].data.sum(axis=0)
    print("output spike counts:", np.array2string(counts, precision=6))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spikegrad",
        description="Spiking network simulation, training, and scheduler benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="time both schedulers and write a CSV")
    p_bench.add_argument("--spec", help="BenchSpec JSON file (defaults to desk scale)")
    p_bench.add_argument("--out", required=True, help="output CSV path")

    p_train = sub.add_parser("train", help="train a 2-layer LIF MLP")
    p_train.add_argument("--config", help="TrainConfig JSON file")
    p_train.add_argument("--data", default="toy", help="'toy' or a .npz dataset path")
    p_train.add_argument("--metrics", help="metrics CSV output path")

    p_grad = sub.add_parser("gradcheck", help="run the finite-difference oracle suite")
    p_grad.add_argument("--eps", type=float, default=1e-6)
    p_grad.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="run a serialized graph on a CSV input")
    p_sim.add_argument("--graph", required=True)
    p_sim.add_argument("--input", required=True)
    p_sim.add_argument("--trace", help="spike raster CSV output path")
    return parser


def cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        if args.command == "bench":
            if args.spec:
                with open(args.spec) as f:
                    spec = BenchSpec.from_json(json.load(f))
            else:
                spec = BenchSpec()
            rows = bench(spec)
            write_bench_csv(rows, args.out)
            for r in rows:
                print(f"{r.scheduler} {r.phase}: {r.median_ms:.3f} ms")
            return 0
        if args.command == "train":
            cfg = _default_train_config()
            if args.config:
                with open(args.config) as f:
                    loaded = json.load(f)
                unknown = sorted(set(loaded) - set(cfg))
                if unknown:
                    raise ValidationError(f"unknown train config keys {unknown}")
                toy_only = sorted(set(loaded) & {"classes", "n_in", "steps", "samples_per_class"})
                if args.data != "toy" and toy_only:
                    raise ValidationError(f"train config keys {toy_only} set the toy data; "
                                          f"{args.data} gives its own sizes")
                cfg.update(loaded)
            return _train_from_config(cfg, args.data, args.metrics)
        if args.command == "gradcheck":
            report = gradcheck_run(eps=args.eps, seed=args.seed)
            print(report.summary())
            return 0 if report.passed else 2
        if args.command == "simulate":
            return _simulate(args.graph, args.input, args.trace)
    except (ValidationError, ShapeError, ContractError, GraphError, PlanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except training.TrainingDiverged as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    return 1


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
