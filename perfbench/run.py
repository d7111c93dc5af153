"""Training-step benchmark for spikegrad.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mlp_lbl --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no tracing; --trace 1
alternates untraced and traced runs of the decomposed training step, and
reports the per-layer metrics and the tracing overhead. --workload all runs every workload, each in
a process of its own. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 only
when every step passed its checks.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# single-threaded BLAS before numpy loads: one closed-loop caller on a small
# shared box, where extra BLAS threads mostly add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "spikegrad" / "__init__.py").is_file():
    sys.exit(f"perfbench: no spikegrad sources at {_SRC}; run from a checkout of the repository")
sys.path.insert(0, str(_SRC))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Aggregate, Tracer, layer_metrics, traced  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ReferenceWorker,
    Tally,
    full_tape_sample,
    reference_loss_and_grad,
    run_steps,
    set_up_repeatedly,
    tail,
)

def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def end_to_end(tally, setup):
    tail_ms, tail_pct, n = tail([s * 1000.0 for s in tally.step_s])
    metrics = {
        "train_samples_per_s": (tally.train_samples / sum(tally.step_s), "1/s"),
        "train_step_ms_p50": (statistics.median(tally.step_s) * 1000.0, "ms"),
        "train_step_ms_tail": (tail_ms, "ms"),
        "forward_samples_per_s": (tally.forward_samples / tally.forward_s, "1/s"),
        "setup_s": (setup["setup_s"], "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "step_success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    notes = {"train_step_ms_tail": f"p{tail_pct:.1f} of {n} steps"}
    return metrics, notes


def per_layer(trainer, batches, setup, base, tally, agg):
    """Per-layer metrics of a traced run; base is the untraced Tally."""
    steps = len(tally.step_s)
    metrics = layer_metrics(agg, tally.train_samples, tally.forward_samples, steps)
    x, target = batches[0][0]
    full_nodes = full_tape_sample(trainer.graph, trainer.plan, x, target)[2]
    if trainer.ckpt_stats is not None:
        segments = trainer.ckpt_stats["segments"]
        peak = trainer.ckpt_stats["peak_tape_nodes"]
    else:  # a full tape is one segment, replayed never
        segments, peak = 1, full_nodes
    untraced = base.train_samples / sum(base.step_s)
    traced_sps = tally.train_samples / sum(tally.step_s)
    metrics.update({
        "executor.ckpt.segments": (segments, "count"),
        "executor.ckpt.peak_tape_nodes": (peak, "count"),
        "executor.ckpt.tape_node_ratio": (peak / full_nodes, "ratio"),
        "topology.build_ms": (setup["build_s"] * 1000.0, "ms"),
        "benchcli.gen_ms": (setup["gen_s"] * 1000.0, "ms"),
        "executor.output_itemsize_bytes": (tally.output_itemsize, "bytes"),
        "training.param_itemsize_bytes": (
            max(p.itemsize for p in trainer.graph.params.values()), "bytes"),
        "trace.untraced_train_samples_per_s": (untraced, "1/s"),
        "trace.traced_train_samples_per_s": (traced_sps, "1/s"),
        "trace.overhead_ratio": (untraced / traced_sps, "ratio"),
    })
    return metrics


def run_workload(w, seed, seconds, trace):
    """Set up and measure one workload; returns (Tally, metrics, notes)."""
    # the checkpointed workload's full-tape reference runs in a worker, so
    # its tape does not count toward this process's peak_rss_mb; the worker
    # is up before any timing starts
    worker = ReferenceWorker() if w.checkpoint_every else None
    try:
        reference = worker or reference_loss_and_grad
        trainer, batches, setup = set_up_repeatedly(w, seed, decomposed=bool(trace))
        if not trace:
            tally = run_steps(trainer, batches, seconds, reference, Tally())
            return tally, *end_to_end(tally, setup)
        # untraced and traced steps alternate, so both see the same machine
        # conditions; the wrappers are installed only for the traced step
        base, tally = Tally(), Tally()
        tracer, agg = Tracer(), Aggregate()
        deadline = time.perf_counter() + seconds
        while not tally.attempted or time.perf_counter() < deadline:
            run_steps(trainer, batches, 0.0, reference, base)
            with traced(tracer):
                run_steps(trainer, batches, 0.0, reference, tally, tracer, agg)
        metrics = per_layer(trainer, batches, setup, base, tally, agg)
        tally.attempted += base.attempted
        tally.failed += base.failed
        tally.errors = base.errors + tally.errors
        return tally, metrics, {}
    finally:
        if worker is not None:
            worker.close()


def report(correct, attempted, failed, metrics, notes=None):
    notes = notes or {}
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Every workload in a child process of its own, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode} with no result")
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (m["value"], m["unit"])
    print(f"# all workloads, seed {args.seed}")
    report(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    w = WORKLOADS[args.workload]
    print(f"# environment {json.dumps(environment())}")
    print(f"# workload {json.dumps(vars(w))}")
    tally, metrics, notes = run_workload(w, args.seed, args.seconds, args.trace)
    for err in tally.errors[:5]:
        print(f"FAILED {err}", file=sys.stderr)
    correct = tally.failed == 0
    report(correct, tally.attempted, tally.failed, metrics, notes)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
