"""Tests of the benchmark itself: tiny-size smoke runs, the metric names
against BENCHMARK.json, and the correctness checks tripping on bad results.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from spikegrad import ops
from tracing import Aggregate, Tracer, traced
from workloads import WORKLOADS, Tally, Trainer, check_step, reference_loss_and_grad, run_steps

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "mlp_lbl": replace(WORKLOADS["mlp_lbl"], input_shape=(6,), width=8, steps=6, batch=2),
    "cnn_lbl": replace(WORKLOADS["cnn_lbl"], input_shape=(2, 5, 5), width=3, steps=4, batch=2),
    "rsnn_ckpt": replace(WORKLOADS["rsnn_ckpt"], input_shape=(6,), width=8, steps=6, batch=2,
                         checkpoint_every=3),
}


def printed_result(capsys, tally, metrics):
    run.report(tally.failed == 0, tally.attempted, tally.failed, metrics)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_smoke_run_prints_benchmark_json_metrics(name, trace, capsys):
    tally, metrics, _ = run.run_workload(TINY[name], seed=3, seconds=0.2, trace=trace)
    result = printed_result(capsys, tally, metrics)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, tally.errors
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        n: m["unit"] for n, m in result["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert ops.matmul.__module__ == "spikegrad.ops"  # wrappers removed again


def test_cli_all_workloads_prints_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert result["correct"] and set(result["metrics"]) == expected


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp_lbl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _one_step(name, decomposed):
    w = TINY[name]
    trainer = Trainer(w, workloads.build_graph(w, 0), decomposed)
    batch = workloads.make_batches(w, 0)[0]
    loss, before, probed = trainer.step(batch, 1)
    return trainer, batch, loss, before, probed, trainer.forward(batch)


def _nudged(grads):
    """Copy of grads with one element moved by one unit in the last place."""
    out = {k: v.copy() for k, v in grads.items()}
    flat = out[sorted(out)[0]].reshape(-1)
    flat[0] = np.nextafter(flat[0], np.inf)
    return out


@pytest.mark.parametrize("name,decomposed", [("mlp_lbl", True), ("cnn_lbl", True),
                                             ("rsnn_ckpt", False)])
def test_check_passes_then_trips_on_one_ulp_gradient_error(name, decomposed):
    trainer, batch, loss, before, probed, outs = _one_step(name, decomposed)
    ref = reference_loss_and_grad
    assert check_step(trainer, batch, 1, loss, before, probed, outs, ref) is None
    wrong = (probed[0], _nudged(probed[1]))
    assert "differ" in check_step(trainer, batch, 1, loss, before, wrong, outs, ref)


def test_check_trips_on_scheduler_mismatch_and_non_finite_loss():
    trainer, batch, loss, before, probed, outs = _one_step("mlp_lbl", decomposed=False)
    ref = reference_loss_and_grad
    flipped = [o.copy() for o in outs]
    flipped[1][0, 0] = 1.0 - flipped[1][0, 0]
    assert "step_by_step" in check_step(trainer, batch, 1, loss, before, probed, flipped, ref)
    assert "non-finite" in check_step(trainer, batch, 1, float("nan"), before, probed, outs, ref)


def test_wrong_checkpointed_gradient_fails_the_run(monkeypatch, capsys):
    honest = workloads.executor.run_with_checkpointing

    def wrong(*args, **kwargs):
        loss, grads, stats = honest(*args, **kwargs)
        return loss, _nudged(grads), stats

    monkeypatch.setattr(workloads.executor, "run_with_checkpointing", wrong)
    monkeypatch.setitem(WORKLOADS, "rsnn_ckpt", TINY["rsnn_ckpt"])
    code = run.main(["--workload", "rsnn_ckpt", "--seed", "2", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_traced_steps_fold_spans_and_restore_functions():
    w = TINY["mlp_lbl"]
    trainer = Trainer(w, workloads.build_graph(w, 0), decomposed=True)
    batches = workloads.make_batches(w, 0)
    original = ops.add
    tracer, agg = Tracer(), Aggregate()
    with traced(tracer):
        tally = run_steps(trainer, batches, 0.0, reference_loss_and_grad, Tally(), tracer, agg)
    assert ops.add is original and tracer.spans == []
    assert tally.failed == 0 and tally.attempted == 1
    # the training step records on tapes; the forward pass is untaped
    assert agg.calls("bench.train_step", "tensor.Tape.record") > 0
    assert agg.calls("bench.forward", "tensor.Tape.record") == 0


def test_tail_has_ten_values_above_it():
    values = list(range(1, 41))
    value, pct, n = workloads.tail(values)
    assert n == 40 and sum(v > value for v in values) == 10 and pct == 75.0
    assert workloads.tail([3.0, 1.0]) == (3.0, 100.0, 2)
