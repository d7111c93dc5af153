"""Synthetic data generators, benchmark harness, and CLI exit codes."""

import json

import numpy as np
import pytest

from spikegrad import topology
from spikegrad.benchcli import (
    CNN_CLASSES,
    BenchSpec,
    TimingRow,
    bench,
    build_bench_graph,
    cli,
    gen_random_spikes,
    gen_toy,
    gradcheck_run,
    write_bench_csv,
)
from spikegrad.tensor import ValidationError
from spikegrad.topology import lif_layer, linear_layer, sequential


class TestGenRandomSpikes:
    def test_rate_zero_and_one(self):
        assert gen_random_spikes(5, 10, 0.0).data.sum() == 0
        assert gen_random_spikes(5, 10, 1.0).data.sum() == 50

    def test_rate_statistics(self):
        spikes = gen_random_spikes(100, 100, 0.2, seed=1).data
        assert abs(spikes.mean() - 0.2) < 0.02

    def test_values_binary_and_shape(self):
        s = gen_random_spikes((2, 4, 4), 7, 0.5).data
        assert s.shape == (7, 2, 4, 4)
        assert set(np.unique(s)) <= {0.0, 1.0}

    def test_deterministic(self):
        a = gen_random_spikes(8, 20, 0.3, seed=9).data
        b = gen_random_spikes(8, 20, 0.3, seed=9).data
        assert np.array_equal(a, b)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError):
            gen_random_spikes(5, 10, 1.5)


class TestGenToy:
    def test_sizes_and_targets(self):
        data = gen_toy(3, 12, 20, 10, seed=0)
        assert len(data) == 30
        for spikes, target in data:
            assert spikes.shape == (20, 12)
            assert target.shape == (3,) and target.sum() == 1.0

    def test_deterministic(self):
        a = gen_toy(3, 12, 10, 5, seed=2)
        b = gen_toy(3, 12, 10, 5, seed=2)
        for (sa, ta), (sb, tb) in zip(a, b):
            assert np.array_equal(sa.data, sb.data)
            assert np.array_equal(ta, tb)

    def test_block_rate_structure_is_separable(self):
        # nearest-block-count classification should be nearly perfect
        classes, n_in = 3, 12
        data = gen_toy(classes, n_in, 20, 40, seed=1)
        block = n_in // classes
        correct = 0
        for spikes, target in data:
            counts = spikes.data.sum(axis=0)
            sums = [counts[c * block:(n_in if c == classes - 1 else (c + 1) * block)].mean()
                    for c in range(classes)]
            correct += int(np.argmax(sums) == np.argmax(target))
        assert correct / len(data) >= 0.95

    def test_validation(self):
        with pytest.raises(ValidationError):
            gen_toy(1, 12, 10, 5)
        with pytest.raises(ValidationError):
            gen_toy(5, 3, 10, 5)


class TestBenchSpec:
    def test_defaults_valid(self):
        spec = BenchSpec()
        assert spec.arch == "mlp" and spec.repeats == 10

    def test_too_few_repeats_rejected(self):
        with pytest.raises(ValidationError):
            BenchSpec(repeats=2)

    def test_bad_arch_rejected(self):
        with pytest.raises(ValidationError):
            BenchSpec(arch="transformer")

    def test_bad_steps_rejected(self):
        with pytest.raises(ValidationError):
            BenchSpec(steps=0)

    def test_from_json_roundtrip(self):
        spec = BenchSpec.from_json({"version": 1, "arch": "mlp", "width": 32,
                                    "schedulers": ["layer_by_layer"]})
        assert spec.width == 32 and spec.schedulers == ("layer_by_layer",)

    def test_timing_row_percentile_order(self):
        with pytest.raises(ValidationError):
            TimingRow("step_by_step", "forward", 1.0, 2.0, 3.0)


def small_spec(**kw):
    return BenchSpec(width=4, depth=1, n_in=4, steps=3, batch_size=1, repeats=3, **kw)


class TestBench:
    def test_build_graph_shapes(self):
        g = build_bench_graph(small_spec())
        assert g.nodes[-1].out_shape == (4,)
        g = build_bench_graph(BenchSpec(arch="cnn", depth=1, channels=4,
                                        image_size=8, steps=2))
        assert g.nodes[1].out_shape == (4, 8, 8)
        assert g.nodes[-1].out_shape == (CNN_CLASSES,)

    def test_bench_rows(self):
        rows = bench(small_spec())
        # 2 schedulers x 2 phases
        assert len(rows) == 4
        for r in rows:
            assert r.median_ms > 0
            assert r.p10_ms <= r.median_ms <= r.p90_ms
        assert {r.phase for r in rows} == {"forward", "forward_backward"}

    def test_write_csv(self, tmp_path):
        rows = [TimingRow("step_by_step", "forward", 2.0, 1.5, 2.5)]
        path = tmp_path / "bench.csv"
        write_bench_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scheduler,phase,median_ms,p10_ms,p90_ms"
        assert lines[1] == "step_by_step,forward,2,1.5,2.5"


class TestGradcheckRun:
    def test_single_arch_passes(self):
        report = gradcheck_run(seed=3, n_archs=1)
        assert report.passed, report.summary()
        assert report.per_param  # per-arch, per-parameter errors recorded


class TestCli:
    def test_unknown_flag_exits_1(self, capsys):
        assert cli(["bench", "--frobnicate"]) == 1

    def test_missing_subcommand_exits_1(self):
        assert cli([]) == 1

    def test_bench_bad_spec_exits_1(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"repeats": 0}))
        code = cli(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "repeats" in capsys.readouterr().err

    def test_bench_small_spec_writes_csv(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "width": 4, "depth": 1, "n_in": 4, "steps": 3,
            "batch_size": 1, "repeats": 3,
        }))
        out = tmp_path / "bench.csv"
        assert cli(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("scheduler,phase")

    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    def test_bench_each_arch_exits_0(self, arch, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "arch": arch, "width": 4, "channels": 2, "depth": 1, "n_in": 4,
            "in_channels": 1, "image_size": 4, "steps": 3,
            "batch_size": 1, "repeats": 3,
        }))
        out = tmp_path / "bench.csv"
        assert cli(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert {tuple(r.split(",")[:2]) for r in rows} == {
            (s, p) for s in ("step_by_step", "layer_by_layer")
            for p in ("forward", "forward_backward")
        }
        assert "layer_by_layer forward_backward" in capsys.readouterr().out

    def test_bench_spec_unrolls_key_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"unrolls": [1, 8]}))
        code = cli(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "unrolls" in capsys.readouterr().err

    def test_train_toy_exits_0(self, tmp_path, capsys):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({
            "epochs": 1, "batch_size": 8, "hidden": 8, "classes": 2,
            "n_in": 6, "steps": 5, "samples_per_class": 4,
        }))
        metrics = tmp_path / "metrics.csv"
        code = cli(["train", "--config", str(cfg_path), "--metrics", str(metrics)])
        assert code == 0
        assert metrics.read_text().startswith("epoch,mean_loss,accuracy,wall_ms")
        assert "trained 1 epochs" in capsys.readouterr().out

    def test_train_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "unroll": 8}))
        assert cli(["train", "--config", str(cfg_path)]) == 1
        assert "unroll" in capsys.readouterr().err

    def test_train_missing_config_file_exits_1(self, tmp_path):
        assert cli(["train", "--config", str(tmp_path / "nope.json")]) == 1

    def test_simulate_roundtrip(self, tmp_path, capsys):
        g = sequential([linear_layer(3, in_features=2), lif_layer(3)],
                       input_shape=(2,), seed=0)
        graph_path = tmp_path / "net.json"
        topology.save_graph(g, graph_path)
        input_path = tmp_path / "input.csv"
        input_path.write_text("1,0\n0,1\n1,1\n")
        trace_path = tmp_path / "trace.csv"
        code = cli(["simulate", "--graph", str(graph_path),
                    "--input", str(input_path), "--trace", str(trace_path)])
        assert code == 0
        assert "output spike counts" in capsys.readouterr().out
        assert trace_path.read_text().startswith("t,node_id,neuron_idx,spike")

    def test_simulate_missing_graph_exits_1(self, tmp_path):
        assert cli(["simulate", "--graph", str(tmp_path / "x.json"),
                    "--input", str(tmp_path / "x.csv")]) == 1

    def test_simulate_empty_input_exits_1(self, tmp_path, capsys):
        g = sequential([lif_layer(2)], input_shape=(2,))
        graph_path = tmp_path / "net.json"
        topology.save_graph(g, graph_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert cli(["simulate", "--graph", str(graph_path), "--input", str(empty)]) == 1
