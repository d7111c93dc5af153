"""Synthetic data generators, benchmark harness, and CLI exit codes."""

import json

import numpy as np
import pytest

from spikegrad import executor, topology
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
from spikegrad.executor import ExecutionPlan
from spikegrad.tensor import ValidationError
from spikegrad.topology import lif_layer, linear_layer, sequential
from spikegrad.training import TrainConfig, train


BAD_SEEDS = [-1, 1.5, None, True]


@pytest.mark.parametrize("seed", BAD_SEEDS)
@pytest.mark.parametrize("entry", ["gen_random_spikes", "gen_toy", "gradcheck_run",
                                   "BenchSpec"])
def test_seed_must_be_a_non_negative_int(entry, seed):
    call = {
        "gen_random_spikes": lambda: gen_random_spikes(3, 4, 0.5, seed=seed),
        "gen_toy": lambda: gen_toy(2, 2, 3, 1, seed=seed),
        "gradcheck_run": lambda: gradcheck_run(seed=seed, n_archs=1),
        "BenchSpec": lambda: BenchSpec(seed=seed),
    }[entry]
    with pytest.raises(ValidationError, match="seed"):
        call()


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

    @pytest.mark.parametrize("field", ["width", "channels", "depth", "kernel", "stride",
                                       "n_in", "in_channels", "image_size", "steps",
                                       "batch_size"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True])
    def test_non_positive_or_non_integral_sizes_rejected(self, field, value):
        with pytest.raises(ValidationError):
            BenchSpec(**{field: value})

    @pytest.mark.parametrize("schedulers", [[], (), "step_by_step", None])
    def test_schedulers_must_be_a_nonempty_list(self, schedulers):
        with pytest.raises(ValidationError, match="schedulers"):
            BenchSpec(schedulers=schedulers)
        with pytest.raises(ValidationError, match="schedulers"):
            BenchSpec.from_json({"schedulers": schedulers})

    @pytest.mark.parametrize("arch, key", [
        ("mlp", "channels"), ("mlp", "kernel"), ("mlp", "stride"), ("mlp", "in_channels"),
        ("mlp", "image_size"), ("cnn", "width"), ("cnn", "n_in")])
    def test_from_json_rejects_keys_the_arch_does_not_read(self, arch, key):
        # the default value too: the key is rejected, not its value
        with pytest.raises(ValidationError, match=key):
            BenchSpec.from_json({"arch": arch, key: getattr(BenchSpec, key)})

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

    @pytest.mark.parametrize("doc,field", [({"batch_size": 0}, "batch_size"),
                                           ({"arch": "cnn", "stride": 0}, "stride")])
    def test_bench_zero_size_spec_exits_1(self, tmp_path, capsys, doc, field):
        # a bad spec is a usage error, reported on the CLI's error path
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        code = cli(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

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
        sizes = ({"width": 4, "n_in": 4} if arch == "mlp"
                 else {"channels": 2, "in_channels": 1, "image_size": 4})
        spec_path.write_text(json.dumps({
            "arch": arch, "depth": 1, "steps": 3, "batch_size": 1, "repeats": 3, **sizes,
        }))
        out = tmp_path / "bench.csv"
        assert cli(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert {tuple(r.split(",")[:2]) for r in rows} == {
            (s, p) for s in ("step_by_step", "layer_by_layer")
            for p in ("forward", "forward_backward")
        }
        assert "layer_by_layer forward_backward" in capsys.readouterr().out

    @pytest.mark.parametrize("doc, named", [
        ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"schedulers": []}, "schedulers"),
        ({"schedulers": "step_by_step"}, "schedulers"),
        ({"kernel": 7, "image_size": 99}, "'image_size', 'kernel'"),
        ({"arch": "cnn", "width": 4}, "'width'"),
    ], ids=["negative_seed", "float_seed", "no_schedulers", "scheduler_string",
            "mlp_with_cnn_keys", "cnn_with_mlp_keys"])
    def test_bench_spec_option_rejected(self, tmp_path, capsys, doc, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert cli(["bench", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    def test_gradcheck_negative_seed_exits_1(self, capsys):
        assert cli(["gradcheck", "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed")

    @pytest.mark.parametrize("seed", [-5, None, 1.5])
    def test_simulate_version_1_graph_with_bad_seed_exits_1(self, tmp_path, capsys, seed):
        g = sequential([linear_layer(3, in_features=2), lif_layer(3)], input_shape=(2,))
        doc = {k: v for k, v in topology.to_json(g).items() if k not in ("dtype", "params")}
        graph_path = tmp_path / "net.json"
        graph_path.write_text(json.dumps(dict(doc, version=1, seed=seed)))
        input_path = tmp_path / "input.csv"
        input_path.write_text("1,0\n0,1\n")
        assert cli(["simulate", "--graph", str(graph_path), "--input", str(input_path)]) == 1
        assert capsys.readouterr().err.startswith("error: seed")

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

    @staticmethod
    def _npz(tmp_path, inputs_shape=(6, 5, 4), targets_shape=(6, 2)):
        rng = np.random.default_rng(0)
        inputs = (rng.random(inputs_shape) < 0.3).astype(np.float32)
        targets = np.zeros(targets_shape)
        if len(targets_shape) == 2:
            targets[np.arange(targets_shape[0]), np.arange(targets_shape[0]) % 2] = 1.0
        path = tmp_path / "data.npz"
        np.savez(path, inputs=inputs, targets=targets)
        return path

    def test_train_npz_exits_0(self, tmp_path, capsys):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "batch_size": 3, "hidden": 4}))
        metrics = tmp_path / "metrics.csv"
        code = cli(["train", "--config", str(cfg_path), "--data", str(self._npz(tmp_path)),
                    "--metrics", str(metrics)])
        assert code == 0, capsys.readouterr().err
        assert metrics.read_text().startswith("epoch,mean_loss,accuracy,wall_ms")
        assert "trained 1 epochs" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["classes", "n_in", "steps", "samples_per_class"])
    def test_train_npz_rejects_toy_keys(self, tmp_path, capsys, key):
        # the data set gives these sizes; a config that sets them is not
        # honoured, so it is an error
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"epochs": 1, key: 3}))
        code = cli(["train", "--config", str(cfg_path), "--data", str(self._npz(tmp_path))])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("inputs_shape, targets_shape", [
        ((6, 5, 2, 3, 3), (6, 2)),
        ((5, 4), (6, 2)),
        ((6, 5, 4), (6,)),
        ((6, 5, 4), (5, 2)),
    ], ids=["image_inputs", "no_time_axis", "class_indices", "more_inputs_than_targets"])
    def test_train_npz_bad_shapes_exit_1(self, tmp_path, capsys, inputs_shape, targets_shape):
        path = self._npz(tmp_path, inputs_shape, targets_shape)
        assert cli(["train", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[N, T, n_in]" in err

    def test_train_npy_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "inputs.npy"
        np.save(path, np.zeros((6, 5, 4)))
        assert cli(["train", "--data", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_gradcheck_pass_exits_0(self, capsys):
        assert cli(["gradcheck"]) == 0
        assert "gradcheck PASS" in capsys.readouterr().out

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

    def test_simulate_image_graph_reads_flat_rows(self, tmp_path, capsys):
        g = sequential([topology.conv_layer(1, 2, 3, padding=1), lif_layer(),
                        topology.flatten_layer(), linear_layer(2), lif_layer(2)],
                       input_shape=(1, 3, 3), seed=0)
        graph_path = tmp_path / "net.json"
        topology.save_graph(g, graph_path)
        input_path = tmp_path / "input.csv"
        input_path.write_text("1,0,1,0,1,0,1,0,1\n0,1,0,1,0,1,0,1,0\n")
        assert cli(["simulate", "--graph", str(graph_path), "--input", str(input_path)]) == 0
        assert "output spike counts" in capsys.readouterr().out
        for bad in ("1,0,1\n0,1,0\n", "1,0,1,0,1,0,1,0,1\n0,1\n"):
            input_path.write_text(bad)
            assert cli(["simulate", "--graph", str(graph_path), "--input", str(input_path)]) == 1
            assert "9 per step" in capsys.readouterr().err

    def test_simulate_uses_saved_trained_weights(self, tmp_path, capsys):
        g = sequential([linear_layer(4, in_features=3), lif_layer(4), linear_layer(3),
                        lif_layer(3)], input_shape=(3,), seed=0, dtype=np.float64)
        seeded = topology.from_json(topology.to_json(g))
        g, _ = train(g, gen_toy(3, 3, 10, 4, seed=2),
                     TrainConfig(epochs=2, batch_size=4, learning_rate=0.2))
        graph_path = tmp_path / "net.json"
        topology.save_graph(g, graph_path)
        x = gen_random_spikes(3, 12, 0.6, seed=5).data
        input_path = tmp_path / "input.csv"
        input_path.write_text("".join(",".join(str(v) for v in row) + "\n" for row in x))

        def counts(graph):
            _, rec = executor.run(graph, ExecutionPlan("step_by_step"), x,
                                  executor.init_states(graph))
            return np.array2string(rec.outputs[3].data.sum(axis=0), precision=6)

        assert counts(g) != counts(seeded)
        assert cli(["simulate", "--graph", str(graph_path), "--input", str(input_path)]) == 0
        assert f"output spike counts: {counts(g)}" in capsys.readouterr().out

    def test_simulate_non_numeric_input_exits_1(self, tmp_path, capsys):
        g = sequential([lif_layer(2)], input_shape=(2,))
        graph_path = tmp_path / "net.json"
        topology.save_graph(g, graph_path)
        input_path = tmp_path / "input.csv"
        input_path.write_text("0,1\n\n1,x\n")
        assert cli(["simulate", "--graph", str(graph_path), "--input", str(input_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err and "'x'" in err

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
