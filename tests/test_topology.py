"""Graph construction: chains, feedback, general graphs, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikegrad import executor
from spikegrad.executor import ExecutionPlan
from spikegrad.neurons import LIFParams
from spikegrad.surrogates import get_surrogate
from spikegrad.tensor import ValidationError
from spikegrad.topology import (
    CycleError,
    GraphError,
    conv_layer,
    flatten_layer,
    from_json,
    graph_build,
    lif_layer,
    linear_layer,
    load_graph,
    save_graph,
    sequential,
    sequential_recurrent,
    to_json,
    topo_order,
)
from spikegrad.training import TrainConfig, train


@st.composite
def trained_graph_cases(draw):
    """(build(dtype), dataset, TrainConfig): a random MLP, recurrent net or
    CNN with random widths, LIF constants and surrogate, a random two-class
    spike dataset and a short SGD or Adam run."""
    kind = draw(st.sampled_from(["mlp", "recurrent", "cnn"]))
    seed = draw(st.integers(0, 2**16))
    # surrogates without a compact support, and slopes and thresholds low
    # enough that a step moves some float32 weight by more than an ulp
    surrogate = get_surrogate(draw(st.sampled_from(["superspike", "sigmoid_derivative", "arctan"])),
                              slope=draw(st.floats(1.0, 5.0)))
    lif = LIFParams(alpha=draw(st.floats(0.5, 0.95)), beta=draw(st.floats(0.5, 0.95)),
                    thr=draw(st.floats(0.1, 0.5)), surrogate=surrogate,
                    reset=draw(st.sampled_from(["subtract", "to_zero"])))
    hidden = draw(st.integers(2, 6))
    if kind == "cnn":
        stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 1))
        in_shape = (draw(st.integers(1, 2)), draw(st.integers(3, 6)), draw(st.integers(3, 6)))
        layers = [conv_layer(in_shape[0], hidden, 3, stride=stride, padding=padding),
                  lif_layer(params=lif), flatten_layer(), linear_layer(2), lif_layer(2, lif)]
    else:
        in_shape = (draw(st.integers(2, 5)),)
        layers = [linear_layer(hidden, in_features=in_shape[0]), lif_layer(hidden, lif),
                  linear_layer(2), lif_layer(2, lif)]

    def build(dtype):
        if kind == "recurrent":
            return sequential_recurrent(layers, feedback=[(3, 1)], input_shape=in_shape,
                                        seed=seed, dtype=dtype)
        return sequential(layers, input_shape=in_shape, seed=seed, dtype=dtype)

    rng = np.random.default_rng(seed)
    steps = draw(st.integers(2, 6))
    data = [((rng.random((steps,) + in_shape) < 0.5).astype(np.float64), np.eye(2)[i % 2])
            for i in range(4)]
    cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=0.1,
                      optimizer=draw(st.sampled_from(["sgd", "adam"])), seed=seed)
    return build, data, cfg


class TestSequential:
    def test_mlp_shapes_and_params(self):
        g = sequential(
            [linear_layer(8, in_features=4), lif_layer(8),
             linear_layer(3), lif_layer(3)],
            input_shape=(4,),
        )
        assert [n.out_shape for n in g.nodes] == [(8,), (8,), (3,), (3,)]
        assert g.params["node0.weight"].shape == (4, 8)
        assert g.params["node2.weight"].shape == (8, 3)
        assert g.input_nodes == [0] and g.output_nodes == [3]

    def test_conv_chain_shapes(self):
        # conv(2->8, k5) on 2x17x17 -> 8x13x13, then flatten -> linear -> lif
        g = sequential(
            [conv_layer(2, 8, 5), lif_layer(), flatten_layer(),
             linear_layer(10), lif_layer(10)],
            input_shape=(2, 17, 17),
        )
        assert g.nodes[0].out_shape == (8, 13, 13)
        assert g.nodes[1].out_shape == (8, 13, 13)
        assert g.nodes[2].out_shape == (8 * 13 * 13,)
        assert g.nodes[3].in_features == 8 * 13 * 13
        assert g.nodes[4].out_shape == (10,)
        assert g.params["node0.weight"].shape == (8, 2, 5, 5)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            sequential([], input_shape=(3,))

    def test_linear_feature_mismatch_names_layer(self):
        with pytest.raises(GraphError) as exc:
            sequential(
                [linear_layer(5, in_features=4, name="front"),
                 linear_layer(2, in_features=7, name="back")],
                input_shape=(4,),
            )
        msg = str(exc.value)
        assert "back" in msg and "7" in msg and "(5,)" in msg

    def test_weight_init_bound_and_determinism(self):
        g1 = sequential([linear_layer(16, in_features=100)], input_shape=(100,), seed=3)
        g2 = sequential([linear_layer(16, in_features=100)], input_shape=(100,), seed=3)
        g3 = sequential([linear_layer(16, in_features=100)], input_shape=(100,), seed=4)
        w = g1.params["node0.weight"]
        assert np.abs(w).max() <= 1.0 / np.sqrt(100)
        assert np.array_equal(w, g2.params["node0.weight"])
        assert not np.array_equal(w, g3.params["node0.weight"])

    def test_shape_inference_needs_input_shape(self):
        with pytest.raises(GraphError):
            sequential([lif_layer(), lif_layer()])  # nothing to anchor shapes


class TestSequentialRecurrent:
    def test_feedback_edge_same_shape_no_projection(self):
        g = sequential_recurrent(
            [linear_layer(6, in_features=4), lif_layer(6)],
            feedback=[(1, 1)],
            input_shape=(4,),
        )
        assert (1, 1, 1) in g.edges
        assert "edge1_1.proj" not in g.params  # lif input shape matches its output

    def test_feedback_projection_when_shapes_differ(self):
        g = sequential_recurrent(
            [linear_layer(6, in_features=4), lif_layer(6),
             linear_layer(3), lif_layer(3)],
            feedback=[(3, 1)],
            input_shape=(4,),
        )
        assert (3, 1, 1) in g.edges
        assert g.params["edge3_1.proj"].shape == (3, 6)

    def test_forward_feedback_rejected(self):
        with pytest.raises(GraphError):
            sequential_recurrent(
                [lif_layer(3), lif_layer(3)], feedback=[(0, 1)], input_shape=(3,)
            )

    def test_out_of_range_feedback_rejected(self):
        with pytest.raises(GraphError):
            sequential_recurrent([lif_layer(3)], feedback=[(5, 0)], input_shape=(3,))


class TestBuilderArguments:
    @pytest.mark.parametrize("build", [
        # int() would make this a stride-2, padding-1 layer
        lambda: conv_layer(2, 4, 3, stride=2.5, padding=True),
        # shape inference divides by the stride
        lambda: conv_layer(2, 4, 3, stride=0),
        lambda: conv_layer(2, 4, 3, padding=1.5),
        lambda: conv_layer(2, 4, 3, padding=-1),
        lambda: conv_layer(2.5, 4, 3),
        lambda: conv_layer(2, True, 3),
        lambda: conv_layer(2, 4, 2.0),
        lambda: conv_layer(2, 4, 0),
        lambda: linear_layer(2.5),
        lambda: linear_layer(True),
        lambda: linear_layer(0),
        lambda: linear_layer(4, in_features=3.5),
        lambda: linear_layer(4, in_features=False),
        lambda: lif_layer(2.5),
        lambda: lif_layer(True),
        lambda: lif_layer((2, 2.5)),
        lambda: lif_layer((3, 0)),
    ])
    def test_non_integral_or_bool_sizes_rejected(self, build):
        with pytest.raises(ValidationError):
            build()

    def test_numpy_ints_accepted_as_ints(self):
        conv = conv_layer(np.int64(2), np.int32(4), np.int64(3), stride=np.int64(2),
                          padding=np.int8(1))
        assert (conv.in_channels, conv.out_channels, conv.kernel, conv.stride,
                conv.padding) == (2, 4, 3, 2, 1)
        assert all(type(v) is int for v in (conv.in_channels, conv.out_channels,
                                             conv.kernel, conv.stride, conv.padding))
        lin = linear_layer(np.int64(5), in_features=np.uint8(3))
        assert (lin.out_features, lin.in_features) == (5, 3)
        assert lif_layer(np.int64(4)).shape == (4,)
        assert lif_layer((np.int64(2), 3)).shape == (2, 3)
        g = sequential([conv, lif_layer(), flatten_layer(), linear_layer(np.int64(2)),
                        lif_layer(2)], input_shape=(2, 6, 6))
        assert g.node(0).out_shape == (4, 3, 3)


class TestGraphBuild:
    def diamond(self, seed=0):
        nodes = [
            linear_layer(4, in_features=3),
            linear_layer(4, in_features=4),
            linear_layer(4, in_features=4),
            linear_layer(2, in_features=4),
        ]
        edges = [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 0)]
        return graph_build(nodes, edges, input_nodes=[0], output_nodes=[3],
                           input_shape=(3,), seed=seed, dtype=np.float64)

    def test_diamond_fanin_is_summed(self):
        g = self.diamond()
        x = np.array([[0.3, -1.2, 0.7]])
        w0 = g.params["node0.weight"]
        w1 = g.params["node1.weight"]
        w2 = g.params["node2.weight"]
        w3 = g.params["node3.weight"]
        expected = ((x @ w0) @ w1 + (x @ w0) @ w2) @ w3
        states = executor.init_states(g)
        _, rec = executor.run(g, ExecutionPlan("step_by_step"), x, states)
        assert np.allclose(rec.outputs[3].data, expected, atol=1e-12)

    def test_topo_order_diamond(self):
        assert topo_order(self.diamond()) == [0, 1, 2, 3]

    def test_topo_order_tie_break_by_id(self):
        nodes = [linear_layer(2, in_features=2) for _ in range(3)]
        g = graph_build(nodes, [(2, 0, 0), (2, 1, 0)], input_nodes=[2],
                        output_nodes=[0], input_shape=(2,))
        assert topo_order(g) == [2, 0, 1]

    def test_delay0_cycle_rejected_with_witness(self):
        nodes = [lif_layer(2), lif_layer(2), lif_layer(2)]
        edges = [(0, 1, 0), (1, 2, 0), (2, 0, 0)]
        with pytest.raises(CycleError) as exc:
            graph_build(nodes, edges, input_shape=(2,))
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {0, 1, 2}
        assert str(cycle) in str(exc.value)

    def test_delay1_edge_breaks_cycle(self):
        nodes = [lif_layer(2), lif_layer(2), lif_layer(2)]
        edges = [(0, 1, 0), (1, 2, 0), (2, 0, 1)]
        g = graph_build(nodes, edges, input_shape=(2,))
        assert topo_order(g) == [0, 1, 2]

    def test_bad_delay_rejected(self):
        with pytest.raises(GraphError):
            graph_build([lif_layer(2), lif_layer(2)], [(0, 1, 2)], input_shape=(2,))

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphError):
            graph_build([lif_layer(2)], [(0, 5, 0)], input_shape=(2,))

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            graph_build([], [])

    @pytest.mark.parametrize("ends", [{"output_nodes": [9]}, {"input_nodes": [9]},
                                      {"output_nodes": []}, {"input_nodes": []},
                                      {"output_nodes": [-1]}, {"input_nodes": [0, 2]}])
    def test_input_and_output_nodes_must_exist(self, ends):
        with pytest.raises(GraphError):
            graph_build([lif_layer(2), lif_layer(2)], [(0, 1, 0)], input_shape=(2,), **ends)

    def test_declared_lif_shape_wins_and_gets_projection(self):
        # predecessor emits 6 values but the lif declares 4 neurons; a learned
        # projection bridges the mismatch instead of resizing the layer
        g = sequential([linear_layer(6, in_features=3), lif_layer(4)], input_shape=(3,))
        assert g.nodes[1].out_shape == (4,)
        assert g.params["edge0_1.proj"].shape == (6, 4)

    def test_unreachable_node_warns(self, caplog):
        import logging

        nodes = [linear_layer(2, in_features=2), linear_layer(2, in_features=2)]
        with caplog.at_level(logging.WARNING, logger="spikegrad.topology"):
            graph_build(nodes, [], input_nodes=[0], output_nodes=[0], input_shape=(2,))
        assert "unreachable" in caplog.text


class TestSerialization:
    def recurrent_graph(self):
        return sequential_recurrent(
            [linear_layer(5, in_features=3),
             lif_layer(5, params=LIFParams(alpha=0.85, beta=0.7, thr=1.2,
                                           reset="to_zero")),
             linear_layer(2), lif_layer(2)],
            feedback=[(3, 1)],
            input_shape=(3,),
            seed=7,
        )

    def test_roundtrip_structure_and_weights(self):
        g = self.recurrent_graph()
        doc = to_json(g)
        assert doc["version"] == 2
        g2 = from_json(doc)
        assert to_json(g2) == doc
        assert sorted(g2.params) == sorted(g.params)
        for name in g.params:
            assert np.array_equal(g.params[name], g2.params[name])
        p = g2.nodes[1].lif
        assert (p.alpha, p.beta, p.thr, p.reset) == (0.85, 0.7, 1.2, "to_zero")

    def test_roundtrip_behavior(self):
        g = self.recurrent_graph()
        g2 = from_json(to_json(g))
        x = np.zeros((4, 3))
        x[0] = [2.0, 2.0, 2.0]
        plan = ExecutionPlan("step_by_step")
        _, r1 = executor.run(g, plan, x, executor.init_states(g))
        _, r2 = executor.run(g2, plan, x, executor.init_states(g2))
        assert np.array_equal(r1.outputs[3].data, r2.outputs[3].data)

    def test_save_load_file(self, tmp_path):
        g = self.recurrent_graph()
        path = tmp_path / "net.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert to_json(g2) == to_json(g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=15, deadline=None)
    @given(case=trained_graph_cases())
    def test_trained_params_roundtrip_bit_identical(self, dtype, case):
        """A randomly built and trained graph survives graph JSON schema 2
        bit for bit: its dtype, every trained parameter's bytes and hence
        what it computes."""
        build, data, cfg = case
        g = build(dtype)
        seeded = {name: w.copy() for name, w in g.params.items()}
        g, _ = train(g, data, cfg)
        assert any(not np.array_equal(g.params[n], seeded[n]) for n in seeded)
        g2 = from_json(json.loads(json.dumps(to_json(g))))
        assert g2.dtype == g.dtype == dtype
        assert sorted(g2.params) == sorted(g.params)
        for name, w in g.params.items():
            assert g2.params[name].dtype == w.dtype == dtype
            assert g2.params[name].tobytes() == w.tobytes()
        x = data[0][0]
        plan = ExecutionPlan("step_by_step")
        _, a = executor.run(g, plan, x, executor.init_states(g))
        _, b = executor.run(g2, plan, x, executor.init_states(g2))
        out = g.output_nodes[0]
        assert a.outputs[out].data.tobytes() == b.outputs[out].data.tobytes()

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    @pytest.mark.parametrize("entry", ["graph_build", "sequential", "sequential_recurrent",
                                       "from_json"])
    def test_seed_must_be_a_non_negative_int(self, entry, seed):
        layers = [linear_layer(3, in_features=2), lif_layer(3)]
        doc1 = {k: v for k, v in to_json(sequential(layers, input_shape=(2,))).items()
                if k not in ("dtype", "params")}
        build = {
            "graph_build": lambda: graph_build(layers, [(0, 1, 0)], input_shape=(2,), seed=seed),
            "sequential": lambda: sequential(layers, input_shape=(2,), seed=seed),
            "sequential_recurrent": lambda: sequential_recurrent(
                layers, feedback=[(1, 1)], input_shape=(2,), seed=seed),
            "from_json": lambda: from_json(dict(doc1, version=1, seed=seed)),
        }[entry]
        with pytest.raises(ValidationError, match="seed"):
            build()

    def test_version_1_document_gets_seeded_weights(self):
        g = self.recurrent_graph()
        seeded = {name: w.copy() for name, w in g.params.items()}
        g.params = {name: w + 1.0 for name, w in g.params.items()}
        doc1 = {k: v for k, v in to_json(g).items() if k not in ("dtype", "params")}
        doc1["version"] = 1
        g1 = from_json(doc1)
        assert g1.dtype == g.dtype
        for name, w in seeded.items():
            assert g1.params[name].dtype == w.dtype
            assert np.array_equal(g1.params[name], w)

    def test_dtype_argument_casts_stored_params(self):
        g = sequential([linear_layer(3, in_features=2), lif_layer(3)],
                       input_shape=(2,), seed=1, dtype=np.float64)
        g.params = {name: w / 3.0 for name, w in g.params.items()}
        g32 = from_json(to_json(g), dtype=np.float32)
        assert g32.dtype == np.float32
        for name, w in g.params.items():
            assert g32.params[name].dtype == np.float32
            assert np.array_equal(g32.params[name], w.astype(np.float32))

    @pytest.mark.parametrize("edit", ["missing", "extra", "shape", "text", "dtype"])
    def test_bad_stored_params_rejected(self, edit):
        from spikegrad.tensor import ValidationError

        doc = to_json(self.recurrent_graph())
        name = sorted(doc["params"])[0]
        if edit == "missing":
            del doc["params"][name]
        elif edit == "extra":
            doc["params"]["node9.weight"] = [[0.0]]
        elif edit == "shape":
            doc["params"][name] = doc["params"][name][1:]
        elif edit == "text":
            doc["params"][name][0][0] = "x"
        else:
            doc["dtype"] = "int8"
        with pytest.raises(ValidationError):
            from_json(doc)

    def test_unknown_version_rejected(self):
        from spikegrad.tensor import ValidationError

        doc = to_json(self.recurrent_graph())
        doc["version"] = 99
        with pytest.raises(ValidationError):
            from_json(doc)

    def test_smooth_sharpness_roundtrips(self):
        g = sequential(
            [linear_layer(3, in_features=2), lif_layer(3, smooth_sharpness=25.0)],
            input_shape=(2,),
        )
        g2 = from_json(to_json(g))
        assert g2.nodes[1].smooth_sharpness == 25.0
