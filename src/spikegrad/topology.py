"""Network construction: feed-forward chains, chains with delayed feedback,
and general graphs whose cycles are broken by one-step-delayed edges.

Edges carry a delay of 0 (instantaneous) or 1 (value produced at step t is
consumed at step t+1). The delay-0 subgraph must be acyclic; execution order
is its topological order with ties broken by ascending node id. Where a
feedback or merge edge's source shape does not match the target's input
shape, a learned linear projection is attached to the edge and fan-in is
merged by summation.
"""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .neurons import LIFParams
from .surrogates import SurrogateFn
from .tensor import ValidationError, _int_at_least, default_dtype

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 2  # version 2 adds dtype and params; version 1 is still read


class GraphError(ValueError):
    """Invalid network structure."""


class CycleError(GraphError):
    """A delay-0 cycle was found; .cycle lists the offending node ids."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"delay-0 cycle through nodes {self.cycle}")


@dataclass
class LayerNode:
    kind: str  # 'lif' | 'linear' | 'conv' | 'flatten'
    id: int = -1
    name: str = ""
    # lif
    shape: tuple | None = None
    lif: LIFParams | None = None
    smooth_sharpness: float | None = None
    # linear
    in_features: int | None = None
    out_features: int | None = None
    # conv
    in_channels: int | None = None
    out_channels: int | None = None
    kernel: int | None = None
    stride: int = 1
    padding: int = 0
    # filled during build
    in_shape: tuple | None = None
    out_shape: tuple | None = None

    @property
    def stateful(self):
        return self.kind == "lif"

    def label(self):
        return self.name or f"{self.kind}#{self.id}"


def lif_layer(shape=None, params=None, name="", smooth_sharpness=None):
    if shape is not None:
        shape = tuple(_int_at_least("lif shape", n, 1)
                      for n in ((shape,) if np.isscalar(shape) else shape))
    return LayerNode(
        kind="lif",
        name=name,
        shape=shape,
        lif=params or LIFParams(),
        smooth_sharpness=smooth_sharpness,
    )


def linear_layer(out_features, in_features=None, name=""):
    if in_features is not None:
        in_features = _int_at_least("in_features", in_features, 1)
    return LayerNode(kind="linear", name=name, in_features=in_features,
                     out_features=_int_at_least("out_features", out_features, 1))


def conv_layer(in_channels, out_channels, kernel, stride=1, padding=0, name=""):
    stride, padding = ops.validate_conv_args(stride, padding)
    return LayerNode(
        kind="conv",
        name=name,
        in_channels=_int_at_least("in_channels", in_channels, 1),
        out_channels=_int_at_least("out_channels", out_channels, 1),
        kernel=_int_at_least("kernel", kernel, 1),
        stride=stride,
        padding=padding,
    )


def flatten_layer(name=""):
    return LayerNode(kind="flatten", name=name)


@dataclass
class NetworkGraph:
    nodes: list
    edges: list  # (src, dst, delay)
    input_nodes: list
    output_nodes: list
    params: dict = field(default_factory=dict)  # name -> np.ndarray
    seed: int = 0
    dtype: np.dtype = None
    input_shape: tuple | None = None

    def node(self, nid):
        return self.nodes[nid]

    def in_edges(self, nid):
        return [(s, d, dl) for (s, d, dl) in self.edges if d == nid]

    def has_delay_edges(self):
        return any(dl == 1 for (_, _, dl) in self.edges)

    def stateful_nodes(self):
        return [n.id for n in self.nodes if n.stateful]

    def param_name(self, nid):
        return f"node{nid}.weight"

    def proj_name(self, src, dst):
        return f"edge{src}_{dst}.proj"

    def copy_with_params(self, params):
        g = replace(self, params=dict(params))
        return g


def topo_order(graph):
    """Topological order of the delay-0 subgraph, ties broken by node id."""
    n = len(graph.nodes)
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for s, d, dl in graph.edges:
        if dl == 0:
            indeg[d] += 1
            succ[s].append(d)
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        for d in sorted(succ[nid]):
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(heap, d)
    if len(order) != n:
        raise CycleError(_find_delay0_cycle(graph))
    return order


def _find_delay0_cycle(graph):
    succ = {n.id: [] for n in graph.nodes}
    for s, d, dl in graph.edges:
        if dl == 0:
            succ[s].append(d)
    color = {n.id: 0 for n in graph.nodes}
    stack = []

    def dfs(u):
        color[u] = 1
        stack.append(u)
        for v in succ[u]:
            if color[v] == 1:
                return stack[stack.index(v) :] + [v]
            if color[v] == 0:
                found = dfs(v)
                if found:
                    return found
        stack.pop()
        color[u] = 2
        return None

    for nid in sorted(color):
        if color[nid] == 0:
            found = dfs(nid)
            if found:
                return found
    return []


def _flat(shape):
    return int(np.prod(shape))


def _infer_node_shapes(graph, order):
    """Fill in_shape/out_shape; returns edges needing a projection.

    A node's expected input shape is taken from the external input (for
    input nodes) or its first known incoming source, in edge order. Any
    other incoming edge whose source shape differs gets a flat learned
    projection.
    """
    need_proj = []
    for _ in range(2):  # second pass resolves delay-1 sources seen too early
        progressed = False
        for nid in order:
            node = graph.node(nid)
            if node.out_shape is not None:
                continue
            in_shape = None
            # a declared LIF shape is the layer's own state shape; mismatched
            # sources are projected onto it rather than overriding it
            if node.kind == "lif" and node.shape is not None:
                in_shape = node.shape
            if in_shape is None and nid in graph.input_nodes:
                in_shape = graph.input_shape
            if in_shape is None:
                for s, _, _ in graph.in_edges(nid):
                    src_out = graph.node(s).out_shape
                    if src_out is not None:
                        in_shape = src_out
                        break
            if in_shape is None and node.kind == "linear" and node.in_features is not None:
                in_shape = (node.in_features,)
            if in_shape is None:
                continue
            node.in_shape = tuple(in_shape)
            node.out_shape = _layer_out_shape(node)
            progressed = True
        if all(n.out_shape is not None for n in graph.nodes):
            break
        if not progressed:
            break
    unresolved = [n.label() for n in graph.nodes if n.out_shape is None]
    if unresolved:
        raise GraphError(
            f"cannot infer input shapes for {unresolved}; pass input_shape or declare shapes"
        )
    for s, d, dl in graph.edges:
        src, dst = graph.node(s), graph.node(d)
        if src.out_shape != dst.in_shape:
            if dst.kind in ("flatten", "linear") and _flat(src.out_shape) == _flat(dst.in_shape):
                continue  # flat-compatible, handled by reshape at execution
            need_proj.append((s, d, dl))
    return need_proj


def _layer_out_shape(node):
    in_shape = node.in_shape
    if node.kind == "linear":
        flat = _flat(in_shape)
        if node.in_features is None:
            node.in_features = flat
        elif node.in_features != flat:
            raise GraphError(
                f"layer {node.label()} expects {node.in_features} inputs but its "
                f"predecessor produces shape {in_shape} ({flat} values)"
            )
        return (node.out_features,)
    if node.kind == "conv":
        if len(in_shape) != 3:
            raise GraphError(
                f"conv layer {node.label()} needs a [C,H,W] input, got shape {in_shape}"
            )
        c, h, w = in_shape
        if c != node.in_channels:
            raise GraphError(
                f"conv layer {node.label()} expects {node.in_channels} channels, "
                f"predecessor produces {c}"
            )
        ho = (h + 2 * node.padding - node.kernel) // node.stride + 1
        wo = (w + 2 * node.padding - node.kernel) // node.stride + 1
        if ho < 1 or wo < 1:
            raise GraphError(
                f"conv layer {node.label()}: kernel {node.kernel} does not fit "
                f"input {h}x{w} with padding {node.padding}"
            )
        return (node.out_channels, ho, wo)
    if node.kind == "flatten":
        return (_flat(in_shape),)
    if node.kind == "lif":
        if node.shape is None:
            node.shape = tuple(in_shape)
        return node.shape
    raise GraphError(f"unknown layer kind {node.kind!r}")


def _init_params(graph, proj_edges):
    rng = np.random.default_rng(graph.seed)
    dtype = graph.dtype
    for node in graph.nodes:
        if node.kind == "linear":
            bound = 1.0 / np.sqrt(node.in_features)
            w = rng.uniform(-bound, bound, size=(node.in_features, node.out_features))
            graph.params[graph.param_name(node.id)] = w.astype(dtype)
        elif node.kind == "conv":
            fan_in = node.in_channels * node.kernel * node.kernel
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(
                -bound,
                bound,
                size=(node.out_channels, node.in_channels, node.kernel, node.kernel),
            )
            graph.params[graph.param_name(node.id)] = w.astype(dtype)
    for s, d, _ in proj_edges:
        src_flat = _flat(graph.node(s).out_shape)
        dst_flat = _flat(graph.node(d).in_shape)
        bound = 1.0 / np.sqrt(src_flat)
        w = rng.uniform(-bound, bound, size=(src_flat, dst_flat))
        graph.params[graph.proj_name(s, d)] = w.astype(dtype)


def graph_build(nodes, edges, input_nodes=None, output_nodes=None, input_shape=None,
                seed=0, dtype=None):
    """Validate a node/edge description and return an executable graph."""
    if not nodes:
        raise GraphError("graph needs at least one node")
    nodes = [replace(n) for n in nodes]
    for i, node in enumerate(nodes):
        node.id = i if node.id < 0 else node.id
    ids = [n.id for n in nodes]
    if ids != list(range(len(nodes))):
        raise GraphError(f"node ids must be 0..{len(nodes) - 1}, got {ids}")
    edges = [tuple(e) for e in edges]
    for s, d, dl in edges:
        if not (0 <= s < len(nodes) and 0 <= d < len(nodes)):
            raise GraphError(f"edge ({s}, {d}) references a nonexistent node")
        if dl not in (0, 1):
            raise GraphError(f"edge delay must be 0 or 1, got {dl}")
    if input_nodes is None:
        input_nodes = [0]
    if output_nodes is None:
        output_nodes = [len(nodes) - 1]
    for role, ends in (("input", input_nodes), ("output", output_nodes)):
        if not ends or any(nid not in range(len(nodes)) for nid in ends):
            raise GraphError(f"{role}_nodes must name nodes 0..{len(nodes) - 1}, got {ends}")
    if np.isscalar(input_shape):
        input_shape = (int(input_shape),)
    graph = NetworkGraph(
        nodes=nodes,
        edges=edges,
        input_nodes=list(input_nodes),
        output_nodes=list(output_nodes),
        seed=_int_at_least("seed", seed, 0),  # numpy's generators take no negative seed
        dtype=np.dtype(dtype) if dtype is not None else np.dtype(default_dtype()),
        input_shape=tuple(input_shape) if input_shape is not None else None,
    )
    order = topo_order(graph)  # raises CycleError on delay-0 cycles
    _check_reachability(graph)
    proj_edges = _infer_node_shapes(graph, order)
    _init_params(graph, proj_edges)
    return graph


def _check_reachability(graph):
    seen = set(graph.input_nodes)
    frontier = list(seen)
    succ = {n.id: [] for n in graph.nodes}
    for s, d, _ in graph.edges:
        succ[s].append(d)
    while frontier:
        nid = frontier.pop()
        for d in succ[nid]:
            if d not in seen:
                seen.add(d)
                frontier.append(d)
    unreachable = [n.id for n in graph.nodes if n.id not in seen]
    if unreachable:
        logger.warning("nodes unreachable from any input: %s", unreachable)


def sequential(layers, input_shape=None, seed=0, dtype=None):
    """Feed-forward chain; all edges instantaneous."""
    if not layers:
        raise GraphError("sequential needs at least one layer")
    edges = [(i, i + 1, 0) for i in range(len(layers) - 1)]
    return graph_build(
        layers, edges, input_nodes=[0], output_nodes=[len(layers) - 1],
        input_shape=input_shape, seed=seed, dtype=dtype,
    )


def sequential_recurrent(layers, feedback, input_shape=None, seed=0, dtype=None):
    """Chain plus one-step-delayed feedback edges.

    feedback: (from_layer, to_layer) index pairs with from >= to; the output
    of from_layer at step t is summed into to_layer's input at step t+1
    (through a learned projection when shapes differ).
    """
    if not layers:
        raise GraphError("sequential_recurrent needs at least one layer")
    edges = [(i, i + 1, 0) for i in range(len(layers) - 1)]
    for f, t in feedback:
        if not (0 <= t <= f < len(layers)):
            raise GraphError(
                f"feedback ({f} -> {t}) must reference existing layers with from >= to"
            )
        edges.append((f, t, 1))
    return graph_build(
        layers, edges, input_nodes=[0], output_nodes=[len(layers) - 1],
        input_shape=input_shape, seed=seed, dtype=dtype,
    )


# --- JSON serialization (schema version 2) ---------------------------------


def _node_to_json(node):
    doc = {"kind": node.kind, "id": node.id, "name": node.name}
    if node.kind == "lif":
        doc["shape"] = list(node.shape) if node.shape else None
        doc["params"] = {
            "alpha": node.lif.alpha,
            "beta": node.lif.beta,
            "thr": node.lif.thr,
            "surrogate": node.lif.surrogate.tag,
            "slope": node.lif.surrogate.slope,
            "reset": node.lif.reset,
        }
        if node.smooth_sharpness is not None:
            doc["smooth_sharpness"] = node.smooth_sharpness
    elif node.kind == "linear":
        doc["in_features"] = node.in_features
        doc["out_features"] = node.out_features
    elif node.kind == "conv":
        doc.update(
            in_channels=node.in_channels,
            out_channels=node.out_channels,
            kernel=node.kernel,
            stride=node.stride,
            padding=node.padding,
        )
    return doc


def _node_from_json(doc):
    kind = doc["kind"]
    if kind == "lif":
        p = doc.get("params", {})
        params = LIFParams(
            alpha=p.get("alpha", 0.9),
            beta=p.get("beta", 0.8),
            thr=p.get("thr", 1.0),
            surrogate=SurrogateFn(p.get("surrogate", "superspike"), p.get("slope", 10.0)),
            reset=p.get("reset", "subtract"),
        )
        node = lif_layer(
            shape=doc.get("shape"),
            params=params,
            name=doc.get("name", ""),
            smooth_sharpness=doc.get("smooth_sharpness"),
        )
    elif kind == "linear":
        node = linear_layer(
            doc["out_features"], in_features=doc.get("in_features"), name=doc.get("name", "")
        )
    elif kind == "conv":
        node = conv_layer(
            doc["in_channels"],
            doc["out_channels"],
            doc["kernel"],
            stride=doc.get("stride", 1),
            padding=doc.get("padding", 0),
            name=doc.get("name", ""),
        )
    elif kind == "flatten":
        node = flatten_layer(name=doc.get("name", ""))
    else:
        raise GraphError(f"unknown layer kind {kind!r} in graph document")
    node.id = doc.get("id", -1)
    return node


def to_json(graph):
    """The graph as a JSON-ready dict, with its dtype and its current
    parameters. Python floats print every float32 and float64 value exactly,
    so from_json restores the parameters bit for bit."""
    return {
        "version": SCHEMA_VERSION,
        "seed": graph.seed,
        "dtype": graph.dtype.name,
        "input_shape": list(graph.input_shape) if graph.input_shape else None,
        "input_nodes": list(graph.input_nodes),
        "output_nodes": list(graph.output_nodes),
        "nodes": [_node_to_json(n) for n in graph.nodes],
        "edges": [list(e) for e in graph.edges],
        "params": {name: graph.params[name].tolist() for name in sorted(graph.params)},
    }


def from_json(doc, dtype=None):
    """Rebuild a graph from to_json output. A version-2 document restores its
    stored parameters, cast to dtype when one is given and computed in the
    stored dtype otherwise; a version-1 document has none, so its weights
    are initialised from its seed."""
    version = doc.get("version")
    if version not in (1, SCHEMA_VERSION):
        raise ValidationError(
            f"unsupported graph schema version {version!r}, expected 1 or {SCHEMA_VERSION}"
        )
    if version == SCHEMA_VERSION and dtype is None:
        dtype = doc["dtype"]
        if dtype not in ("float32", "float64"):
            raise ValidationError(f"graph dtype must be float32 or float64, got {dtype!r}")
    nodes = [_node_from_json(d) for d in doc["nodes"]]
    graph = graph_build(
        nodes,
        [tuple(e) for e in doc["edges"]],
        input_nodes=doc.get("input_nodes"),
        output_nodes=doc.get("output_nodes"),
        input_shape=tuple(doc["input_shape"]) if doc.get("input_shape") else None,
        seed=doc.get("seed", 0),
        dtype=dtype,
    )
    if version == SCHEMA_VERSION:
        graph.params = _stored_params(doc["params"], graph)
    return graph


def _stored_params(stored, graph):
    """The document's parameters as graph.dtype arrays; names and shapes must
    be the ones the graph's structure defines."""
    if not isinstance(stored, dict) or sorted(stored) != sorted(graph.params):
        raise ValidationError(
            f"stored parameters {stored!r:.200} do not match the graph's {sorted(graph.params)}"
        )
    params = {}
    for name, values in stored.items():
        try:
            arr = np.asarray(values, dtype=graph.dtype)
        except (TypeError, ValueError) as e:
            raise ValidationError(f"parameter {name}: {e}") from None
        if arr.shape != graph.params[name].shape:
            raise ValidationError(
                f"parameter {name} has shape {arr.shape}, the graph needs "
                f"{graph.params[name].shape}"
            )
        params[name] = arr
    return params


def save_graph(graph, path):
    with open(path, "w") as f:
        json.dump(to_json(graph), f, indent=2)


def load_graph(path, dtype=None):
    with open(path) as f:
        return from_json(json.load(f), dtype=dtype)
