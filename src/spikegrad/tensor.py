"""Dense float tensors and the gradient tape.

A Tensor is a thin wrapper around a flat numpy array plus shape. Tensors with
no tape handle are plain immutable values; Tensors created through a Tape
carry a node_id so reverse-mode gradients can be accumulated for them.
"""

from __future__ import annotations

import numbers
import os

import numpy as np

_DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class ValidationError(ValueError):
    """An argument violates a precondition."""


class ContractError(ValueError):
    """An API contract was violated (wrong node kind, mismatched keys, ...)."""


def _int_at_least(name, value, least):
    """value as an int if it is an integral number (numpy ints too) of at
    least `least`; a bool is an int to Python, but no count or size."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an int >= {least}, got {value!r}")
    return int(value)


def _dtype_from_name(name):
    if name not in _DTYPES:
        raise ValidationError(f"unknown precision {name!r}, expected one of {sorted(_DTYPES)}")
    return _DTYPES[name]


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_default_dtype = _dtype_from_name(os.environ.get("SPIKEGRAD_PRECISION", "f32"))


def set_default_dtype(name):
    """Set the process-wide default precision ('f32' or 'f64')."""
    global _default_dtype
    _default_dtype = _dtype_from_name(name)


def default_dtype():
    return _default_dtype


class Tensor:
    """Dense n-dimensional float array, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape=None, node_id=None, dtype=None):
        # the common case first: every op result is a float32/float64 ndarray
        if dtype is None and type(data) is np.ndarray and data.dtype in _FLOAT_DTYPES:
            arr = data
        elif dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.floating)) and np.asarray(data).dtype in (
            np.float32,
            np.float64,
        ):
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=default_dtype())
        self.data = arr
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self):
        return self.data

    def __repr__(self):
        tag = f", node={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    # Convenience operators; the canonical API lives in ops.py.
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    def __radd__(self, other):
        from . import ops

        return ops.add(other, self)

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    def __rmul__(self, other):
        from . import ops

        return ops.mul(other, self)

    def __matmul__(self, other):
        from . import ops

        return ops.matmul(self, other)


class Tape:
    """Append-only record of primitive operations.

    Each node stores its op tag, the node ids of its on-tape inputs, and a
    backward closure over whatever the op saved for its gradient. Inputs
    always reference earlier nodes, so the record is topological by
    construction and backward is a single reverse sweep.
    """

    def __init__(self):
        self._tags = []
        self._inputs = []
        self._backwards = []  # None for leaves/constants
        self._shapes = []
        self._dtypes = []
        self._is_param = []

    def __len__(self):
        return len(self._tags)

    def record(self, tag, input_ids, backward_fn, shape, dtype, is_param=False):
        nid = len(self._tags)
        self._tags.append(tag)
        self._inputs.append(tuple(input_ids))
        self._backwards.append(backward_fn)
        self._shapes.append(shape if type(shape) is tuple else tuple(shape))
        self._dtypes.append(dtype if isinstance(dtype, np.dtype) else np.dtype(dtype))
        self._is_param.append(is_param)
        return nid

    def leaf(self, data, dtype=None):
        """Record a parameter leaf; backward reports its gradient."""
        t = Tensor(data, dtype=dtype)
        nid = self.record("leaf", (), None, t.shape, t.dtype, is_param=True)
        t.tape = self
        t.node_id = nid
        return t

    def constant(self, data, dtype=None):
        """Record a non-parameter input; gradients are not reported for it."""
        t = Tensor(data, dtype=dtype)
        nid = self.record("const", (), None, t.shape, t.dtype, is_param=False)
        t.tape = self
        t.node_id = nid
        return t

    def shape_of(self, node_id):
        return self._shapes[node_id]

    def dtype_of(self, node_id):
        return self._dtypes[node_id]

    def param_node_ids(self):
        return [i for i, p in enumerate(self._is_param) if p]

    def grads_from_seeds(self, seeds):
        """Reverse sweep from arbitrary seed gradients.

        seeds: {node_id: gradient array matching the node's shape}. Multiple
        seeds for one node must be pre-summed by the caller. Returns
        {node_id: array} for every param leaf.
        """
        n = len(self._tags)
        grads = [None] * n
        for nid, g in seeds.items():
            g = np.asarray(g)
            if g.shape != self._shapes[nid]:
                raise ShapeError(
                    f"seed gradient shape {g.shape} != node shape {self._shapes[nid]}"
                )
            if grads[nid] is None:
                grads[nid] = np.array(g, copy=True)
            else:
                grads[nid] = grads[nid] + g
        for nid in range(n - 1, -1, -1):
            g = grads[nid]
            bwd = self._backwards[nid]
            if g is None or bwd is None:
                continue
            input_grads = bwd(g)
            for inp, ig in zip(self._inputs[nid], input_grads):
                if ig is None:
                    continue
                if grads[inp] is None:
                    grads[inp] = ig
                else:
                    grads[inp] = grads[inp] + ig
        out = {}
        for nid in self.param_node_ids():
            g = grads[nid]
            if g is None:
                g = np.zeros(self._shapes[nid], dtype=self._dtypes[nid])
            out[nid] = g
        return out


def backward(tape, seed_node):
    """Gradients of the scalar at seed_node w.r.t. every parameter leaf.

    Grad slots are rebuilt on every call, so repeated backward passes from
    the same seed return identical (not accumulated) gradients.
    """
    shape = tape.shape_of(seed_node)
    if int(np.prod(shape)) != 1:
        raise ContractError(f"backward seed must be scalar, got shape {shape}")
    seed = np.ones(shape, dtype=tape.dtype_of(seed_node))
    grads = tape.grads_from_seeds({seed_node: seed})
    return {nid: Tensor(g) for nid, g in grads.items()}
