"""Surrogate derivatives for the spike threshold.

Every surrogate is a smooth, nonnegative, symmetric bump peaking at x = 0
(i.e. at membrane potential == threshold). Each also exposes a sigmoid-like
smooth primitive used by the smooth-twin neuron: primitive(x, s) -> [0, 1],
approaching the hard step as the sharpness s grows, with primitive_grad its
exact derivative so finite differences apply to the smooth forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ValidationError

SURROGATE_TAGS = ("superspike", "sigmoid_derivative", "piecewise_linear", "arctan")


def _superspike(x, slope, out=None):
    # with out, a float array of x's shape (x itself too), the same ufuncs
    # run in place there in the same order, so the bytes are the same
    if out is None:
        return 1.0 / (slope * np.abs(x) + 1.0) ** 2
    np.abs(x, out=out)
    out *= slope
    out += 1.0
    np.square(out, out=out)
    return np.divide(1.0, out, out=out)


def _superspike_primitive(x, s):
    return 0.5 * (1.0 + s * x / (1.0 + s * np.abs(x)))


def _superspike_primitive_grad(x, s):
    return 0.5 * s / (1.0 + s * np.abs(x)) ** 2


def _sigmoid(x):
    # split by sign to avoid overflow in exp
    x = np.asarray(x)
    flat = np.ravel(x)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ex = np.exp(flat[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.reshape(x.shape)


def _sigmoid_derivative(x, slope):
    s = _sigmoid(slope * np.asarray(x))
    return slope * s * (1.0 - s)


def _sigmoid_primitive(x, s):
    return _sigmoid(s * np.asarray(x))


def _piecewise_linear(x, slope):
    return np.maximum(0.0, 1.0 - slope * np.abs(x))


def _piecewise_linear_primitive(x, s):
    return np.clip(0.5 + 0.5 * s * x, 0.0, 1.0)


def _piecewise_linear_primitive_grad(x, s):
    return np.where(np.abs(s * x) < 1.0, 0.5 * s, 0.0)


def _arctan(x, slope):
    return 1.0 / (1.0 + (slope * x) ** 2)


def _arctan_primitive(x, s):
    return 0.5 + np.arctan(s * x) / np.pi


def _arctan_primitive_grad(x, s):
    return s / (np.pi * (1.0 + (s * x) ** 2))


_TABLE = {
    "superspike": (
        _superspike,
        _superspike_primitive,
        _superspike_primitive_grad,
    ),
    "sigmoid_derivative": (
        _sigmoid_derivative,
        _sigmoid_primitive,
        lambda x, s: _sigmoid_derivative(x, s),
    ),
    "piecewise_linear": (
        _piecewise_linear,
        _piecewise_linear_primitive,
        _piecewise_linear_primitive_grad,
    ),
    "arctan": (
        _arctan,
        _arctan_primitive,
        _arctan_primitive_grad,
    ),
}


@dataclass(frozen=True)
class SurrogateFn:
    """Tagged surrogate derivative with a slope parameter."""

    tag: str = "superspike"
    slope: float = 10.0

    def __post_init__(self):
        if self.tag not in _TABLE:
            raise ValidationError(
                f"unknown surrogate {self.tag!r}, expected one of {SURROGATE_TAGS}"
            )
        if not (self.slope > 0.0 and np.isfinite(self.slope)):
            raise ValidationError(f"surrogate slope must be positive, got {self.slope}")

    def __call__(self, x):
        """Backward-pass multiplier at membrane distance x = u - thr."""
        return _TABLE[self.tag][0](np.asarray(x), self.slope)

    def _over(self, d):
        """self(d) for a float array d that the caller gives up: superspike
        is evaluated in place over d, the others as self(d) evaluates them."""
        if self.tag == "superspike":
            return _superspike(d, self.slope, out=d)
        return self(d)

    def primitive(self, x, sharpness):
        """Smooth step used by the gradient-check twin network."""
        return _TABLE[self.tag][1](np.asarray(x), sharpness)

    def primitive_grad(self, x, sharpness):
        return _TABLE[self.tag][2](np.asarray(x), sharpness)


def get_surrogate(tag, slope=10.0):
    return SurrogateFn(tag=tag, slope=slope)
