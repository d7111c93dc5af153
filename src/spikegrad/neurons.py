"""Current-based leaky integrate-and-fire cells.

Each neuron carries two internal states, membrane potential U and synaptic
current I, updated by the discrete recurrence

    I' = beta * I + input
    U_pre = alpha * U + I'
    S' = step(U_pre - thr)          (surrogate derivative in backward)
    U' = U_pre - thr * S'           (reset by subtraction, default)
       | U_pre * (1 - S')           (reset to zero)

lif_scan runs the recurrence over every row of its input as a single fused
tape node with a hand-written BPTT backward (ops.lif_scan). Its forward and
backward are the ndarray kernels ops.lif_scan_forward and
ops.lif_scan_backward, which the executor's node program calls for every
LIF layer, over all T steps in layer_by_layer and, in step_by_step, over
a segment's steps in the phases before and after the stepped one
(executor._ExecContext._phases). In the stepped phase the forward runs
one step at a time, and the backward evaluates lif_scan_backward's
surrogate factors once over a segment (ops.lif_factors) and then takes
one step at a time (ops.lif_step_backward).
lif_step and lif_smooth_step record every op of one step on the tape; they
are the per-step reference that lif_scan and the executor are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .surrogates import SurrogateFn
from .tensor import ShapeError, Tensor, ValidationError, default_dtype

RESET_MODES = ("subtract", "to_zero")
INIT_MODES = ("zeros", "uniform")


@dataclass(frozen=True)
class LIFParams:
    alpha: float = 0.9  # membrane decay
    beta: float = 0.8  # synaptic-current decay
    thr: float = 1.0
    surrogate: SurrogateFn = field(default_factory=SurrogateFn)
    reset: str = "subtract"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(f"beta must be in (0, 1), got {self.beta}")
        if not self.thr > 0.0:
            raise ValidationError(f"threshold must be positive, got {self.thr}")
        if self.reset not in RESET_MODES:
            raise ValidationError(f"reset must be one of {RESET_MODES}, got {self.reset!r}")


@dataclass
class NeuronState:
    U: Tensor  # membrane potentials
    I: Tensor  # synaptic currents
    S: Tensor  # last binary spike output

    def __post_init__(self):
        if not (self.U.shape == self.I.shape == self.S.shape):
            raise ShapeError(
                f"state component shapes differ: U{self.U.shape} I{self.I.shape} S{self.S.shape}"
            )


def _check_input(state, input_current):
    if input_current.shape != state.U.shape:
        raise ShapeError(
            f"input shape {input_current.shape} != state shape {state.U.shape}"
        )


def _integrate(state, input_current, params):
    i_new = ops.add(ops.scale(state.I, params.beta), input_current)
    u_pre = ops.add(ops.scale(state.U, params.alpha), i_new)
    return i_new, u_pre


def _reset(u_pre, spikes, params):
    if params.reset == "subtract":
        return ops.sub(u_pre, ops.scale(spikes, params.thr))
    return ops.mul(u_pre, ops.sub(1.0, spikes))


def lif_step(state, input_current, params):
    """One LIF update; returns (new state, binary spikes)."""
    _check_input(state, input_current)
    i_new, u_pre = _integrate(state, input_current, params)
    spikes = ops.threshold(u_pre, params.thr, params.surrogate)
    u_new = _reset(u_pre, spikes, params)
    return NeuronState(U=u_new, I=i_new, S=spikes), spikes


def lif_smooth_step(state, input_current, params, sharpness):
    """Smooth twin of lif_step: the hard step becomes the surrogate's
    smooth primitive, so the forward map is everywhere differentiable and
    finite differences check the exact function AD sees."""
    _check_input(state, input_current)
    i_new, u_pre = _integrate(state, input_current, params)
    acts = ops.smooth_spike(u_pre, params.thr, params.surrogate, sharpness)
    u_new = _reset(u_pre, acts, params)
    return NeuronState(U=u_new, I=i_new, S=acts), acts


def lif_scan(state, inputs, params, sharpness=None):
    """lif_step over every row of inputs [T, ...] (lif_smooth_step when a
    sharpness is given) as one fused tape node; returns (final state,
    spikes [T, ...])."""
    spikes, u, i, s = ops.lif_scan(inputs, state.U, state.I, params, sharpness)
    return NeuronState(U=u, I=i, S=s), spikes


def init_state(n, mode="zeros", rng_seed=0, lo=0.0, hi=1.0, dtype=None):
    """Fresh NeuronState for n neurons (n may be an int or a shape tuple).

    mode 'zeros' gives the all-zero state; 'uniform' draws U and I from
    [lo, hi) with a seeded generator. S always starts at zero.
    """
    shape = (int(n),) if np.isscalar(n) else tuple(int(s) for s in n)
    if any(s < 1 for s in shape):
        raise ValidationError(f"state shape must be positive, got {shape}")
    dtype = dtype or default_dtype()
    if mode == "zeros":
        u = np.zeros(shape, dtype=dtype)
        i = np.zeros(shape, dtype=dtype)
    elif mode == "uniform":
        if lo >= hi:
            raise ValidationError(f"uniform bounds need lo < hi, got [{lo}, {hi})")
        rng = np.random.default_rng(rng_seed)
        u = rng.uniform(lo, hi, size=shape).astype(dtype)
        i = rng.uniform(lo, hi, size=shape).astype(dtype)
    else:
        raise ValidationError(f"unknown init mode {mode!r}, expected one of {INIT_MODES}")
    s = np.zeros(shape, dtype=dtype)
    return NeuronState(U=Tensor(u), I=Tensor(i), S=Tensor(s))
