"""Differentiable primitive operations.

Each op computes its result eagerly with numpy and, when any input lives on
a tape, records one node whose backward closure holds exactly the values the
gradient formula needs. Off-tape operands are treated as constants.

Broadcasting is restricted to identical shapes or scalar-vs-tensor; anything
else raises ShapeError so every backward rule stays trivially auditable.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .tensor import ShapeError, Tensor, ValidationError, _int_at_least


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _tape_of(*tensors):
    tape = None
    for t in tensors:
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValidationError("operands recorded on different tapes")
    return tape


def _record(tape, tag, out_data, taped_inputs, backward_fn):
    """taped_inputs: list of on-tape Tensors aligned with backward_fn output."""
    out = Tensor(out_data)
    if tape is not None:
        nid = tape.record(
            tag,
            [t.node_id for t in taped_inputs],
            backward_fn,
            out.shape,
            out.dtype,
        )
        out.tape = tape
        out.node_id = nid
    return out


def _scalar_like(x, other):
    """A plain scalar operand takes the tensor operand's dtype, the way numpy
    treats a Python float, so `1.0 - spikes` stays in the spikes' precision."""
    if isinstance(other, Tensor) and np.ndim(x) == 0:
        return Tensor(np.asarray(x, dtype=other.dtype))
    return _as_tensor(x)


def _split_ew(a, b):
    """Elementwise operand handling: returns (a, b, out_shape)."""
    if not isinstance(a, Tensor):
        a = _scalar_like(a, b)
    if not isinstance(b, Tensor):
        b = _scalar_like(b, a)
    if a.shape == b.shape:
        return a, b, a.shape
    if a.size == 1 or b.size == 1:
        return a, b, b.shape if a.size == 1 else a.shape
    raise ShapeError(f"cannot broadcast shapes {a.shape} and {b.shape}")


def _reduce_to(g, shape):
    """Reduce an elementwise gradient back to a scalar operand's shape."""
    if g.shape == tuple(shape):
        return g
    return np.sum(g).reshape(shape).astype(g.dtype, copy=False)


def _ew_backward(tape, tag, out_data, a, b, da_fn, db_fn):
    taped = []
    slots = []
    if a.tape is tape and tape is not None:
        taped.append(a)
        slots.append(("a", a.shape))
    if b.tape is tape and tape is not None:
        taped.append(b)
        slots.append(("b", b.shape))

    def bwd(g):
        grads = []
        for which, shape in slots:
            if which == "a":
                grads.append(_reduce_to(da_fn(g), shape))
            else:
                grads.append(_reduce_to(db_fn(g), shape))
        return grads

    return _record(tape, tag, out_data, taped, bwd)


def add(a, b):
    a, b, _ = _split_ew(a, b)
    tape = _tape_of(a, b)
    out = a.data + b.data
    return _ew_backward(tape, "add", out, a, b, lambda g: g, lambda g: g)


def sub(a, b):
    a, b, _ = _split_ew(a, b)
    tape = _tape_of(a, b)
    out = a.data - b.data
    return _ew_backward(tape, "sub", out, a, b, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b, _ = _split_ew(a, b)
    tape = _tape_of(a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data
    return _ew_backward(tape, "mul", out, a, b, lambda g: g * bd, lambda g: g * ad)


def scale(t, c):
    """Multiply by a plain (non-differentiated) scalar."""
    t = _as_tensor(t)
    c = float(c)
    tape = _tape_of(t)
    return _record(tape, "scale", t.data * c, [t] if tape else [], lambda g: [g * c])


def sum_axis(t, axis):
    t = _as_tensor(t)
    if not (-t.ndim <= axis < t.ndim):
        raise ShapeError(f"axis {axis} out of range for shape {t.shape}")
    axis = axis % t.ndim
    tape = _tape_of(t)
    out = np.sum(t.data, axis=axis)
    in_shape = t.shape

    def bwd(g):
        return [np.broadcast_to(np.expand_dims(g, axis), in_shape).copy()]

    return _record(tape, "sum_axis", out, [t] if tape else [], bwd)


def sum_all(t):
    t = _as_tensor(t)
    tape = _tape_of(t)
    out = np.sum(t.data)
    in_shape = t.shape
    dtype = t.dtype

    def bwd(g):
        return [np.full(in_shape, np.asarray(g).reshape(()), dtype=dtype)]

    return _record(tape, "sum_all", out, [t] if tape else [], bwd)


def reshape(t, shape):
    """t viewed as shape; t itself, with no tape node, when the shape matches."""
    t = _as_tensor(t)
    shape = tuple(int(s) for s in shape)
    if shape == t.shape:
        return t
    if math.prod(shape) != t.size:
        raise ShapeError(f"cannot reshape {t.shape} to {shape}")
    tape = _tape_of(t)
    in_shape = t.shape

    def bwd(g):
        return [g.reshape(in_shape)]

    return _record(tape, "reshape", t.data.reshape(shape), [t] if tape else [], bwd)


def slice_rows(t, start, stop):
    """Rows [start, stop) along axis 0."""
    t = _as_tensor(t)
    if not (0 <= start < stop <= t.shape[0]):
        raise ShapeError(f"row slice [{start}:{stop}) invalid for shape {t.shape}")
    tape = _tape_of(t)
    rows = t.data[start:stop].copy()
    if tape is None:
        return Tensor(rows)
    in_shape = t.shape
    dtype = t.dtype

    def bwd(g):
        full = np.zeros(in_shape, dtype=dtype)
        full[start:stop] = g
        return [full]

    return _record(tape, "slice_rows", rows, [t], bwd)


def stack_rows(tensors):
    """Stack equal-shape tensors along a new leading axis."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValidationError("stack_rows of empty list")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"stack_rows shapes differ: {shape} vs {t.shape}")
    tape = _tape_of(*tensors)
    out = np.stack([t.data for t in tensors])
    if tape is None:
        return _record(None, "stack_rows", out, [], None)
    taped = [t for t in tensors if t.tape is tape]
    positions = [i for i, t in enumerate(tensors) if t.tape is tape]

    def bwd(g):
        return [g[i] for i in positions]

    return _record(tape, "stack_rows", out, taped, bwd)


def matmul_rows(a, b):
    """a [rows, n] @ b [n, m] as one vector-matrix product (BLAS gemv) per
    row, which a one-row product already is: a many-row product (gemm) sums
    in another order, and in float32 the last-bit difference flips spikes
    between step_by_step and layer_by_layer."""
    if a.shape[0] == 1:
        return a @ b
    return np.matmul(a[:, None, :], b)[:, 0]


def matmul_backward(a, b, g, need_a, need_b, samples=1):
    """Gradients (of a, of b [samples, ...]; None where not needed) of
    matmul_rows(a, b) for the output gradient g, where the rows of a and g
    hold `samples` samples, time-major (row t * samples + s).

    Every product is taken per sample with the dimensions that a one-sample
    call gives BLAS; a sample's rows are a strided matrix, which changes no
    bit, while a product over more rows can sum in another order. A
    one-wide b (n or m = 1) is the exception: numpy sums a one-wide product
    of strided operands in another order than of contiguous ones, so there
    each sample's rows are copied and take one 2-D product, in every call."""
    ga = gb = None
    if 1 in b.shape:
        if need_a:
            ga = np.empty((a.shape[0], b.shape[0]), dtype=np.result_type(g, b))
        if need_b:
            gb = np.empty((samples,) + b.shape, dtype=np.result_type(a, g))
        for s in range(samples):
            g2 = np.ascontiguousarray(g[s::samples])
            if need_a:
                ga[s::samples] = g2 @ b.T
            if need_b:
                gb[s] = np.ascontiguousarray(a[s::samples]).T @ g2
        return ga, gb
    rows = a.shape[0] // samples
    g3 = g.reshape(rows, samples, -1).transpose(1, 0, 2)  # [samples, rows, m]
    if need_a:
        ga = np.empty((a.shape[0], b.shape[0]), dtype=np.result_type(g, b))
        np.matmul(g3, b.T, out=ga.reshape(rows, samples, -1).transpose(1, 0, 2))
    if need_b:
        a3 = a.reshape(rows, samples, -1).transpose(1, 2, 0)  # [samples, n, rows]
        gb = np.empty((samples,) + b.shape, dtype=np.result_type(a, g))
        np.matmul(a3, g3, out=gb)
    return ga, gb


def matmul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    tape = _tape_of(a, b)
    out = matmul_rows(a.data, b.data)
    if tape is None:
        return _record(None, "matmul", out, [], None)
    ad, bd = a.data, b.data
    need_a, need_b = a.tape is tape, b.tape is tape
    taped = [t for t, on in ((a, need_a), (b, need_b)) if on]

    def bwd(g):
        ga, gb = matmul_backward(ad, bd, g, need_a, need_b)
        return ([ga] if need_a else []) + ([gb[0]] if need_b else [])

    return _record(tape, "matmul", out, taped, bwd)


# the layout and the taps are cached per geometry: a one-row step_by_step
# slab would otherwise rebuild them on every step
@functools.lru_cache(maxsize=None)
def _plane_layout(h, w, k, stride, padding):
    """The phase-plane layout of a conv over [..., h, w] inputs.

    The zero-padded input splits into stride x stride phase planes
    xpad[a::stride, b::stride], each stored as a flat row of a common
    hq x wq grid plus a tail of (k - 1) // stride zeros. Tap (i, j) of the
    kernel reads, for every output position, the plane element at a fixed
    distance from it: output (r, c), computed on a ho x wq grid whose
    columns from wo on are cropped, reads plane (i % stride, j % stride) at
    r * wq + c + (i // stride) * wq + j // stride. So each tap's operand is
    one contiguous window of the flat plane, and the tail holds what the
    cropped columns of the last output row read past the grid.

    Returns (ho, wo, hq, wq, flat plane length, phases). phases holds, per
    phase (a, b), (plane index, grid rows, grid cols, input rows, input
    cols): the slices of the plane's grid and of the input that hold the
    same elements, padded row a + stride * r being input row
    a + stride * r - padding.
    """
    hp, wp = h + 2 * padding, w + 2 * padding
    if k > hp or k > wp:
        raise ShapeError(f"kernel {k}x{k} larger than padded input {hp}x{wp}")
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    hq, wq = -(-hp // stride), -(-wp // stride)
    phases = []
    for a in range(stride):
        for b in range(stride):
            xr, xc = (a - padding) % stride, (b - padding) % stride  # first input row, col
            r0, c0 = (xr + padding) // stride, (xc + padding) // stride
            rows = slice(r0, r0 + len(range(xr, h, stride)))
            cols = slice(c0, c0 + len(range(xc, w, stride)))
            phases.append((a * stride + b, rows, cols,
                           slice(xr, None, stride), slice(xc, None, stride)))
    return ho, wo, hq, wq, hq * wq + (k - 1) // stride, phases


@functools.lru_cache(maxsize=None)
def _taps(k, stride, wq):
    """(i, j, plane index, window offset) of each kernel tap, in the fixed
    order every conv sums them."""
    return [(i, j, (i % stride) * stride + j % stride, (i // stride) * wq + j // stride)
            for i in range(k) for j in range(k)]


def _tap_sum(products):
    """The sum, in order, of np.matmul(m[None], window) over the (m, window)
    pairs; None for no pairs. Each row's products have the shapes of m and
    of one row's window, so a row sums the same bytes in a slab of any size."""
    out = tmp = None
    for m, window in products:
        if out is None:
            out = np.matmul(m[None], window)
            tmp = np.empty_like(out)
        else:
            out += np.matmul(m[None], window, out=tmp)
    return out


def conv2d_forward(x4, kernel, stride, padding):
    """Cross-correlation of x4 [B, C, H, W] with kernel [Co, C, k, k];
    returns (output [B, Co, Ho, Wo], the flat phase planes
    [B, C, stride * stride, length] conv2d_backward reads).

    There are no im2col columns: each of the k * k taps is one product of
    its [Co, C] kernel slice with a shifted window of a phase plane (see
    _plane_layout), and the taps are summed in one fixed order."""
    b, c, h, w = x4.shape
    co, ci, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeError(f"only square kernels supported, got {kernel.shape}")
    if ci != c:
        raise ShapeError(f"kernel expects {ci} input channels, input has {c}")
    ho, wo, hq, wq, n, phases = _plane_layout(h, w, kh, stride, padding)
    planes = np.zeros((b, c, stride * stride, n), dtype=x4.dtype)
    grid = planes[..., : hq * wq].reshape(b, c, stride * stride, hq, wq)
    for p, r, col, xr, xc in phases:
        grid[:, :, p, r, col] = x4[:, :, xr, xc]
    span = ho * wq
    per_tap = kernel.transpose(2, 3, 0, 1).copy()  # a contiguous [Co, C] per tap
    out = _tap_sum((per_tap[i, j], planes[:, :, p, off : off + span])
                   for i, j, p, off in _taps(kh, stride, wq))
    return out.reshape(b, co, ho, wq)[..., :wo], planes


def conv2d_backward(g, planes, kernel, x_shape, stride, padding, need_x, need_k,
                    samples=1):
    """Gradients (of the input, of the kernel [samples, ...]; None where not
    needed) of conv2d_forward for the output gradient g [B, Co, Ho, Wo] and
    the phase planes it returned, where the B rows hold `samples` samples,
    time-major. Each sample's kernel gradient is summed over its rows as a
    one-sample call sums them.

    g goes on the ho x wq output grid, zero in the cropped columns, inside a
    flat buffer with a zero lead as long as the largest window offset. A
    plane's gradient is then the sum over its taps of the tap's transposed
    [C, Co] kernel slice times the buffer's window shifted back by the tap's
    offset, which is scattered back to the input. dk's tap (i, j) is g times
    the tap's window, transposed, summed over rows."""
    b, co, ho, wo = g.shape
    _, ci, k, _ = kernel.shape
    _, _, hq, wq, _, phases = _plane_layout(x_shape[2], x_shape[3], k, stride, padding)
    span = ho * wq
    taps = _taps(k, stride, wq)
    lead = taps[-1][3]
    gpad = np.zeros((b, co, lead + hq * wq), dtype=g.dtype)
    gw = gpad[:, :, lead : lead + span]
    gw.reshape(b, co, ho, wq)[..., :wo] = g
    dx = dk = None
    if need_x:
        per_tap = kernel.transpose(2, 3, 1, 0).copy()  # a contiguous [C, Co] per tap
        dx = np.empty(x_shape, dtype=np.result_type(g, kernel))
        for p, r, col, xr, xc in phases:
            dplane = _tap_sum((per_tap[i, j], gpad[:, :, lead - off : lead - off + hq * wq])
                              for i, j, tp, off in taps if tp == p)
            # a phase no tap reads (stride > k) gets no gradient
            dx[:, :, xr, xc] = 0 if dplane is None else dplane.reshape(b, ci, hq, wq)[:, :, r, col]
    if need_k:
        # sample-major, so that each sample's terms lie as a one-sample
        # call's and the sum over its rows goes in the same order: numpy
        # sums pairwise along a contiguous axis, as the rows are when
        # co = ci = 1, and row by row otherwise
        rows = b // samples
        per_row = np.empty((samples, k * k, rows, co, ci), dtype=np.result_type(g, planes))
        g4 = gw.reshape(rows, samples, co, span)
        for t, (_, _, p, off) in enumerate(taps):
            window = planes[:, :, p, off : off + span].reshape(rows, samples, ci, span)
            np.matmul(g4, window.transpose(0, 1, 3, 2), out=per_row[:, t].transpose(1, 0, 2, 3))
        dk = per_row.sum(axis=2).reshape(samples, k, k, co, ci).transpose(0, 3, 4, 1, 2)
    return dx, dk


def conv2d(x, kernel, stride=1, padding=0):
    """2-d cross-correlation of a [C, H, W] input, or of each input of a
    [B, C, H, W] stack, with kernel [Co, C, k, k]. A stack's outputs and
    input gradients have the bytes of one call per input; its kernel
    gradient sums over the stack."""
    x = _as_tensor(x)
    kernel = _as_tensor(kernel)
    if x.ndim not in (3, 4) or kernel.ndim != 4:
        raise ShapeError(
            f"conv2d expects a [C,H,W] or [B,C,H,W] input and a [Co,Ci,k,k] kernel, "
            f"got {x.shape}, {kernel.shape}"
        )
    stride, padding = validate_conv_args(stride, padding)
    tape = _tape_of(x, kernel)
    taped_x = tape is not None and x.tape is tape
    taped_k = tape is not None and kernel.tape is tape
    x4 = x.data if x.ndim == 4 else x.data[None]
    out, planes = conv2d_forward(x4, kernel.data, stride, padding)
    kd, x_shape, x4_shape, out_shape = kernel.data, x.shape, x4.shape, out.shape

    def bwd(g):
        dx, dk = conv2d_backward(g.reshape(out_shape), planes, kd, x4_shape, stride, padding,
                                 taped_x, taped_k)
        return ([dx.reshape(x_shape)] if taped_x else []) + ([dk[0]] if taped_k else [])

    taped = [t for t, on in ((x, taped_x), (kernel, taped_k)) if on]
    return _record(tape, "conv2d", out if x.ndim == 4 else out[0], taped, bwd)


# the name perfbench/tracing.py wraps; the same op
conv2d_batched = conv2d


def validate_conv_args(stride, padding):
    """Returns stride and padding as ints, once they are checked."""
    return _int_at_least("stride", stride, 1), _int_at_least("padding", padding, 0)


def threshold(u, thr, surrogate):
    """Spike nonlinearity: 1.0 where u >= thr, else 0.0 (ties spike).

    Backward multiplies the incoming gradient by surrogate(u - thr).
    """
    u = _as_tensor(u)
    thr = float(thr)
    if not np.isfinite(thr):
        raise ValidationError(f"threshold must be finite, got {thr}")
    tape = _tape_of(u)
    out = np.where(u.data >= thr, 1.0, 0.0).astype(u.dtype)
    x = u.data - thr

    def bwd(g):
        return [g * surrogate(x).astype(g.dtype, copy=False)]

    return _record(tape, "threshold", out, [u] if tape else [], bwd)


def smooth_spike(u, thr, surrogate, sharpness):
    """Smooth twin of threshold: the surrogate's sigmoid-like primitive."""
    u = _as_tensor(u)
    thr = float(thr)
    if not (sharpness > 0):
        raise ValidationError(f"sharpness must be positive, got {sharpness}")
    tape = _tape_of(u)
    x = u.data - thr
    out = surrogate.primitive(x, sharpness).astype(u.dtype, copy=False)

    def bwd(g):
        return [g * surrogate.primitive_grad(x, sharpness).astype(g.dtype, copy=False)]

    return _record(tape, "smooth_spike", out, [u] if tape else [], bwd)


def lif_scan_forward(xd, u, i, alpha, beta, thr, surrogate, subtract, sharpness):
    """The LIF recurrence of B samples from their states u, i [B, ...] over
    the rows of xd [T * B, ...], time-major (row t * B + s is step t of
    sample s), each step with the expressions and dtypes of
    neurons.lif_step (of lif_smooth_step with a sharpness). Returns
    (spikes, U_pre, U_T, I_T, S_T), with spikes and U_pre in xd's rows."""
    dtype = np.result_type(xd, u, i)
    if xd.shape[0] == u.shape[0]:
        # one step, as step_by_step runs it: the loop below without its
        # buffers and row views
        i = i * beta + xd
        p = u * alpha + i
        if sharpness is None:
            s = (p >= thr).astype(dtype)
        else:
            s = surrogate.primitive(p - thr, sharpness).astype(dtype, copy=False)
        u = p - s * thr if subtract else p * (1.0 - s)
        # the spike train and S_T are distinct arrays, as in the loop below
        return s.view(), p, u, i, s
    u_pre = np.empty(xd.shape, dtype=dtype)
    spikes = np.empty(xd.shape, dtype=dtype)
    by_step = (-1,) + u.shape
    steps, pres, trains = xd.reshape(by_step), u_pre.reshape(by_step), spikes.reshape(by_step)
    for t in range(steps.shape[0]):
        i = i * beta + steps[t]
        p = pres[t]
        np.add(u * alpha, i, out=p)
        if sharpness is None:
            trains[t] = p >= thr
        else:
            trains[t] = surrogate.primitive(p - thr, sharpness)
        s = trains[t]
        u = p - s * thr if subtract else p * (1.0 - s)
    return spikes, u_pre, u, i, trains[-1].copy()


def lif_scan_backward(u_pre, g, gu, gi, alpha, beta, thr, surrogate, subtract, sharpness,
                      samples=1):
    """BPTT through lif_scan_forward from its U_pre [T * B, ...] of B =
    samples samples, the spike-train gradient g in U_pre's shape and the
    gradients gu, gi [B, ...] on U_T, I_T (a Python 0.0 for an unseeded one,
    which takes the other operand's dtype, as the zero array it stands
    for). Returns the gradients of (x, in U_pre's shape, U_0, I_0);
    evaluates the surrogate once over U_pre (lif_factors). Each step runs
    lif_step_backward's expressions, in its order."""
    sg, a = lif_factors(u_pre, np.result_type(g, u_pre.dtype), thr, surrogate, subtract,
                        sharpness)
    # b = g * sg over sg, which is then spent
    b = np.multiply(g, sg, out=sg)
    del sg
    # step t's rows of gx are written after b's are read, so gx may take b's place
    gxdt = np.result_type(b, gu, gi)
    gx = b if b.dtype == gxdt else np.empty(u_pre.shape, dtype=gxdt)
    for r in range(u_pre.shape[0] - samples, -1, -samples):
        step = slice(r, r + samples)
        dp = gu * a[step] + b[step]
        di = np.add(dp, gi, out=gx[step])
        gu = dp * alpha
        gi = di * beta
    return gx, gu, gi


def lif_factors(u_pre, dtype, thr, surrogate, subtract, sharpness):
    """The surrogate factors (sg, a), in dtype and U_pre's shape, of
    lif_scan_backward's adjoint: dL/dU_pre[t] = gU[t] * a[t] + g[t] * sg[t],
    where gU[t] is the gradient on the post-reset U[t] and g[t] on the spike
    train. sg is the surrogate's slope at U_pre - thr, a the reset's direct
    path plus its path through S[t]."""
    d = u_pre - thr
    if sharpness is None:
        sg = surrogate._over(d).astype(dtype, copy=False)
        if not subtract:
            s_all = (u_pre >= thr).astype(dtype)
    else:
        sg = surrogate.primitive_grad(d, sharpness).astype(dtype, copy=False)
        if not subtract:
            s_all = surrogate.primitive(d, sharpness).astype(dtype, copy=False)
    del d
    if subtract:
        a = np.multiply(sg, thr)
        np.subtract(1.0, a, out=a)
    else:
        a = (1.0 - s_all) - u_pre * sg
    return sg, a


def lif_step_backward(sg, a, g, gu, gi, alpha, beta):
    """One step of lif_scan_backward's adjoint from the step's factors
    (lif_factors), its spike-train gradient g and the gradients gu, gi on
    its post-reset U and its I; returns the gradients of (its input, the
    previous U, the previous I)."""
    dp = gu * a + g * sg
    di = dp + gi
    return di, dp * alpha, di * beta


def lif_args(params, sharpness=None):
    """The LIF constants lif_scan_forward and lif_scan_backward take after
    their arrays, from a LIFParams."""
    if sharpness is not None and not (sharpness > 0):
        raise ValidationError(f"sharpness must be positive, got {sharpness}")
    return (float(params.alpha), float(params.beta), float(params.thr), params.surrogate,
            params.reset == "subtract", sharpness)


def softmax_ce_and_grad(logits, target):
    """Closed form on numpy arrays: (-log softmax(logits)[class], p - target)
    for 1-d logits and a one-hot target, max-stabilized."""
    if logits.ndim != 1 or target.shape != logits.shape:
        raise ShapeError(
            f"expected matching 1-d logits/target, got {logits.shape} and {target.shape}"
        )
    if logits.shape[0] < 2:
        raise ValidationError("softmax_cross_entropy needs at least 2 classes")
    if not (np.all((target == 0.0) | (target == 1.0)) and np.sum(target) == 1.0):
        raise ValidationError("target must be one-hot")
    z = logits - np.max(logits)
    ez = np.exp(z)
    p = ez / np.sum(ez)
    return np.log(np.sum(ez)) - z[np.argmax(target)], p - target


def softmax_cross_entropy(logits, target):
    """-log softmax(logits)[class] for a one-hot target, max-stabilized."""
    logits = _as_tensor(logits)
    target = _as_tensor(target)  # a label, never differentiated
    loss, dlogits = softmax_ce_and_grad(logits.data, target.data)
    tape = _tape_of(logits)

    def bwd(g):
        return [dlogits * np.asarray(g).reshape(())]

    return _record(tape, "softmax_ce", np.asarray(loss), [logits] if tape else [], bwd)
