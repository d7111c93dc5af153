"""Differentiable primitive operations.

Each op computes its result eagerly with numpy and, when any input lives on
a tape, records one node whose backward closure holds exactly the values the
gradient formula needs. Off-tape operands are treated as constants.

Broadcasting is restricted to identical shapes or scalar-vs-tensor; anything
else raises ShapeError so every backward rule stays trivially auditable.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, ValidationError


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
    t = _as_tensor(t)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != t.size:
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
    in_shape = t.shape
    dtype = t.dtype

    def bwd(g):
        full = np.zeros(in_shape, dtype=dtype)
        full[start:stop] = g
        return [full]

    return _record(tape, "slice_rows", t.data[start:stop].copy(), [t] if tape else [], bwd)


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


def matmul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    tape = _tape_of(a, b)
    out = a.data @ b.data
    if tape is None:
        return _record(None, "matmul", out, [], None)
    ad, bd = a.data, b.data
    taped = []
    slots = []
    if a.tape is tape:
        taped.append(a)
        slots.append("a")
    if b.tape is tape:
        taped.append(b)
        slots.append("b")

    def bwd(g):
        grads = []
        for which in slots:
            if which == "a":
                grads.append(g @ bd.T)
            else:
                grads.append(ad.T @ g)
        return grads

    return _record(tape, "matmul", out, taped, bwd)


def _conv_geometry(h, w, k, stride, padding):
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if k > h + 2 * padding or k > w + 2 * padding or ho < 1 or wo < 1:
        raise ShapeError(
            f"kernel {k}x{k} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    return ho, wo


def _im2col(x, k, stride, padding):
    # x: [B, C, H, W] -> cols [B, C*k*k, Ho*Wo]
    b, c, h, w = x.shape
    ho, wo = _conv_geometry(h, w, k, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]  # [B, C, Ho, Wo, k, k]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, ho * wo)
    return np.ascontiguousarray(cols), ho, wo


def _col2im(dcols, in_shape, k, stride, padding):
    b, c, h, w = in_shape
    ho, wo = _conv_geometry(h, w, k, stride, padding)
    dx = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    d6 = dcols.reshape(b, c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += d6[
                :, :, i, j, :, :
            ]
    if padding:
        dx = dx[:, :, padding:-padding, padding:-padding]
    return dx


def _conv2d_core(x4, kernel, stride, padding, tape, taped_x, taped_k):
    b, c, h, w = x4.shape
    co, ci, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeError(f"only square kernels supported, got {kernel.shape}")
    if ci != c:
        raise ShapeError(f"kernel expects {ci} input channels, input has {c}")
    cols, ho, wo = _im2col(x4, kh, stride, padding)
    kr = kernel.reshape(co, ci * kh * kw)
    out = np.matmul(kr[None, :, :], cols).reshape(b, co, ho, wo)

    def bwd(g):
        gr = g.reshape(b, co, ho * wo)
        grads = []
        if taped_x:
            dcols = np.matmul(kr.T[None, :, :], gr)
            grads.append(_col2im(dcols, (b, c, h, w), kh, stride, padding))
        if taped_k:
            dk = np.matmul(gr, cols.transpose(0, 2, 1)).sum(axis=0)
            grads.append(dk.reshape(co, ci, kh, kw))
        return grads

    return out, bwd


def conv2d(x, kernel, stride=1, padding=0):
    """2-d cross-correlation of a single [C, H, W] input."""
    x = _as_tensor(x)
    kernel = _as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(
            f"conv2d expects [C,H,W] input and [Co,Ci,k,k] kernel, got {x.shape}, {kernel.shape}"
        )
    _validate_conv_args(stride, padding)
    tape = _tape_of(x, kernel)
    taped_x = tape is not None and x.tape is tape
    taped_k = tape is not None and kernel.tape is tape
    out4, bwd4 = _conv2d_core(x.data[None], kernel.data, stride, padding, tape, taped_x, taped_k)

    def bwd(g):
        grads = bwd4(g[None])
        out = []
        i = 0
        if taped_x:
            out.append(grads[i][0])
            i += 1
        if taped_k:
            out.append(grads[i])
        return out

    taped = [t for t, on in ((x, taped_x), (kernel, taped_k)) if on]
    return _record(tape, "conv2d", out4[0], taped, bwd)


def conv2d_batched(x, kernel, stride=1, padding=0):
    """2-d cross-correlation over a [B, C, H, W] stack in one call."""
    x = _as_tensor(x)
    kernel = _as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(
            f"conv2d_batched expects [B,C,H,W] input, got {x.shape}, kernel {kernel.shape}"
        )
    _validate_conv_args(stride, padding)
    tape = _tape_of(x, kernel)
    taped_x = tape is not None and x.tape is tape
    taped_k = tape is not None and kernel.tape is tape
    out, bwd = _conv2d_core(x.data, kernel.data, stride, padding, tape, taped_x, taped_k)
    taped = [t for t, on in ((x, taped_x), (kernel, taped_k)) if on]
    return _record(tape, "conv2d_batched", out, taped, bwd)


def _validate_conv_args(stride, padding):
    if not (isinstance(stride, int) and stride >= 1):
        raise ValidationError(f"stride must be a positive int, got {stride}")
    if not (isinstance(padding, int) and padding >= 0):
        raise ValidationError(f"padding must be a nonnegative int, got {padding}")


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


def lif_scan(x, u0, i0, params, sharpness=None):
    """Fused LIF recurrence over all T steps of x [T, ...].

    params supplies alpha, beta, thr, surrogate and reset (a LIFParams).
    Each step computes exactly what neurons.lif_step computes, with the same
    expressions and dtypes; with a sharpness it computes lif_smooth_step.
    Returns (spikes [T, ...], U_T, I_T, S_T).

    On a tape the spike train is one node whose backward is a hand-written
    BPTT through the recurrence; it saves only U_pre [T, ...] and evaluates
    the surrogate once over it. U_T, I_T and S_T are small nodes on top of
    the spike train: a gradient seeded on them reaches the scan's backward,
    which starts the reverse recurrence from it.
    """
    x, u0, i0 = _as_tensor(x), _as_tensor(u0), _as_tensor(i0)
    if x.ndim < 1 or x.shape[0] < 1 or x.shape[1:] != u0.shape or i0.shape != u0.shape:
        raise ShapeError(
            f"lif_scan expects x [T, *{u0.shape}] and state {u0.shape}, "
            f"got x {x.shape}, U {u0.shape}, I {i0.shape}"
        )
    alpha, beta, thr = float(params.alpha), float(params.beta), float(params.thr)
    surrogate, subtract = params.surrogate, params.reset == "subtract"
    if sharpness is not None and not (sharpness > 0):
        raise ValidationError(f"sharpness must be positive, got {sharpness}")
    tape = _tape_of(x, u0, i0)
    xd = x.data
    dtype = np.result_type(xd, u0.data, i0.data)
    u_pre = np.empty(xd.shape, dtype=dtype)
    spikes = np.empty(xd.shape, dtype=dtype)
    u, i = u0.data, i0.data
    for t in range(xd.shape[0]):
        i = i * beta + xd[t]
        p = u_pre[t]
        np.add(u * alpha, i, out=p)
        if sharpness is None:
            spikes[t] = p >= thr
        else:
            spikes[t] = surrogate.primitive(p - thr, sharpness)
        s = spikes[t]
        u = p - s * thr if subtract else p * (1.0 - s)
    s_last = spikes[-1].copy()
    if tape is None:
        return Tensor(spikes), Tensor(u), Tensor(i), Tensor(s_last)

    on_tape = [t.tape is tape for t in (x, u0, i0)]
    taped = [t for t, on in zip((x, u0, i0), on_tape) if on]
    # the closures below hold shapes and arrays only, never a Tensor, so a
    # dropped tape is freed by reference counting without a cycle
    seq_shape, state_shape = xd.shape, u0.shape
    final = {}  # gradients seeded on U_T / I_T, consumed by the scan's backward

    def bwd(g):
        gdt = np.result_type(g, dtype)
        d = u_pre - thr
        if sharpness is None:
            sg = surrogate(d).astype(gdt, copy=False)
        else:
            sg = surrogate.primitive_grad(d, sharpness).astype(gdt, copy=False)
        # dL/dU_pre[t] = gU[t] * a[t] + b[t], where gU[t] is the gradient on
        # the post-reset U[t]: b is the spike-train term through the
        # surrogate, a the reset's direct path plus its path through S[t]
        b = g * sg
        if subtract:
            a = 1.0 - thr * sg
        else:
            if sharpness is None:
                s_all = (u_pre >= thr).astype(gdt)
            else:
                s_all = surrogate.primitive(d, sharpness).astype(gdt, copy=False)
            a = (1.0 - s_all) - u_pre * sg
        gu = final.pop("U", None)
        gi = final.pop("I", None)
        gu = np.zeros(state_shape, gdt) if gu is None else gu
        gi = np.zeros(state_shape, gdt) if gi is None else gi
        gx = np.empty(seq_shape, dtype=np.result_type(gdt, gu, gi))
        for t in range(seq_shape[0] - 1, -1, -1):
            dp = gu * a[t] + b[t]
            di = np.add(dp, gi, out=gx[t])
            gu = dp * alpha
            gi = di * beta
        return [g for g, on in zip((gx, gu, gi), on_tape) if on]

    out = _record(tape, "lif_scan", spikes, taped, bwd)

    def seed_final(key):
        def bwd_final(g):
            final[key] = g
            return [np.zeros(seq_shape, dtype=np.result_type(g, dtype))]

        return bwd_final

    def bwd_s(g):
        full = np.zeros(seq_shape, dtype=np.result_type(g, dtype))
        full[-1] = g
        return [full]

    u_t = _record(tape, "lif_scan_u", u, [out], seed_final("U"))
    i_t = _record(tape, "lif_scan_i", i, [out], seed_final("I"))
    s_t = _record(tape, "lif_scan_s", s_last, [out], bwd_s)
    return out, u_t, i_t, s_t


def softmax_cross_entropy(logits, target):
    """-log softmax(logits)[class] for a one-hot target, max-stabilized."""
    logits = _as_tensor(logits)
    target = _as_tensor(target)
    if logits.ndim != 1 or target.shape != logits.shape:
        raise ShapeError(
            f"expected matching 1-d logits/target, got {logits.shape} and {target.shape}"
        )
    if logits.shape[0] < 2:
        raise ValidationError("softmax_cross_entropy needs at least 2 classes")
    td = target.data
    if not (np.all((td == 0.0) | (td == 1.0)) and np.sum(td) == 1.0):
        raise ValidationError("target must be one-hot")
    tape = _tape_of(logits)  # target is a label, never differentiated
    z = logits.data - np.max(logits.data)
    ez = np.exp(z)
    p = ez / np.sum(ez)
    loss = np.log(np.sum(ez)) - z[np.argmax(td)]

    def bwd(g):
        return [(p - td) * np.asarray(g).reshape(())]

    return _record(tape, "softmax_ce", np.asarray(loss), [logits] if tape else [], bwd)
