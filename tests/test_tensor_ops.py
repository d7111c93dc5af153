"""Tensor, tape, and primitive-op tests, with finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikegrad import ops
from spikegrad.surrogates import SurrogateFn
from spikegrad.tensor import (
    ContractError,
    ShapeError,
    Tape,
    Tensor,
    ValidationError,
    backward,
)


def central_diff(f, x, eps=1e-6):
    """Independent oracle: central finite differences of scalar f at x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ops.matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = ops.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_gradient_vs_fd(self):
        # frozen from the central-difference oracle at eps=1e-6, 64-bit
        b = np.eye(2)
        tape = Tape()
        a = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        y = ops.sum_all(ops.matmul(a, Tensor(b)))
        grads = backward(tape, y.node_id)
        fd = central_diff(lambda x: float(np.sum(x @ b)), [[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(grads[a.node_id].data, [[1.0, 1.0], [1.0, 1.0]])
        assert rel_err(grads[a.node_id].data, fd) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, m", [(64, 256), (256, 256), (256, 10), (4096, 10)])
    def test_row_independent_of_row_count(self, n, m, dtype):
        # a one-row product equals that row of a many-row product bit for bit,
        # so both schedulers feed a LIF layer the same values
        rng = np.random.default_rng(n + m)
        w = Tensor(rng.normal(size=(n, m)).astype(dtype))
        x = Tensor((rng.random((100, n)) < 0.2).astype(dtype))
        full = ops.matmul(x, w).data
        rows = np.concatenate([ops.matmul(ops.slice_rows(x, t, t + 1), w).data
                               for t in range(100)])
        assert full.dtype == rows.dtype == dtype
        assert np.array_equal(full, rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 5), (64, 128), (128, 128), (128, 10),
                                      (257, 33)])
    def test_one_row_weight_grad_matches_gemm(self, n, m, dtype):
        # a one-row weight gradient is the k=1 gemm ad.T @ g byte for byte,
        # signed zeros included (a0 has zeros and g negative entries, whose
        # products are -0)
        rng = np.random.default_rng(n * m)
        a0 = (rng.random((1, n)) < 0.3).astype(dtype)
        a0[0, : n // 3] = rng.normal(size=n // 3)
        g = rng.normal(size=(1, m)).astype(dtype)
        g[0, ::4] = 0.0
        tape = Tape()
        a = tape.leaf(a0)
        b = tape.leaf(rng.normal(size=(n, m)).astype(dtype))
        grads = tape.grads_from_seeds({ops.matmul(a, b).node_id: g})
        got, want = grads[b.node_id], a0.T @ g
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(grads[a.node_id], g @ b.data.T)

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_random_grads_vs_fd(self):
        rng = np.random.default_rng(7)
        a0 = rng.uniform(-2, 2, (3, 4))
        b0 = rng.uniform(-2, 2, (4, 2))
        tape = Tape()
        a = tape.leaf(a0)
        b = tape.leaf(b0)
        y = ops.sum_all(ops.mul(ops.matmul(a, b), ops.matmul(a, b)))
        grads = backward(tape, y.node_id)
        fd_a = central_diff(lambda x: float(np.sum((x @ b0) ** 2)), a0)
        fd_b = central_diff(lambda x: float(np.sum((a0 @ x) ** 2)), b0)
        assert rel_err(grads[a.node_id].data, fd_a) < 1e-4
        assert rel_err(grads[b.node_id].data, fd_b) < 1e-4


class TestConv2d:
    def test_scalar_kernel_scales(self):
        x = Tensor(np.ones((1, 3, 3)))
        k = Tensor(np.array([[[[2.0]]]]))
        out = ops.conv2d(x, k)
        assert np.array_equal(out.data, np.full((1, 3, 3), 2.0))

    def test_hand_cross_correlation(self):
        x = Tensor(np.arange(1.0, 10.0).reshape(1, 3, 3))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = ops.conv2d(x, k)
        assert out.data.reshape(2, 2).tolist() == [[12.0, 16.0], [24.0, 28.0]]

    def test_kernel_gradient_vs_fd(self):
        x0 = np.arange(1.0, 10.0).reshape(1, 3, 3)
        k0 = np.ones((1, 1, 2, 2))
        tape = Tape()
        k = tape.leaf(k0)
        y = ops.sum_all(ops.conv2d(Tensor(x0), k))
        grads = backward(tape, y.node_id)

        def f(kv):
            acc = 0.0
            for i in range(2):
                for j in range(2):
                    acc += np.sum(x0[0, i : i + 2, j : j + 2] * kv[0, 0])
            return float(acc)

        fd = central_diff(f, k0, eps=1e-5)
        assert rel_err(grads[k.node_id].data, fd) < 1e-4

    def test_input_gradient_vs_fd(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-1, 1, (2, 5, 5))
        k0 = rng.uniform(-1, 1, (3, 2, 3, 3))
        tape = Tape()
        x = tape.leaf(x0)
        y = ops.sum_all(ops.conv2d(x, Tensor(k0), stride=2, padding=1))
        grads = backward(tape, y.node_id)

        def f(xv):
            t2 = Tape()
            return float(ops.sum_all(ops.conv2d(Tensor(xv), Tensor(k0), stride=2, padding=1)).data)

        fd = central_diff(f, x0, eps=1e-5)
        assert rel_err(grads[x.node_id].data, fd) < 1e-4

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))

    @pytest.mark.parametrize("stride,padding", [(True, 0), (1, False), (1, True), (1.0, 0),
                                                (0, 0), (1, -1)])
    def test_bad_stride_or_padding_rejected(self, stride, padding):
        with pytest.raises(ValidationError):
            ops.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 2, 2))),
                       stride=stride, padding=padding)


def naive_conv(x, k, stride, padding, g):
    """Cross-correlation of x [B, C, H, W] with k [Co, C, kh, kh] by nested
    loops over output positions and taps, in float64, with the input and
    kernel gradients for the output gradient g: (out, dx, dk)."""
    x, k, g = (np.asarray(a, dtype=np.float64) for a in (x, k, g))
    b, c, h, w = x.shape
    co, _, kh, _ = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kh) // stride + 1
    out = np.zeros((b, co, ho, wo))
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for r in range(ho):
        for q in range(wo):
            for i in range(kh):
                for j in range(kh):
                    v = xp[:, :, r * stride + i, q * stride + j]  # [B, C]
                    out[:, :, r, q] += v @ k[:, :, i, j].T
                    dxp[:, :, r * stride + i, q * stride + j] += g[:, :, r, q] @ k[:, :, i, j]
                    dk[:, :, i, j] += g[:, :, r, q].T @ v
    return out, dxp[:, :, padding : padding + h, padding : padding + w], dk


@st.composite
def conv_cases(draw):
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    k = draw(st.integers(1, 4))
    lo = max(1, k - 2 * padding)
    h, w = draw(st.integers(lo, lo + 6)), draw(st.integers(lo, lo + 6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    b, c, co = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.uniform(-1, 1, (b, c, h, w)).astype(dtype)
    kernel = rng.uniform(-1, 1, (co, c, k, k)).astype(dtype)
    return x, kernel, stride, padding, rng


class TestConvKernel:
    """conv2d_forward/_backward (per-tap products over phase planes) against
    naive_conv, for every stride, padding and kernel size the strategy draws,
    square and non-square inputs, in both precisions."""

    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_matches_naive_cross_correlation(self, case):
        x, kernel, stride, padding, rng = case
        out, planes = ops.conv2d_forward(x, kernel, stride, padding)
        g = rng.uniform(-1, 1, out.shape).astype(x.dtype)
        # one sample: the kernel's gradient is [1, ...]
        dx, (dk,) = ops.conv2d_backward(g, planes, kernel, x.shape, stride, padding, True, True)
        want = naive_conv(x, kernel, stride, padding, g)
        # each value is a sum of at most C * k * k (or B * Ho * Wo) products,
        # so its rounding error stays below a few ulps of the sum of their
        # magnitudes, which the naive sums of |x|, |k| and |g| bound
        bound = naive_conv(np.abs(x), np.abs(kernel), stride, padding, np.abs(g))
        tol = 1e-5 if x.dtype == np.float32 else 1e-13
        for got, ref, mag in zip((out, dx, dk), want, bound):
            assert got.shape == ref.shape and got.dtype == x.dtype
            assert np.all(np.abs(got - ref) <= tol * mag + 1e-30)

    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_rows_are_bytes_of_per_row_convs(self, case):
        """A row's output and input gradient are the same bytes in a slab of
        any size: the schedulers' float32 bit-identity rests on this."""
        x, kernel, stride, padding, rng = case
        x, kernel = x.astype(np.float32), kernel.astype(np.float32)
        out, planes = ops.conv2d_forward(x, kernel, stride, padding)
        g = rng.uniform(-1, 1, out.shape).astype(np.float32)
        dx, _ = ops.conv2d_backward(g, planes, kernel, x.shape, stride, padding, True, False)
        rows, drows = [], []
        for r in range(x.shape[0]):
            o, p = ops.conv2d_forward(x[r : r + 1], kernel, stride, padding)
            rows.append(o[0])
            drows.append(ops.conv2d_backward(g[r : r + 1], p, kernel, x[r : r + 1].shape,
                                             stride, padding, True, False)[0][0])
        assert np.stack(rows).tobytes() == np.ascontiguousarray(out).tobytes()
        assert np.stack(drows).tobytes() == np.ascontiguousarray(dx).tobytes()


class TestPerSampleKernels:
    """Over the time-major rows of several samples (row t * samples + s),
    matmul_backward and conv2d_backward give each sample the bytes of a
    one-sample call. A product or a sum over all samples' rows at once would
    not: on OpenBLAS, a 125-row g @ W.T rounds differently from five 25-row
    ones, and a sum over 25 rows of a 1 x 1 kernel's gradient goes pairwise
    for one sample but row by row for five."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("rows, samples", [(1, 3), (7, 8), (25, 5)])
    def test_matmul_backward(self, dtype, rows, samples):
        rng = np.random.default_rng(rows * 10 + samples)
        a = rng.standard_normal((rows * samples, 17)).astype(dtype)
        g = rng.standard_normal((rows * samples, 33)).astype(dtype)
        w = rng.standard_normal((17, 33)).astype(dtype)
        ga, gw = ops.matmul_backward(a, w, g, True, True, samples)
        assert gw.shape == (samples,) + w.shape
        for s in range(samples):
            one_a, one_w = ops.matmul_backward(np.ascontiguousarray(a[s::samples]), w,
                                               np.ascontiguousarray(g[s::samples]), True, True)
            assert ga[s::samples].tobytes() == one_a.tobytes(), s
            assert gw[s].tobytes() == one_w.tobytes(), s

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("rows, samples", [(1, 3), (25, 5)])
    @pytest.mark.parametrize("c, co, k, stride, padding", [(1, 1, 1, 1, 0), (2, 3, 3, 2, 1)])
    def test_conv2d_backward(self, dtype, rows, samples, c, co, k, stride, padding):
        rng = np.random.default_rng(rows * 10 + samples + k)
        x = rng.uniform(-1, 1, (rows * samples, c, 5, 6)).astype(dtype)
        kernel = rng.uniform(-1, 1, (co, c, k, k)).astype(dtype)
        out, planes = ops.conv2d_forward(x, kernel, stride, padding)
        g = rng.uniform(-1, 1, out.shape).astype(dtype)
        dx, dk = ops.conv2d_backward(g, planes, kernel, x.shape, stride, padding, True, True,
                                     samples)
        assert dk.shape == (samples,) + kernel.shape
        for s in range(samples):
            xs, gs = np.ascontiguousarray(x[s::samples]), np.ascontiguousarray(g[s::samples])
            _, one_planes = ops.conv2d_forward(xs, kernel, stride, padding)
            one_x, one_k = ops.conv2d_backward(gs, one_planes, kernel, xs.shape, stride,
                                               padding, True, True)
            assert dx[s::samples].tobytes() == one_x.tobytes(), s
            assert dk[s].tobytes() == one_k.tobytes(), s


class TestElementwise:
    def test_scale_zero(self):
        assert ops.scale(Tensor([1.0, 2.0, 3.0]), 0.0).data.tolist() == [0.0, 0.0, 0.0]

    def test_sum_all(self):
        assert float(ops.sum_all(Tensor([1.0, 2.0, 3.0])).data) == 6.0

    def test_grad_of_square_sum(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        y = ops.sum_all(ops.mul(x, x))
        grads = backward(tape, y.node_id)
        fd = central_diff(lambda v: float(np.sum(v * v)), [1.0, 2.0])
        assert np.allclose(grads[x.node_id].data, [2.0, 4.0])
        assert rel_err(grads[x.node_id].data, fd) < 1e-4

    def test_scalar_broadcast(self):
        x = Tensor([1.0, 2.0])
        assert ops.add(x, 1.0).data.tolist() == [2.0, 3.0]
        assert ops.sub(1.0, x).data.tolist() == [0.0, -1.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_operand_takes_tensor_dtype(self, dtype):
        x = Tensor(np.array([0.0, 1.0], dtype=dtype))
        for out in (ops.sub(1.0, x), ops.add(x, 2), ops.mul(np.float64(0.5), x)):
            assert out.dtype == dtype

    def test_bad_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            ops.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_sum_axis(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert ops.sum_axis(x, 0).data.tolist() == [3.0, 5.0, 7.0]
        assert ops.sum_axis(x, 1).data.tolist() == [3.0, 12.0]

    def test_sum_axis_gradient(self):
        tape = Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        y = ops.sum_all(ops.mul(ops.sum_axis(x, 0), ops.sum_axis(x, 0)))
        grads = backward(tape, y.node_id)
        fd = central_diff(lambda v: float(np.sum(np.sum(v, 0) ** 2)), np.arange(6.0).reshape(2, 3))
        assert rel_err(grads[x.node_id].data, fd) < 1e-4

    def test_slice_and_stack_roundtrip(self):
        tape = Tape()
        x = tape.leaf(np.arange(6.0).reshape(3, 2))
        rows = [ops.reshape(ops.slice_rows(x, t, t + 1), (2,)) for t in range(3)]
        y = ops.sum_all(ops.mul(ops.stack_rows(rows), ops.stack_rows(rows)))
        grads = backward(tape, y.node_id)
        assert np.allclose(grads[x.node_id].data, 2 * np.arange(6.0).reshape(3, 2))


class TestReshape:
    def test_same_shape_records_no_node_and_passes_gradients(self):
        tape = Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        n = len(tape)
        y = ops.reshape(x, [2, 3])
        assert y is x and len(tape) == n
        z = ops.sum_all(ops.mul(y, ops.reshape(ops.reshape(x, (3, 2)), (2, 3))))
        assert tape._tags.count("reshape") == 2
        grads = backward(tape, z.node_id)
        assert np.array_equal(grads[x.node_id].data, 2 * np.arange(6.0).reshape(2, 3))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.reshape(Tensor(np.ones((2, 3))), (4, 2))


class TestSoftmaxCrossEntropy:
    def test_uniform(self):
        loss = ops.softmax_cross_entropy(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))
        assert abs(float(loss.data) - np.log(2.0)) < 1e-6

    def test_confident(self):
        # hand value: log(1 + e^-10)
        loss = ops.softmax_cross_entropy(
            Tensor([10.0, 0.0], dtype=np.float64), Tensor([1.0, 0.0], dtype=np.float64)
        )
        assert abs(float(loss.data) - np.log1p(np.exp(-10.0))) < 1e-9
        assert abs(float(loss.data) - 4.5398e-5) < 1e-8

    def test_gradient_is_softmax_minus_target(self):
        logits0 = np.array([1.0, -0.5, 2.0])
        target = np.array([0.0, 0.0, 1.0])
        tape = Tape()
        lg = tape.leaf(logits0)
        loss = ops.softmax_cross_entropy(lg, Tensor(target))
        grads = backward(tape, loss.node_id)
        p = np.exp(logits0) / np.sum(np.exp(logits0))
        assert np.allclose(grads[lg.node_id].data, p - target)

        def f(v):
            z = v - v.max()
            return float(np.log(np.sum(np.exp(z))) - z[2])

        fd = central_diff(f, logits0)
        assert rel_err(grads[lg.node_id].data, fd) < 1e-4

    def test_non_one_hot_rejected(self):
        with pytest.raises(ValidationError):
            ops.softmax_cross_entropy(Tensor([0.0, 0.0]), Tensor([0.5, 0.5]))


class TestThreshold:
    def test_forward_ties_spike(self):
        out = ops.threshold(Tensor([0.5, 1.0, 1.5]), 1.0, SurrogateFn())
        assert out.data.tolist() == [0.0, 1.0, 1.0]

    def test_output_is_binary(self):
        rng = np.random.default_rng(0)
        out = ops.threshold(Tensor(rng.normal(size=100)), 0.3, SurrogateFn())
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_superspike_multiplier_at_peak(self):
        tape = Tape()
        u = tape.leaf(np.array([1.0]))  # u - thr == 0
        s = ops.sum_all(ops.threshold(u, 1.0, SurrogateFn("superspike", 10.0)))
        grads = backward(tape, s.node_id)
        assert np.allclose(grads[u.node_id].data, [1.0])

    def test_superspike_multiplier_offset(self):
        # hand value: 1 / (10 * 0.1 + 1)^2 == 0.25
        tape = Tape()
        u = tape.leaf(np.array([1.1]))
        s = ops.sum_all(ops.threshold(u, 1.0, SurrogateFn("superspike", 10.0)))
        grads = backward(tape, s.node_id)
        assert np.allclose(grads[u.node_id].data, [0.25])


class TestTapeBackward:
    def test_constant_only_tape_gives_empty_map(self):
        tape = Tape()
        c = tape.constant(np.array(3.0))
        assert backward(tape, c.node_id) == {}

    def test_linear_case(self):
        tape = Tape()
        w = tape.leaf(np.array(2.0))
        y = ops.mul(w, Tensor(np.array(3.0)))
        grads = backward(tape, y.node_id)
        assert float(grads[w.node_id].data) == 3.0

    def test_non_scalar_seed_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ContractError):
            backward(tape, x.node_id)

    def test_backward_is_deterministic_and_not_accumulating(self):
        rng = np.random.default_rng(1)
        tape = Tape()
        a = tape.leaf(rng.normal(size=(4, 4)))
        b = tape.leaf(rng.normal(size=(4, 4)))
        y = ops.sum_all(ops.mul(ops.matmul(a, b), ops.matmul(a, b)))
        g1 = backward(tape, y.node_id)
        g2 = backward(tape, y.node_id)
        assert np.array_equal(g1[a.node_id].data, g2[a.node_id].data)
        assert np.array_equal(g1[b.node_id].data, g2[b.node_id].data)

    def test_unused_parameter_gets_zero_gradient(self):
        tape = Tape()
        used = tape.leaf(np.array(2.0))
        unused = tape.leaf(np.ones(3))
        y = ops.mul(used, used)
        grads = backward(tape, y.node_id)
        assert np.array_equal(grads[unused.node_id].data, np.zeros(3))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ValidationError):
            ops.add(a, b)


class TestTensorBasics:
    def test_default_precision_is_f32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_explicit_f64(self):
        assert Tensor([1.0], dtype=np.float64).dtype == np.float64

    def test_finite_after_ops(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(-2, 2, (8, 8)))
        y = ops.matmul(ops.add(x, x), ops.mul(x, x))
        assert np.all(np.isfinite(y.data))
