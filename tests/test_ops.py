"""Tests for the differentiable op library.

Strategy: every op gets (1) a value check against a second route (numpy or
scipy computing the same thing a different way) and (2) a finite-difference
gradient check through a scalar head.  Gradchecks run in float64 at 1e-6.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.ndimage
import scipy.special

from m2mtnet import ops
from m2mtnet.autodiff import Tape, Var, gradcheck

TOL = 1e-6


def _head(v):
    """Scalar head for gradchecks: sum of squares keeps all paths live."""
    return ops.vsum(ops.square(v))


class TestElementwise:
    def test_add_broadcast_values(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal(4)
        out = ops.add(Var(a), Var(b))
        np.testing.assert_array_equal(out.value, a + b)

    def test_gradchecks(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        cases = [
            ("add", lambda x: _head(ops.add(x, b))),
            ("sub", lambda x: _head(ops.sub(x, b))),
            ("mul", lambda x: _head(ops.mul(x, b))),
            ("neg", lambda x: _head(ops.neg(x))),
            ("scale", lambda x: _head(ops.scale(x, -1.7))),
            ("square", lambda x: _head(ops.square(x))),
            ("vsum", lambda x: ops.square(ops.vsum(x))),
            ("vmean", lambda x: ops.square(ops.vmean(x))),
        ]
        for name, f in cases:
            assert gradcheck(f, a) < TOL, name

    def test_vabs_gradient_away_from_kink(self):
        a = np.array([[-2.0, -0.5], [0.5, 2.0]])
        assert gradcheck(lambda x: ops.vsum(ops.vabs(x)), a) < TOL

    def test_broadcast_unreduction(self):
        # gradient wrt the smaller operand must sum over broadcast axes
        rng = np.random.default_rng(2)
        big = rng.standard_normal((3, 4))
        assert gradcheck(lambda x: _head(ops.add(Var(big), x)), rng.standard_normal(4)) < TOL
        assert gradcheck(lambda x: _head(ops.mul(Var(big), x)), rng.standard_normal((3, 1))) < TOL

    def test_vsum_axis_keepdims(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, 4))
        out = ops.vsum(Var(a), axis=1, keepdims=True)
        np.testing.assert_allclose(out.value, a.sum(axis=1, keepdims=True))
        assert gradcheck(lambda x: _head(ops.vsum(x, axis=1, keepdims=True)), a) < TOL
        assert gradcheck(lambda x: _head(ops.vmean(x, axis=(0, 2))), a) < TOL


class TestShapeOps:
    def test_reshape_round_trip(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 3, 4))
        assert gradcheck(lambda x: _head(ops.reshape(x, (6, 4))), a) < TOL

    def test_transpose_inverse_perm(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 3, 4))
        out = ops.transpose(Var(a), (2, 0, 1))
        np.testing.assert_array_equal(out.value, a.transpose(2, 0, 1))
        assert gradcheck(lambda x: _head(ops.transpose(x, (2, 0, 1))), a) < TOL

    def test_getitem_scatter_gradient(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 5))
        out = ops.getitem(Var(a), (slice(1, 3), 2))
        np.testing.assert_array_equal(out.value, a[1:3, 2])
        assert gradcheck(lambda x: _head(ops.getitem(x, (slice(1, 3), 2))), a) < TOL
        # untouched entries get zero gradient
        t = Tape()
        x = t.var(a.copy())
        t.backward(ops.vsum(ops.getitem(x, (0,))), 1.0)
        np.testing.assert_array_equal(x.grad[1:], 0.0)
        np.testing.assert_array_equal(x.grad[0], 1.0)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat_values_and_gradient(self, axis):
        rng = np.random.default_rng(8)
        parts = []
        for n in (1, 3, 2):
            d = [2, 3, 4]
            d[axis] = n
            parts.append(rng.standard_normal(d))
        joined = np.concatenate(parts, axis=axis)
        out = ops.concat([Var(a) for a in parts], axis=axis)
        np.testing.assert_array_equal(out.value, joined)
        # a linear head with weights in [1, 2]: no gradient entry is near 0
        wts = 1.0 + rng.random(joined.shape)
        for i in range(len(parts)):
            f = lambda x: ops.vsum(ops.mul(ops.concat([x if j == i else a for j, a in enumerate(parts)], axis=axis), wts))
            assert gradcheck(f, parts[i]) < TOL

    def test_concat_gradients_are_views_of_g(self):
        rng = np.random.default_rng(9)
        t = Tape()
        a, b = t.var(rng.standard_normal((2, 3))), t.var(rng.standard_normal((1, 3)))
        out = ops.concat([a, b])
        g = rng.standard_normal((3, 3))
        t.backward(out, g)
        assert np.shares_memory(a.grad, g) and np.shares_memory(b.grad, g)
        np.testing.assert_array_equal(a.grad, g[:2])
        np.testing.assert_array_equal(b.grad, g[2:])

    @pytest.mark.parametrize(
        "parts, message",
        [
            ([], "concat: needs at least one input"),
            ([np.zeros((2, 3)), np.zeros((2, 4))], "concat: input dims (2, 4) do not match (2, 3) off axis 0"),
            ([np.zeros((2, 3)), np.zeros((2, 3, 1))], "concat: input dims (2, 3, 1) do not match (2, 3) off axis 0"),
            ([np.zeros((2, 3)), np.zeros((2, 3), np.float32)], "concat: dtype float32 != float64 of the first input"),
        ],
        ids=["empty", "trailing-dims", "ndim", "dtype"],
    )
    def test_concat_rejects_mismatched_inputs(self, parts, message):
        with pytest.raises(ValueError) as e:
            ops.concat(parts)
        assert str(e.value) == message


class TestMatmulLinear:
    def test_matmul_matches_numpy_batched(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        out = ops.matmul(Var(a), Var(b))
        expect = np.stack([a[i] @ b[i] for i in range(2)])
        np.testing.assert_allclose(out.value, expect, rtol=1e-12)

    def test_matmul_gradcheck_both_sides(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        assert gradcheck(lambda x: _head(ops.matmul(x, Var(b))), a) < TOL
        assert gradcheck(lambda x: _head(ops.matmul(Var(a), x)), b) < TOL

    def test_matmul_broadcast_batch_gradcheck(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        assert gradcheck(lambda x: _head(ops.matmul(Var(a), x)), b) < TOL

    def test_linear_is_xw_plus_b(self):
        rng = np.random.default_rng(11)
        x, w, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
        out = ops.linear(Var(x), Var(w), Var(b))
        np.testing.assert_allclose(out.value, x @ w + b, rtol=1e-12)
        assert gradcheck(lambda v: _head(ops.linear(v, Var(w), Var(b))), x) < TOL
        assert gradcheck(lambda v: _head(ops.linear(Var(x), v, Var(b))), w) < TOL
        assert gradcheck(lambda v: _head(ops.linear(Var(x), Var(w), v)), b) < TOL


def _scipy_conv(x, k, b):
    """Second route: scipy correlate with zero padding, channel by channel."""
    co, ci = k.shape[:2]
    out = np.empty((co,) + x.shape[1:])
    for o in range(co):
        acc = np.zeros(x.shape[1:])
        for i in range(ci):
            acc += scipy.ndimage.correlate(x[i], k[o, i], mode="constant", cval=0.0)
        out[o] = acc + b[o]
    return out


class TestConv2d:
    _reference = staticmethod(_scipy_conv)

    @pytest.mark.parametrize("ksize", [1, 3])
    def test_matches_scipy_correlate(self, ksize):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 3, 6, 5))
        k = rng.standard_normal((2, 3, ksize, ksize))
        b = rng.standard_normal(2)
        out = ops.conv2d(Var(x), Var(k), Var(b))
        np.testing.assert_allclose(out.value[0], self._reference(x[0], k, b), rtol=1e-10, atol=1e-12)

    def test_rejects_chw_input(self):
        k, b = np.zeros((2, 3, 3, 3)), np.zeros(2)
        with pytest.raises(ValueError) as e:
            ops.conv2d(np.zeros((3, 6, 5)), k, b)
        assert str(e.value) == "conv2d: input needs (B,C,H,W), got ndim 3"

    def test_batched_input(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 3, 5, 5))
        k = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        out = ops.conv2d(Var(x), Var(k), Var(b))
        for n in range(4):
            np.testing.assert_allclose(out.value[n], self._reference(x[n], k, b), rtol=1e-10, atol=1e-12)

    def test_gradcheck_all_inputs(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 4, 4))
        k = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        assert gradcheck(lambda v: _head(ops.conv2d(v, Var(k), Var(b))), x) < TOL
        assert gradcheck(lambda v: _head(ops.conv2d(Var(x), v, Var(b))), k) < TOL
        assert gradcheck(lambda v: _head(ops.conv2d(Var(x), Var(k), v)), b) < TOL


# one kernel per conv2d strategy: (Cout, Cin, k)
_CONV_BRANCHES = {
    "1x1": (4, 3, 1),
    "out_cout1": (1, 3, 3),
    "out_mid": (2, 4, 3),
    "in_cin1": (3, 1, 3),
    "in_wide": (4, 2, 3),
    "in_square": (3, 3, 3),
}
# (B,H,W) of the input: one image and batches, H != W, and a spatial side of 1
_CONV_INPUTS = [(1, 5, 7), (2, 4, 6), (2, 1, 5), (1, 6, 1)]


def _conv_case(rng, branch, spatial, dtype=np.float64):
    cout, cin, k = _CONV_BRANCHES[branch]
    x = rng.standard_normal((spatial[0], cin) + spatial[1:]).astype(dtype)
    w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    return x, w, b


class TestConv2dBranches:
    """Each shape-chosen conv2d strategy against the scipy correlate route."""

    def _reference(self, x, k, b):
        x, k, b = (a.astype(np.float64) for a in (x, k, b))
        return np.stack([_scipy_conv(xi, k, b) for xi in x])

    @pytest.mark.parametrize("spatial", _CONV_INPUTS)
    @pytest.mark.parametrize("branch", sorted(_CONV_BRANCHES))
    def test_matches_scipy_correlate_f64(self, branch, spatial):
        x, k, b = _conv_case(np.random.default_rng(40), branch, spatial)
        out = ops.conv2d(Var(x), Var(k), Var(b)).value
        assert out.dtype == np.float64 and out.shape == (x.shape[0], k.shape[0]) + x.shape[2:]
        np.testing.assert_allclose(out, self._reference(x, k, b), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("spatial", _CONV_INPUTS)
    @pytest.mark.parametrize("branch", sorted(_CONV_BRANCHES))
    def test_matches_scipy_correlate_f32(self, branch, spatial):
        # f32 tolerance: 1e-5 of the largest reference magnitude, about 80
        # f32 ulps for sums of at most 28 terms
        x, k, b = _conv_case(np.random.default_rng(41), branch, spatial, np.float32)
        out = ops.conv2d(Var(x), Var(k), Var(b)).value
        assert out.dtype == np.float32
        ref = self._reference(x, k, b)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5 * np.abs(ref).max())

    @pytest.mark.parametrize("branch", sorted(_CONV_BRANCHES))
    def test_gradcheck_every_input(self, branch):
        x, k, b = _conv_case(np.random.default_rng(42), branch, (2, 3, 4))
        assert gradcheck(lambda v: _head(ops.conv2d(v, Var(k), Var(b))), x) < TOL
        assert gradcheck(lambda v: _head(ops.conv2d(Var(x), v, Var(b))), k) < TOL
        assert gradcheck(lambda v: _head(ops.conv2d(Var(x), Var(k), v)), b) < TOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("branch", sorted(_CONV_BRANCHES))
    def test_zero_kernel_returns_exactly_the_bias(self, branch, dtype):
        x, k, b = _conv_case(np.random.default_rng(43), branch, (2, 5, 4), dtype)
        out = ops.conv2d(Var(x), Var(np.zeros_like(k)), Var(b)).value
        np.testing.assert_array_equal(out, np.broadcast_to(b[:, None, None], out.shape))

    def test_cout1_peak_memory_stays_under_two_inputs(self):
        """The Cout=1 3x3 conv (tail.squeeze) must not build a 9*Cin im2col."""
        rng = np.random.default_rng(44)
        x = rng.standard_normal((25, 48, 128, 128), dtype=np.float32)
        k = rng.standard_normal((1, 48, 3, 3), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        tracemalloc.start()
        try:
            ops.conv2d(x, k, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input bytes"


def _conv_grads(x, k, b, g):
    """conv2d's x, kernel and bias gradients for the output gradient g."""
    t = Tape()
    xv, kv, bv = t.var(x), t.var(k), t.var(b)
    t.backward(ops.conv2d(xv, kv, bv), g)
    return xv.grad, kv.grad, bv.grad


def _conv_grads_dense(x, k, g):
    """Second route for the x and kernel gradients, in float64: scipy
    correlation with the flipped, channel-swapped kernel, and the kernel
    gradient as an einsum over shifted windows of the padded input."""
    x, k, g = (a.astype(np.float64) for a in (x, k, g))
    kt = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    gx = np.stack([_scipy_conv(gi, kt, np.zeros(kt.shape[0])) for gi in g])
    kh, (h, w) = k.shape[-1], x.shape[-2:]
    pad = (kh - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gk = np.empty(k.shape)
    for dy in range(kh):
        for dx in range(kh):
            gk[:, :, dy, dx] = np.einsum("bohw,bihw->oi", g, xp[:, :, dy:dy + h, dx:dx + w])
    return gx, gk


class TestConv2dSkipsZeroGradientImages:
    """The vjp works on images whose output gradient is nonzero only."""

    # every branch: the kernel gradient is one im2col GEMM in all of them
    BRANCHES = sorted(_CONV_BRANCHES)
    DEAD = [0, 2, 4]  # first, a middle and the last of 5 images

    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-10, 1e-12), (np.float32, 0, 1e-5)])
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_dead_images_get_zero_and_live_ones_match(self, branch, dtype, rtol, atol):
        rng = np.random.default_rng(45)
        x, k, b = _conv_case(rng, branch, (5, 6, 7), dtype)
        g = rng.standard_normal((5, k.shape[0], 6, 7)).astype(dtype)
        g[self.DEAD] = 0
        gx, gk, gb = _conv_grads(x, k, b, g)
        assert gx.dtype == gk.dtype == gb.dtype == dtype
        rx, rk = _conv_grads_dense(x, k, g)
        for name, got, ref in (("gx", gx, rx), ("gk", gk, rk)):
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=atol * np.abs(ref).max(), err_msg=name)
        np.testing.assert_array_equal(gx[self.DEAD], 0)
        assert not np.signbit(gx[self.DEAD]).any()
        live = [1, 3]
        lx, lk, _ = _conv_grads(x[live], k, b, g[live])
        np.testing.assert_array_equal(gx[live], lx)
        np.testing.assert_array_equal(gk, lk)
        np.testing.assert_array_equal(gb, g.sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spatial", [(1, 6, 7), (3, 6, 7)])
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_all_zero_gradient(self, branch, spatial, dtype):
        # no live image: the vjp runs on an empty batch
        x, k, b = _conv_case(np.random.default_rng(47), branch, spatial, dtype)
        g = np.zeros((x.shape[0], k.shape[0]) + x.shape[2:], dtype)
        for got, like in zip(_conv_grads(x, k, b, g), (x, k, b)):
            assert got.dtype == dtype and got.shape == like.shape
            np.testing.assert_array_equal(got, 0)
            assert not np.signbit(got).any()

    def test_dead_image_holding_nan_gets_plus_zero(self):
        """0 * NaN would be NaN on the dense path; a skipped image is +0."""
        rng = np.random.default_rng(48)
        x, k, b = _conv_case(rng, "in_square", (3, 4, 5))
        x[0, 0, 1, 1] = np.nan
        g = rng.standard_normal((3, 3, 4, 5))
        g[0] = 0
        gx, gk, _ = _conv_grads(x, k, b, g)
        assert np.isfinite(gk).all() and np.isfinite(gx).all()
        g[0, 0, 0, 0] = np.nan  # a NaN in g makes its image live
        gx, gk, _ = _conv_grads(x, k, b, g)
        assert np.isnan(gk).any() and np.isnan(gx[0]).any()


class TestConv2dChunks:
    """The im2col branch and every kernel gradient run per chunk of images
    (ops.batch_slices).  Against a one-chunk run, the forward and the input
    gradient are equal exactly at the network's shapes, and the kernel
    gradient, a sum over chunks, agrees to rounding."""

    # (B, Cin, Cout, H, W, dtype): a 48->48 conv of the default model on
    # 5x5x32x32 views in f32, a 12->12 conv of the criterion-8 nets in f64,
    # and the default model's first head conv (Cin = 1)
    SHAPES = {
        "sr": (25, 48, 48, 32, 32, np.float32),
        "lam": (25, 12, 12, 32, 32, np.float64),
        "head0": (25, 1, 48, 32, 32, np.float32),
    }
    # relative to the largest one-chunk kernel gradient entry
    KERNEL_RTOL = {np.float32: 1e-5, np.float64: 1e-12}

    @staticmethod
    def _run(x, k, b, g):
        t = Tape()
        xv, kv = t.var(x), t.var(k)
        out = ops.conv2d(xv, kv, b)
        t.backward(out, g)
        return out.value, xv.grad, kv.grad

    @pytest.mark.parametrize("images", [1, 2, 5])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_chunks_match_one_chunk(self, shape, images, monkeypatch):
        bsz, cin, cout, h, w, dtype = self.SHAPES[shape]
        rng = np.random.default_rng(50)
        x = rng.standard_normal((bsz, cin, h, w)).astype(dtype)
        k = rng.standard_normal((cout, cin, 3, 3)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        g = rng.standard_normal((bsz, cout, h, w)).astype(dtype)
        monkeypatch.setattr(ops, "_CHUNK_BYTES", 1 << 40)
        ref = self._run(x, k, b, g)
        per_image = h * w * 9 * cin * x.itemsize
        monkeypatch.setattr(ops, "_CHUNK_BYTES", images * per_image)
        assert len(ops.batch_slices(bsz, per_image)) == -(-bsz // images)
        y, gx, gk = self._run(x, k, b, g)
        np.testing.assert_array_equal(y, ref[0])
        np.testing.assert_array_equal(gx, ref[1])
        assert gk.dtype == dtype
        err = np.abs(gk.astype(np.float64) - ref[2]).max() / np.abs(ref[2]).max()
        assert err <= self.KERNEL_RTOL[dtype], err

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("branch", sorted(_CONV_BRANCHES))
    def test_empty_live_batch_in_one_image_chunks(self, branch, dtype, monkeypatch):
        monkeypatch.setattr(ops, "_CHUNK_BYTES", 1)
        x, k, b = _conv_case(np.random.default_rng(51), branch, (3, 6, 7), dtype)
        g = np.zeros((3, k.shape[0], 6, 7), dtype)
        for got, like in zip(_conv_grads(x, k, b, g), (x, k, b)):
            assert got.dtype == dtype and got.shape == like.shape
            np.testing.assert_array_equal(got, 0)
            assert not np.signbit(got).any()

    @pytest.mark.parametrize(
        "n, item_bytes, budget, sizes",
        [
            (25, 100, 1000, [10, 10, 5]),
            (25, 100, 2500, [25]),
            (25, 100, 99, [1] * 25),
            (7, 0, 10, [7]),
            (0, 100, 1000, [0]),
            (0, 100, 1, [0]),
        ],
    )
    def test_batch_slices_tile_once_in_order(self, n, item_bytes, budget, sizes, monkeypatch):
        monkeypatch.setattr(ops, "_CHUNK_BYTES", budget)
        slices = ops.batch_slices(n, item_bytes)
        assert [s.stop - s.start for s in slices] == sizes
        assert [i for s in slices for i in range(s.start, s.stop)] == list(range(n))

    def test_peak_memory_under_two_inputs(self):
        """One chunk's columns, not the batch's 9*Cin im2col (10x the input)."""
        rng = np.random.default_rng(52)
        x = rng.standard_normal((25, 48, 32, 32), dtype=np.float32)
        k = rng.standard_normal((48, 48, 3, 3), dtype=np.float32)
        b = np.zeros(48, dtype=np.float32)
        tracemalloc.start()
        try:
            ops.conv2d(x, k, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input bytes"


class TestSoftmaxAttention:
    def test_matches_scipy(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((4, 6))
        out = ops.softmax(Var(x), axis=-1)
        np.testing.assert_allclose(out.value, scipy.special.softmax(x, axis=-1), rtol=1e-12)

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 5))
        s = ops.softmax(Var(x), -1).value
        np.testing.assert_allclose(s.sum(-1), 1.0, atol=1e-12)
        s2 = ops.softmax(Var(x + 100.0), -1).value
        np.testing.assert_allclose(s, s2, atol=1e-12)

    def test_large_inputs_stay_finite(self):
        s = ops.softmax(Var(np.array([1e4, 0.0, -1e4])), -1).value
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s.sum(), 1.0)

    def test_softmax_gradcheck(self):
        rng = np.random.default_rng(17)
        assert gradcheck(lambda v: _head(ops.softmax(v, -1)), rng.standard_normal((3, 4))) < TOL
        assert gradcheck(lambda v: _head(ops.softmax(v, 0)), rng.standard_normal((3, 4))) < TOL

    def test_attention_matches_manual(self):
        rng = np.random.default_rng(18)
        q, k, v = rng.standard_normal((5, 4)), rng.standard_normal((5, 4)), rng.standard_normal((5, 6))
        out = ops.attention(Var(q), Var(k), Var(v))
        weights = scipy.special.softmax(q @ k.T / np.sqrt(4.0), axis=-1)
        np.testing.assert_allclose(out.value, weights @ v, rtol=1e-10, atol=1e-12)

    def test_attention_gradcheck_each_input(self):
        rng = np.random.default_rng(19)
        q, k, v = rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), rng.standard_normal((3, 2))
        assert gradcheck(lambda x: _head(ops.attention(x, Var(k), Var(v))), q) < TOL
        assert gradcheck(lambda x: _head(ops.attention(Var(q), x, Var(v))), k) < TOL
        assert gradcheck(lambda x: _head(ops.attention(Var(q), Var(k), x)), v) < TOL


def _attention_composed(q, k, v):
    """The plain five-op route: matmul(softmax(scale(matmul(q, kT))), v)."""
    kt = ops.transpose(k, tuple(range(k.value.ndim - 2)) + (k.value.ndim - 1, k.value.ndim - 2))
    scores = ops.scale(ops.matmul(q, kt), 1.0 / float(np.sqrt(q.value.shape[-1])))
    return ops.matmul(ops.softmax(scores, -1), v)


class TestFusedAttention:
    """ops.attention against the composition of the ops it fuses."""

    # Row and instance counts that split the scores into several blocks, each
    # within half of ops._CHUNK_BYTES, in float64 and in float32 alike.
    _TK = 64
    _ROWS64 = ops._CHUNK_BYTES // 2 // (_TK * 8)  # rows per f64 row block
    _PER64 = ops._CHUNK_BYTES // 2 // (32 * 16 * 8)  # (32, 16) f64 instances per block

    # (q dims, k dims, v dims): 2-D, and batched with Tq != Tk and Dv != D
    # over one and over two leading axes, each one block; then several
    # blocks: row blocks of one instance whose last block is ragged (3 rows
    # in f64 and in f32), whole-instance blocks whose last block is ragged
    # (5 instances in f64 and in f32), and whole-instance blocks over two
    # leading axes whose last block is ragged (3 instances in f64, _PER64 + 3
    # in f32).
    SHAPES = [
        ((5, 4), (7, 4), (7, 3)),
        ((3, 7, 5, 4), (3, 7, 6, 4), (3, 7, 6, 2)),
        ((2, 3, 5, 4), (2, 3, 6, 4), (2, 3, 6, 5)),
        ((2, 2 * _ROWS64 + 3, 4), (2, _TK, 4), (2, _TK, 3)),
        ((2 * _PER64 + 5, 32, 4), (2 * _PER64 + 5, 16, 4), (2 * _PER64 + 5, 16, 3)),
        ((3, _PER64 + 1, 32, 4), (3, _PER64 + 1, 16, 4), (3, _PER64 + 1, 16, 5)),
    ]

    @staticmethod
    def _both(shapes, dtype, seed):
        """Output and q, k, v gradients of the fused and the composed route."""
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        g = None
        results = []
        for route in (ops.attention, _attention_composed):
            t = Tape()
            q, k, v = (t.var(a) for a in arrays)
            out = route(q, k, v)
            if g is None:
                g = rng.standard_normal(out.shape).astype(dtype)
            t.backward(out, g)
            results.append([out.value, q.grad, k.grad, v.grad])
        return results

    @staticmethod
    def _fused_grads(arrays, g):
        """ops.attention's q, k, v gradients for the output gradient g, each
        flattened to (instances, T, D)."""
        t = Tape()
        vs = [t.var(a) for a in arrays]
        t.backward(ops.attention(*vs), g)
        return [v.grad.reshape((-1,) + v.grad.shape[-2:]) for v in vs]

    # a multi-instance block, a row-split instance and a 4-D batch
    @pytest.mark.parametrize("shapes", [SHAPES[4], SHAPES[3], SHAPES[5]])
    @pytest.mark.parametrize("dtype, seed", [(np.float64, 66), (np.float32, 67)])
    def test_dead_instances_get_zero_and_live_ones_match(self, shapes, dtype, seed):
        """Instances whose output gradient is all zero are skipped: their
        gradients are +0, the rest equal a call on the live ones alone, and
        all agree with the composed route."""
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        g = rng.standard_normal(shapes[0][:-1] + shapes[2][-1:]).astype(dtype)
        n = int(np.prod(shapes[0][:-2]))
        dead = [0, n // 2, n - 1]
        live = [i for i in range(n) if i not in dead]
        g3 = g.reshape((n,) + g.shape[-2:])
        g3[dead] = 0
        fused = self._fused_grads(arrays, g)
        t = Tape()
        vs = [t.var(a) for a in arrays]
        t.backward(_attention_composed(*vs), g)
        atol = 1e-12 if dtype == np.float64 else 1e-5
        rtol = 1e-12 if dtype == np.float64 else 0
        for name, a, v in zip(("dq", "dk", "dv"), fused, vs):
            assert a.dtype == dtype, name
            b = v.grad.reshape(a.shape)
            np.testing.assert_allclose(a, b, rtol=rtol, atol=atol * np.abs(b).max(), err_msg=name)
            np.testing.assert_array_equal(a[dead], 0, err_msg=name)
            assert not np.signbit(a[dead]).any(), name
        sub = [a.reshape((n,) + a.shape[-2:])[live] for a in arrays]
        for name, a, b in zip(("dq", "dk", "dv"), fused, self._fused_grads(sub, g3[live])):
            np.testing.assert_array_equal(a[live], b, err_msg=name)

    # whole-instance blocks, and row blocks of one instance: with no live
    # instance the vjp walks empty blocks
    @pytest.mark.parametrize("shapes", [SHAPES[5], SHAPES[3]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_zero_gradient(self, dtype, shapes):
        arrays = [np.random.default_rng(68).standard_normal(s).astype(dtype) for s in shapes]
        g = np.zeros(shapes[0][:-1] + shapes[2][-1:], dtype)
        for a, got in zip(arrays, self._fused_grads(arrays, g)):
            assert got.dtype == dtype and got.size == a.size
            np.testing.assert_array_equal(got, 0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_dead_instance_holding_inf_gets_plus_zero(self):
        """The dense path would give NaN (0 * NaN) where the forward held inf;
        a skipped instance is +0, and a NaN in g keeps its instance live."""
        rng = np.random.default_rng(69)
        arrays = [rng.standard_normal((3, 5, 4)) for _ in range(3)]
        arrays[1][0, 2, 1] = np.inf
        g = rng.standard_normal((3, 5, 4))
        g[0] = 0
        assert all(np.isfinite(a).all() for a in self._fused_grads(arrays, g))
        g[0, 0, 0] = np.nan
        assert np.isnan(self._fused_grads(arrays, g)[0][0]).any()

    @pytest.mark.parametrize("shapes", SHAPES)
    def test_matches_composition_f64(self, shapes):
        fused, composed = self._both(shapes, np.float64, 60)
        for name, a, b in zip(("out", "dq", "dk", "dv"), fused, composed):
            assert a.shape == b.shape and a.dtype == np.float64, name
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(), err_msg=name)

    @pytest.mark.parametrize("shapes", SHAPES)
    def test_matches_composition_f32(self, shapes):
        """float32 stays float32 and agrees within 1e-5 of the largest
        magnitude of the composed float32 result."""
        fused, composed = self._both(shapes, np.float32, 61)
        for name, a, b in zip(("out", "dq", "dk", "dv"), fused, composed):
            assert a.dtype == np.float32, name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-5 * np.abs(b).max(), err_msg=name)

    def test_one_tape_record_per_call(self):
        rng = np.random.default_rng(62)
        q, k, v = (rng.standard_normal((2, 5, 4)) for _ in range(3))
        t = Tape()
        ops.attention(t.var(q), Var(k), Var(v))
        assert len(t) == 1
        ops.attention(Var(q), t.var(k), t.var(v))
        assert len(t) == 2
        ops.attention(Var(q), Var(k), Var(v))
        assert len(t) == 2

    def test_gradcheck_batched_each_input(self):
        rng = np.random.default_rng(63)
        q, k, v = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 5, 4)), rng.standard_normal((2, 5, 3))
        assert gradcheck(lambda x: _head(ops.attention(x, Var(k), Var(v))), q) < TOL
        assert gradcheck(lambda x: _head(ops.attention(Var(q), x, Var(v))), k) < TOL
        assert gradcheck(lambda x: _head(ops.attention(Var(q), Var(k), x)), v) < TOL

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="q dim 4 != k dim 3"):
            ops.attention(np.ones((2, 4)), np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="k rows 2 != v rows 3"):
            ops.attention(np.ones((2, 4)), np.ones((2, 4)), np.ones((3, 4)))
        # leading axes must be equal; nothing broadcasts
        for shapes in (((2, 5, 4), (1, 6, 4), (1, 6, 3)), ((2, 5, 4), (2, 6, 4), (6, 3)), ((5, 4), (3, 6, 4), (3, 6, 3))):
            with pytest.raises(ValueError, match="q, k, v leading axes .* differ"):
                ops.attention(*(np.ones(s) for s in shapes))

    @pytest.mark.parametrize(
        "n, tq, tk, itemsize", [(1, 5, 7, 8), (700, 32, 16, 8), (3, 2048, 64, 4), (2, 10, 200000, 8), (0, 4, 4, 8)]
    )
    def test_score_blocks_tile_each_row_once(self, n, tq, tk, itemsize):
        """Blocks cover every (instance, row) once, in order, and hold whole
        instances or row slices of one instance, within the byte budget
        unless a single row exceeds it: half of ops._CHUNK_BYTES, as the vjp
        holds two block buffers."""
        blocks, (bn, brows, btk) = ops._score_blocks(n, tq, tk, itemsize)
        assert btk == tk
        seen = [(i, row) for b, r in blocks for i in range(b.start, b.stop) for row in range(r.start, r.stop)]
        assert seen == [(i, row) for i in range(n) for row in range(tq)]
        for b, r in blocks:
            assert b.stop - b.start <= bn and r.stop - r.start <= brows
            assert b.stop - b.start == 1 or (r.start, r.stop) == (0, tq)
        assert bn * brows * tk * itemsize <= max(ops._CHUNK_BYTES // 2, tk * itemsize)

    def test_peak_memory_forward_backward_under_three_score_arrays(self):
        """Taped forward plus backward stays well under the five-op route's
        per-record copies of the (B, Tq, Tk) scores."""
        rng = np.random.default_rng(64)
        q, k, v = (rng.standard_normal((25, 256, 12)) for _ in range(3))
        score_bytes = 25 * 256 * 256 * 8
        tracemalloc.start()
        try:
            t = Tape()
            out = ops.attention(t.var(q), t.var(k), t.var(v))
            t.backward(out, np.ones_like(out.value))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * score_bytes, f"peak {peak / score_bytes:.2f}x one score array"

    @staticmethod
    def _peak_over_score_bytes(shape, dtype, taped):
        """tracemalloc peak of one self-attention call on (n, T, D) inputs,
        plus its backward when taped, over the bytes of one score array."""
        rng = np.random.default_rng(65)
        q, k, v = (rng.standard_normal(shape).astype(dtype) for _ in range(3))
        n, tokens, _ = shape
        tracemalloc.start()
        try:
            if taped:
                t = Tape()
                out = ops.attention(t.var(q), t.var(k), t.var(v))
                t.backward(out, np.ones_like(out.value))
            else:
                ops.attention(Var(q), Var(k), Var(v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (n * tokens * tokens * np.dtype(dtype).itemsize)

    def test_peak_memory_forward_backward_under_one_and_a_half_score_arrays(self):
        """Taped forward plus backward: P and dS are one block each."""
        ratio = self._peak_over_score_bytes((25, 256, 12), np.float64, taped=True)
        assert ratio < 1.5, f"peak {ratio:.2f}x one score array"

    def test_peak_memory_forward_backward_under_a_quarter_score_array(self):
        """With a tape no full score array exists either: the vjp recomputes
        P block by block from the row log-sum-exp."""
        ratio = self._peak_over_score_bytes((1, 2048, 8), np.float64, taped=True)
        assert ratio < 0.25, f"peak {ratio:.2f}x one score array"

    def test_peak_memory_forward_without_tape_under_a_quarter_score_array(self):
        """Without a tape no full score array exists; the peak is one block."""
        ratio = self._peak_over_score_bytes((1, 2048, 8), np.float32, taped=False)
        assert ratio < 0.25, f"peak {ratio:.2f}x one score array"


class TestNormalizationsActivations:
    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((6, 8)) * 3 + 5
        out = ops.layer_norm(Var(x), Var(np.ones(8)), Var(np.zeros(8))).value
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(-1), 1.0, atol=1e-3)  # eps-limited

    def test_layer_norm_matches_formula(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4, 5))
        g, o = 1.0 + rng.random(5), rng.standard_normal(5)
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        expect = (x - mu) / np.sqrt(var + 1e-5) * g + o
        np.testing.assert_allclose(ops.layer_norm(Var(x), Var(g), Var(o)).value, expect, rtol=1e-12)

    def test_layer_norm_gradcheck_all_inputs(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 4))
        g, o = 1.0 + rng.random(4), rng.standard_normal(4)
        assert gradcheck(lambda v: _head(ops.layer_norm(v, Var(g), Var(o))), x) < TOL
        assert gradcheck(lambda v: _head(ops.layer_norm(Var(x), v, Var(o))), g) < TOL
        assert gradcheck(lambda v: _head(ops.layer_norm(Var(x), Var(g), v)), o) < TOL

    def test_leaky_relu_values(self):
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        np.testing.assert_allclose(
            ops.leaky_relu(Var(x), 0.1).value, [-0.2, -0.05, 0.5, 2.0], rtol=1e-12
        )
        assert gradcheck(lambda v: _head(ops.leaky_relu(v, 0.1)), x) < TOL

    def test_gelu_matches_gaussian_cdf_route(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(50) * 2
        np.testing.assert_allclose(
            ops.gelu(Var(x)).value, x * scipy.special.ndtr(x), rtol=1e-10, atol=1e-15
        )

    def test_gelu_float32_stays_float32(self, monkeypatch):
        """erf, the value and the gradient all run in float32 for a float32 input."""
        seen = []

        def recording_erf(a):
            seen.append(a.dtype)
            return scipy.special.erf(a)

        monkeypatch.setattr(ops, "erf", recording_erf)
        x = np.linspace(-3, 3, 7, dtype=np.float32)
        t = Tape()
        xv = t.var(x)
        out = ops.gelu(xv)
        t.backward(out, np.ones_like(x))
        assert seen == [np.float32]
        assert out.value.dtype == np.float32 and xv.grad.dtype == np.float32

    def test_gelu_fixed_points_and_gradcheck(self):
        assert ops.gelu(Var(np.array(0.0))).value == 0.0
        # gelu(x) -> x for large x, -> 0 for very negative x
        np.testing.assert_allclose(ops.gelu(Var(np.array(10.0))).value, 10.0, rtol=1e-12)
        np.testing.assert_allclose(ops.gelu(Var(np.array(-10.0))).value, 0.0, atol=1e-12)
        rng = np.random.default_rng(24)
        assert gradcheck(lambda v: ops.vsum(ops.gelu(v)), rng.standard_normal((4, 4))) < TOL


class TestPixelShuffle:
    def test_rearrangement_oracle(self):
        rng = np.random.default_rng(25)
        c, r, h, w = 2, 2, 3, 3
        x = rng.standard_normal((c * r * r, h, w))
        out = ops.pixel_shuffle(Var(x), r).value
        assert out.shape == (c, h * r, w * r)
        for ch in range(c):
            for y in range(h):
                for xx in range(w):
                    for dy in range(r):
                        for dx in range(r):
                            assert out[ch, y * r + dy, xx * r + dx] == x[ch * r * r + dy * r + dx, y, xx]

    def test_batched_and_gradcheck(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((2, 8, 2, 2))
        out = ops.pixel_shuffle(Var(x), 2).value
        assert out.shape == (2, 2, 4, 4)
        assert gradcheck(lambda v: _head(ops.pixel_shuffle(v, 2)), x[0]) < TOL

    def test_any_leading_axes(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((2, 3, 8, 2, 2))
        out = ops.pixel_shuffle(Var(x), 2).value
        np.testing.assert_array_equal(out, np.stack([ops.pixel_shuffle(Var(xi), 2).value for xi in x]))
        assert gradcheck(lambda v: _head(ops.pixel_shuffle(v, 2)), x) < TOL

    def test_rejects_indivisible_channels(self):
        with pytest.raises(ValueError):
            ops.pixel_shuffle(Var(np.zeros((3, 2, 2))), 2)

    def test_rejects_fewer_than_three_axes(self):
        with pytest.raises(ValueError, match=r"pixel_shuffle: .*got dims \(4, 4\)"):
            ops.pixel_shuffle(Var(np.zeros((4, 4))), 2)


class TestBicubicKernel:
    def test_interpolating_at_integers(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(ops._keys_kernel(t), [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_partition_of_unity(self):
        """The four stencil weights sum to 1 for every phase."""
        frac = np.linspace(0.0, 1.0, 101)
        total = (
            ops._keys_kernel(frac + 1.0)
            + ops._keys_kernel(frac)
            + ops._keys_kernel(1.0 - frac)
            + ops._keys_kernel(2.0 - frac)
        )
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_even_symmetry(self):
        t = np.linspace(-2, 2, 41)
        np.testing.assert_allclose(ops._keys_kernel(t), ops._keys_kernel(-t), atol=1e-15)

    def test_tap_tables_are_mirror_symmetric(self):
        for n_in, n_out in [(8, 16), (7, 14), (9, 18), (8, 4), (6, 9)]:
            idx, wts = ops._tap_tables(n_in, n_out)
            np.testing.assert_array_equal(idx[::-1, ::-1], (n_in - 1) - idx)
            np.testing.assert_array_equal(wts[::-1, ::-1], wts)


class TestResampleMatrix:
    def test_rows_sum_to_one(self):
        for n_in, n_out in [(8, 16), (8, 4), (5, 15), (9, 18)]:
            m = ops.resample_matrix(n_in, n_out)
            np.testing.assert_allclose(m.sum(1), 1.0, atol=1e-12)

    def test_rotation_symmetry(self):
        # reversing input and output indices gives the same operator
        for n_in, n_out in [(8, 16), (6, 3), (7, 21)]:
            m = ops.resample_matrix(n_in, n_out)
            np.testing.assert_array_equal(m, m[::-1, ::-1])

    def test_matches_gather_route(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((9, 7))
        got = ops.resize_bicubic(Var(x), 2.0).value
        expect = ops.resample_matrix(9, 18) @ x @ ops.resample_matrix(7, 14).T
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-13)


class TestResizeBicubic:
    def test_constant_preserved_exactly(self):
        out = ops.resize_bicubic(Var(np.full((6, 6), 0.37)), 2.0).value
        assert np.all(out == 0.37)

    def test_linear_ramp_in_the_interior(self):
        """Away from the clamped border a ramp resamples to the exact ramp."""
        ramp = np.arange(8, dtype=np.float64)[None, :] * np.ones((8, 1))
        up = ops.resize_bicubic(Var(ramp), 2.0).value
        expect = (np.arange(16) + 0.5) * 0.5 - 0.5
        np.testing.assert_allclose(up[4, 3:-3], expect[3:-3], atol=1e-12)

    def test_downsample_shape_and_gradcheck(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((8, 8))
        assert ops.resize_bicubic(Var(x), 0.5).value.shape == (4, 4)
        assert gradcheck(lambda v: _head(ops.resize_bicubic(v, 0.5)), x) < TOL
        assert gradcheck(lambda v: _head(ops.resize_bicubic(v, 2.0)), rng.standard_normal((5, 4))) < TOL

    def test_leading_axes_pass_through(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((3, 2, 4, 4))
        out = ops.resize_bicubic(Var(x), 2.0).value
        assert out.shape == (3, 2, 8, 8)
        np.testing.assert_array_equal(out[1, 0], ops.resize_bicubic(Var(x[1, 0]), 2.0).value)

    def test_dihedral_symmetries_commute_bit_exactly(self):
        """Flips and transpose before == after, to the last bit.

        The 16-tap summation tree maps symmetric terms onto each other with
        operand swaps only, and float addition is bitwise commutative.
        """
        rng = np.random.default_rng(30)
        y = rng.standard_normal((8, 8))
        r = lambda z: ops.resize_bicubic(Var(np.ascontiguousarray(z)), 2.0).value
        base = r(y)
        np.testing.assert_array_equal(r(y[:, ::-1]), base[:, ::-1])
        np.testing.assert_array_equal(r(y[::-1, :]), base[::-1, :])
        np.testing.assert_array_equal(r(y[::-1, ::-1]), base[::-1, ::-1])
        np.testing.assert_array_equal(r(y.T), base.T)
        np.testing.assert_array_equal(r(np.rot90(y)), np.rot90(base))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ops.resize_bicubic(Var(np.zeros(4)), 2.0)
        with pytest.raises(ValueError):
            ops.resize_bicubic(Var(np.zeros((4, 4))), 0.01)


def _protocol_cases():
    """name -> (call, input arrays) for every op that records itself."""
    rng = np.random.default_rng(70)
    a = lambda *shape: rng.standard_normal(shape)
    return {
        "add": (ops.add, [a(3, 4), a(4)]),
        "sub": (ops.sub, [a(3, 4), a(3, 1)]),
        "mul": (ops.mul, [a(3, 4), a(3, 4)]),
        "neg": (ops.neg, [a(3, 4)]),
        "scale": (lambda x: ops.scale(x, -1.5), [a(3, 4)]),
        "vabs": (ops.vabs, [a(3, 4)]),
        "square": (ops.square, [a(3, 4)]),
        "vsum": (lambda x: ops.vsum(x, axis=(0, -1)), [a(2, 3, 4)]),
        "matmul": (ops.matmul, [a(2, 3, 4), a(4, 5)]),
        "reshape": (lambda x: ops.reshape(x, (4, 3)), [a(3, 4)]),
        "transpose": (lambda x: ops.transpose(x, (1, 0)), [a(3, 4)]),
        "getitem": (lambda x: ops.getitem(x, (slice(1, 3), 2)), [a(3, 4)]),
        "concat": (lambda *xs: ops.concat(xs), [a(2, 4), a(1, 4)]),
        "linear": (ops.linear, [a(2, 3, 4), a(4, 5), a(5)]),
        "conv2d": (ops.conv2d, [a(2, 3, 4, 4), a(2, 3, 3, 3), a(2)]),
        "softmax": (ops.softmax, [a(3, 4)]),
        "attention": (ops.attention, [a(2, 3, 4), a(2, 5, 4), a(2, 5, 3)]),
        "layer_norm": (ops.layer_norm, [a(3, 4), a(4), a(4)]),
        "leaky_relu": (ops.leaky_relu, [a(3, 4)]),
        "gelu": (ops.gelu, [a(3, 4)]),
        "resize_bicubic": (lambda x: ops.resize_bicubic(x, 2.0), [a(1, 4, 4)]),
    }


_PROTOCOL = _protocol_cases()
# built from other ops, so they record once per inner op; and three helpers
# that take no Vars
_NOT_SELF_RECORDING = {"vmean", "pixel_shuffle", "as_var", "resample_matrix", "batch_slices"}


class TestOpProtocol:
    """Every op joins the tape through ops._op: a taped input gives one
    record, constants give none, and two tapes never mix."""

    def test_every_op_has_a_case(self):
        assert set(_PROTOCOL) == set(ops.__all__) - _NOT_SELF_RECORDING

    @pytest.mark.parametrize("name", sorted(_PROTOCOL))
    def test_one_taped_input_gives_one_record(self, name, monkeypatch):
        call, inputs = _PROTOCOL[name]
        helper, calls = ops._op, []

        def counted(*a):
            calls.append(a)
            return helper(*a)

        monkeypatch.setattr(ops, "_op", counted)
        for i in range(len(inputs)):
            t = Tape()
            args = [Var(x, t if j == i else None) for j, x in enumerate(inputs)]
            out = call(*args)
            assert len(t) == 1 and out.tape is t, (name, i)
            t.backward(out, np.ones_like(out.value))
            assert args[i].grad.shape == inputs[i].shape
        assert len(calls) == len(inputs)

    @pytest.mark.parametrize("name", sorted(_PROTOCOL))
    def test_constant_inputs_record_nothing(self, name, monkeypatch):
        call, inputs = _PROTOCOL[name]

        def fail(*_):
            raise AssertionError("constant inputs recorded")

        monkeypatch.setattr(Tape, "record", fail)
        assert call(*[Var(x) for x in inputs]).tape is None
        assert call(*inputs).tape is None

    @pytest.mark.parametrize("name", sorted(n for n, (_, inputs) in _PROTOCOL.items() if len(inputs) > 1))
    def test_inputs_from_two_tapes_raise(self, name):
        call, inputs = _PROTOCOL[name]
        t1, t2 = Tape(), Tape()
        args = [Var(x, t1 if j == 0 else t2) for j, x in enumerate(inputs)]
        with pytest.raises(ValueError, match="op mixes Vars from two different tapes"):
            call(*args)
        assert len(t1) == len(t2) == 0
