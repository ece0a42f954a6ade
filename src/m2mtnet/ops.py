"""Differentiable numpy kernels recorded on the autodiff tape.

Every op takes Vars (or raw arrays, lifted to constant Vars), computes its
value eagerly, and registers a vjp closure when any input sits on a tape.
Ops never mutate input arrays.  Dtype follows the inputs: float32 stays
float32, float64 stays float64.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .autodiff import Tape, Var

__all__ = [
    "as_var",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "vabs",
    "square",
    "vsum",
    "vmean",
    "matmul",
    "reshape",
    "transpose",
    "getitem",
    "linear",
    "conv2d",
    "softmax",
    "attention",
    "layer_norm",
    "leaky_relu",
    "gelu",
    "pixel_shuffle",
    "resample_matrix",
    "resize_bicubic",
]


def as_var(x, tape: Tape | None = None) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x), tape)


def _tape_of(*vs: Var) -> Tape | None:
    tape = None
    for v in vs:
        if v.tape is None:
            continue
        if tape is None:
            tape = v.tape
        elif tape is not v.tape:
            raise ValueError("op mixes Vars from two different tapes")
    return tape


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _live(g: np.ndarray) -> np.ndarray | None:
    """Indices i where g[i] has a nonzero entry (NaN and inf count), or None
    when every g[i] has one."""
    live = np.flatnonzero(g.any(axis=tuple(range(1, g.ndim))))
    return None if len(live) == len(g) else live


def _scatter(part: np.ndarray, live: np.ndarray | None, n: int) -> np.ndarray:
    """part's rows placed at `live` among n zero rows; part itself when
    live is None."""
    if live is None:
        return part
    full = np.zeros((n,) + part.shape[1:], part.dtype)
    full[live] = part
    return full


# ---------------------------------------------------------------------------
# Elementwise and reduction ops

def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    t = _tape_of(a, b)
    out = Var(a.value + b.value, t)
    if t is not None:
        sa, sb = a.value.shape, b.value.shape
        t.record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    t = _tape_of(a, b)
    out = Var(a.value - b.value, t)
    if t is not None:
        sa, sb = a.value.shape, b.value.shape
        t.record(out, (a, b), lambda g: (_unbroadcast(g, sa), -_unbroadcast(g, sb)))
    return out


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    t = _tape_of(a, b)
    out = Var(a.value * b.value, t)
    if t is not None:
        sa, sb = a.value.shape, b.value.shape
        t.record(
            out,
            (a, b),
            lambda g: (_unbroadcast(g * b.value, sa), _unbroadcast(g * a.value, sb)),
        )
    return out


def neg(a) -> Var:
    a = as_var(a)
    t = _tape_of(a)
    out = Var(-a.value, t)
    if t is not None:
        t.record(out, (a,), lambda g: (-g,))
    return out


def scale(a, c: float) -> Var:
    """Multiply by a python scalar (not differentiated w.r.t. c)."""
    a = as_var(a)
    t = _tape_of(a)
    out = Var(a.value * c, t)
    if t is not None:
        t.record(out, (a,), lambda g: (g * c,))
    return out


def vabs(a) -> Var:
    a = as_var(a)
    t = _tape_of(a)
    out = Var(np.abs(a.value), t)
    if t is not None:
        sgn = np.sign(a.value)
        t.record(out, (a,), lambda g: (g * sgn,))
    return out


def square(a) -> Var:
    a = as_var(a)
    t = _tape_of(a)
    out = Var(a.value * a.value, t)
    if t is not None:
        t.record(out, (a,), lambda g: (g * (2.0 * a.value),))
    return out


def vsum(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    t = _tape_of(a)
    out = Var(a.value.sum(axis=axis, keepdims=keepdims), t)
    if t is not None:
        shape = a.value.shape

        def vjp(g):
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.ascontiguousarray(np.broadcast_to(g, shape)),)

        t.record(out, (a,), vjp)
    return out


def vmean(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    n = a.value.size if axis is None else np.prod(
        [a.value.shape[ax % a.value.ndim] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return scale(vsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


# ---------------------------------------------------------------------------
# Shape ops

def reshape(a, shape) -> Var:
    a = as_var(a)
    t = _tape_of(a)
    out = Var(a.value.reshape(shape), t)
    if t is not None:
        orig = a.value.shape
        t.record(out, (a,), lambda g: (g.reshape(orig),))
    return out


def transpose(a, axes) -> Var:
    a = as_var(a)
    t = _tape_of(a)
    out = Var(np.ascontiguousarray(np.transpose(a.value, axes)), t)
    if t is not None:
        inv = np.argsort(axes)
        t.record(out, (a,), lambda g: (np.ascontiguousarray(np.transpose(g, inv)),))
    return out


def getitem(a, idx) -> Var:
    """Basic slicing; gradient scatters back into the sliced region."""
    a = as_var(a)
    t = _tape_of(a)
    out = Var(np.ascontiguousarray(a.value[idx]), t)
    if t is not None:
        shape = a.value.shape

        def vjp(g):
            gz = np.zeros(shape, dtype=g.dtype)
            gz[idx] = g
            return (gz,)

        t.record(out, (a,), vjp)
    return out


# ---------------------------------------------------------------------------
# Linear algebra

def matmul(a, b) -> Var:
    """Matrix product with numpy batch broadcasting on leading axes."""
    a, b = as_var(a), as_var(b)
    t = _tape_of(a, b)
    out = Var(a.value @ b.value, t)
    if t is not None:
        av, bv = a.value, b.value

        def vjp(g):
            ga = _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)
            gb = _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)
            return (ga, gb)

        t.record(out, (a, b), vjp)
    return out


def linear(x, w, b) -> Var:
    """x @ w + b over the last axis: (..., Din) -> (..., Dout)."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    din, dout = w.value.shape
    if x.value.shape[-1] != din:
        raise ValueError(f"linear: input dim {x.value.shape[-1]} != weight Din {din}")
    if b.value.shape != (dout,):
        raise ValueError(f"linear: bias dims {b.value.shape} != ({dout},)")
    t = _tape_of(x, w, b)
    out = Var(x.value @ w.value + b.value, t)
    if t is not None:
        xv, wv = x.value, w.value

        def vjp(g):
            g2 = g.reshape(-1, dout)
            gx = (g @ wv.T).reshape(xv.shape)
            gw = xv.reshape(-1, din).T @ g2
            gb = g2.sum(axis=0)
            return (gx, gw, gb)

        t.record(out, (x, w, b), vjp)
    return out


# ---------------------------------------------------------------------------
# Convolution

def _shift_spans(s: int, n: int) -> tuple[slice, slice]:
    """Output and input index ranges where out[i] reads in[i + s], 0 <= i+s < n."""
    return slice(max(0, -s), n - max(0, s)), slice(max(0, s), n + min(0, s))


def _conv_value(x: np.ndarray, k: np.ndarray, b, pad: int) -> np.ndarray:
    """Shape-preserving cross-correlation, x (B,C,H,W), k (Co,Ci,kh,kw).

    The strategy follows the shapes (see conv2d); no branch gathers an
    im2col through a transposing copy.
    """
    bsz, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    if kh == 1:
        y = np.matmul(k.reshape(cout, cin), x.reshape(bsz, cin, h * w))
    elif cout < cin:
        # one GEMM for all taps, then each tap plane is added shifted by its
        # offset; the zero padding is the part of a plane that falls outside
        kt = k.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
        z = np.matmul(kt, x.reshape(bsz, cin, h * w)).reshape(bsz, kh, kw, cout, h, w)
        y = np.zeros((bsz, cout, h, w), dtype=z.dtype)
        for dy in range(kh):
            oy, iy = _shift_spans(dy - pad, h)
            for dx in range(kw):
                ox, ix = _shift_spans(dx - pad, w)
                y[:, :, oy, ox] += z[:, dy, dx, :, iy, ix]
    else:
        # channels-last im2col: every copy moves contiguous runs of Ci values
        xp = np.zeros((bsz, h + 2 * pad, w + 2 * pad, cin), dtype=x.dtype)
        xp[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
        cols = np.empty((bsz, h, w, kh, kw, cin), dtype=x.dtype)
        for dy in range(kh):
            for dx in range(kw):
                cols[:, :, :, dy, dx] = xp[:, dy:dy + h, dx:dx + w]
        kt = k.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
        y = (cols.reshape(bsz * h * w, -1) @ kt).reshape(bsz, h, w, cout)
        y = np.ascontiguousarray(y.transpose(0, 3, 1, 2))
    y = y.reshape(bsz, cout, h, w)
    if b is not None:
        y += b.reshape(cout, 1, 1)
    return y


def _conv_kernel_grad(x: np.ndarray, g: np.ndarray, kh: int, pad: int) -> np.ndarray:
    """d/dk of sum(g * conv(x, k)): per tap, one batched GEMM of g against
    the flattened padded input shifted by that tap's flat offset."""
    bsz, cin, h, w = x.shape
    cout = g.shape[1]
    wp = w + 2 * pad
    n = h * wp - 2 * pad
    xp, gq = x, g
    if pad:
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        # g laid out on the padded row width; the pad columns stay zero
        gq = np.zeros((bsz, cout, h, wp), dtype=g.dtype)
        gq[..., :w] = g
    xp = xp.reshape(bsz, cin, -1)
    gq = gq.reshape(bsz, cout, -1)[..., :n]
    gk = np.empty((cout, cin, kh, kh), dtype=np.result_type(x, g))
    for dy in range(kh):
        for dx in range(kh):
            off = dy * wp + dx
            gk[:, :, dy, dx] = np.matmul(gq, xp[..., off:off + n].transpose(0, 2, 1)).sum(axis=0)
    return gk


def conv2d(x, kernel, bias) -> Var:
    """2D convolution over (B, C, H, W) or (C, H, W), stride 1, same padding.

    Kernel dims (Cout, Cin, kh, kw) with kh == kw in {1, 3}; padding is
    (kh-1)//2 so spatial dims are preserved.

    The strategy is chosen from the shapes.  Beside input and output, each
    branch's intermediates are, in elements, with P = (H+2)(W+2):
      - 1x1: one batched (Cout,Cin) @ (Cin,H*W) GEMM; none.
      - 3x3, Cout < Cin: one GEMM of all 9 taps against the input, whose
        tap planes are then summed, each shifted by its tap offset;
        B*9*Cout*H*W tap planes.
      - 3x3, Cout >= Cin: a channels-last im2col times the kernel; B*Cin*P
        padded input, B*H*W*9*Cin columns, B*H*W*Cout channels-last output
        before the copy back to (B,Cout,H,W).
    The kernel gradient is one batched GEMM per tap against the shifted
    padded input (B*Cin*P, plus B*Cout*H*(W+2) for the gradient on the
    padded row width); the input gradient is the flipped-kernel
    convolution, which picks its own branch.

    The vjp works on the live images only, those whose output gradient has
    a nonzero entry (a NaN or inf in g counts as one): their input gradient
    is scattered into zeros and the kernel gradient sums over them alone;
    the bias gradient sums the full g.  A skipped image gets +0 where the
    dense path could give -0, or NaN when the forward held inf or NaN there
    (0 * NaN is NaN).  Every parent still gets a full-shape gradient.
    """
    x, kernel, bias = as_var(x), as_var(kernel), as_var(bias)
    squeeze = x.value.ndim == 3
    xv = x.value[None] if squeeze else x.value
    if xv.ndim != 4:
        raise ValueError(f"conv2d: input needs (B,C,H,W) or (C,H,W), got ndim {x.value.ndim}")
    cout, cin, kh, kw = kernel.value.shape
    if kh != kw or kh not in (1, 3):
        raise ValueError(f"conv2d: kernel must be square 1x1 or 3x3, got {kh}x{kw}")
    if xv.shape[1] != cin:
        raise ValueError(f"conv2d: input channels {xv.shape[1]} != kernel Cin {cin}")
    if bias.value.shape != (cout,):
        raise ValueError(f"conv2d: bias dims {bias.value.shape} != ({cout},)")
    pad = (kh - 1) // 2
    t = _tape_of(x, kernel, bias)
    y = _conv_value(xv, kernel.value, bias.value, pad)
    out = Var(y[0] if squeeze else y, t)
    if t is not None:
        kv = kernel.value

        def vjp(g):
            gv = g[None] if squeeze else g
            gb = gv.sum(axis=(0, 2, 3))
            live = _live(gv)
            xs, gs = (xv, gv) if live is None else (xv[live], gv[live])
            if len(gs):
                gk = _conv_kernel_grad(xs, gs, kh, pad)
                # input grad = correlation with the spatially flipped, channel-swapped kernel
                kt = kv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                gx = _scatter(_conv_value(gs, kt, None, pad), live, len(gv))
            else:
                gk = np.zeros(kv.shape, np.result_type(xv, gv))
                gx = np.zeros(xv.shape, np.result_type(gv, kv))
            return (gx[0] if squeeze else gx, gk, gb)

        t.record(out, (x, kernel, bias), vjp)
    return out


# ---------------------------------------------------------------------------
# Attention pieces

def softmax(x, axis: int = -1) -> Var:
    """Numerically stable softmax along one axis (max-subtracted)."""
    x = as_var(x)
    t = _tape_of(x)
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Var(y, t)
    if t is not None:
        t.record(
            out,
            (x,),
            lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),),
        )
    return out


# Score bytes one attention block holds: half of a 4 MiB per-core L2, so a
# block stays in cache from q kT to P v in the forward and from P to dS in
# the vjp.
_ATTENTION_BLOCK_BYTES = 1 << 20


def _score_blocks(n: int, tq: int, tk: int, itemsize: int):
    """Tile the (n, Tq, Tk) scores into blocks of at most _ATTENTION_BLOCK_BYTES.

    Returns the (instances, rows) slice pairs in order, plus the dims of the
    largest block.  Whole instances go together when one instance's scores
    fit in a block; otherwise each block is a row slice of one instance (at
    least one row).
    """
    row_bytes = max(1, tk * itemsize)
    rows = max(1, min(tq, _ATTENTION_BLOCK_BYTES // row_bytes))
    per = max(1, _ATTENTION_BLOCK_BYTES // (rows * row_bytes))
    blocks = [(slice(i, min(i + per, n)), slice(r, min(r + rows, tq))) for i in range(0, n, per) for r in range(0, tq, rows)]
    return blocks, (min(per, n), rows, tk)


def _scores(buf: np.ndarray, a: np.ndarray, bt: np.ndarray, b: slice, r: slice) -> np.ndarray:
    """a[b, r] @ bt[b] into the leading part of a block-sized buffer: a
    block's scores q kT, or its g vT in the vjp."""
    return np.matmul(a[b, r], bt[b], out=buf[: b.stop - b.start, : r.stop - r.start])


def attention(q, k, v) -> Var:
    """Scaled dot-product attention softmax(q kT / sqrt(D)) v, one tape record.

    q: (..., Tq, D), k: (..., Tk, D), v: (..., Tk, Dv); the leading axes
    must be equal and flatten to n instances.  q is scaled by 1/sqrt(D) once.
    The (n, Tq, Tk) scores are walked in blocks of at most
    _ATTENTION_BLOCK_BYTES (1 MiB), see _score_blocks.  Each block is
    max-subtracted, exponentiated, normalized and multiplied by v while it
    is still in cache, and each row's log-sum-exp (lse) is stored.

    No call, taped or not, holds a full score array: the forward reuses one
    block-sized buffer.  The vjp keeps the scaled q, k, v, the output and
    the lse, O(n*T*D) state, and walks the same blocks: P = exp(q kT - lse)
    is recomputed into one block buffer and dS = P * (g vT - rowsum(g * out))
    lives in another; dq is written per block, and an instance's first block
    writes its dk and dv, later row blocks add to them.

    The vjp walks the live instances only, those whose output gradient has
    a nonzero entry (a NaN or inf in g counts as one), gathered and tiled
    afresh; the others get zero dq, dk and dv.  A skipped instance gets +0
    where the dense path could give -0, or NaN when the forward held inf or
    NaN there (0 * NaN is NaN).  Every parent still gets a full-shape
    gradient.
    """
    q, k, v = as_var(q), as_var(k), as_var(v)
    qv, kv, vv = q.value, k.value, v.value
    if qv.shape[-1] != kv.shape[-1]:
        raise ValueError(f"attention: q dim {qv.shape[-1]} != k dim {kv.shape[-1]}")
    if kv.shape[-2] != vv.shape[-2]:
        raise ValueError(f"attention: k rows {kv.shape[-2]} != v rows {vv.shape[-2]}")
    batch = qv.shape[:-2]
    if kv.shape[:-2] != batch or vv.shape[:-2] != batch:
        raise ValueError(f"attention: q, k, v leading axes {batch}, {kv.shape[:-2]}, {vv.shape[:-2]} differ")
    n, tq, tk = math.prod(batch), qv.shape[-2], kv.shape[-2]
    c = 1.0 / math.sqrt(qv.shape[-1])
    q3 = qv.reshape((n,) + qv.shape[-2:]) * c
    k3, v3 = kv.reshape((n,) + kv.shape[-2:]), vv.reshape((n,) + vv.shape[-2:])
    sdt = np.result_type(q3, k3)
    blocks, block_dims = _score_blocks(n, tq, tk, sdt.itemsize)
    o3 = np.empty((n, tq, v3.shape[-1]), np.result_type(sdt, v3))
    lse = np.empty((n, tq, 1), sdt)
    buf = np.empty(block_dims, sdt)
    kt3 = np.swapaxes(k3, -1, -2)
    for b, r in blocks:
        s = _scores(buf, q3, kt3, b, r)
        m = s.max(axis=-1, keepdims=True)
        s -= m
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        s /= total
        np.matmul(s, v3[b], out=o3[b, r])
        np.add(m, np.log(total), out=lse[b, r])
    t = _tape_of(q, k, v)
    out = Var(o3.reshape(batch + o3.shape[1:]), t)
    if t is not None:

        def vjp(g):
            g3 = g.reshape(o3.shape)
            gdt = np.result_type(g3, sdt, v3)
            live = _live(g3)
            qs, ks, vs, outs, lses, gs = q3, k3, v3, o3, lse, g3
            vblocks, vdims = blocks, block_dims
            if live is not None:
                qs, ks, vs, outs, lses, gs = (a[live] for a in (q3, k3, v3, o3, lse, g3))
                vblocks, vdims = _score_blocks(len(live), tq, tk, sdt.itemsize)
            gq, gk, gv = np.empty(qs.shape, gdt), np.empty(ks.shape, gdt), np.empty(vs.shape, gdt)
            p_buf, ds_buf = np.empty(vdims, sdt), np.empty(vdims, gdt)
            kts, vts = np.swapaxes(ks, -1, -2), np.swapaxes(vs, -1, -2)
            for b, r in vblocks:
                p = _scores(p_buf, qs, kts, b, r)
                p -= lses[b, r]
                np.exp(p, out=p)
                gb = gs[b, r]
                ds = _scores(ds_buf, gs, vts, b, r)
                ds -= (gb * outs[b, r]).sum(axis=-1, keepdims=True)
                ds *= p
                np.matmul(ds, ks[b], out=gq[b, r])
                pt, dst = np.swapaxes(p, -1, -2), np.swapaxes(ds, -1, -2)
                # an instance's first block writes its dk and dv; later row blocks add
                if r.start == 0:
                    np.matmul(pt, gb, out=gv[b])
                    np.matmul(dst, qs[b, r], out=gk[b])
                else:
                    gv[b] += pt @ gb
                    gk[b] += dst @ qs[b, r]
            gq *= c
            return tuple(_scatter(a, live, n).reshape(x.shape) for a, x in ((gq, qv), (gk, kv), (gv, vv)))

        t.record(out, (q, k, v), vjp)
    return out


def layer_norm(x, gain, offset, eps: float = 1e-5) -> Var:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, offset = as_var(x), as_var(gain), as_var(offset)
    d = x.value.shape[-1]
    if gain.value.shape != (d,) or offset.value.shape != (d,):
        raise ValueError(f"layer_norm: gain/offset must have dims ({d},)")
    t = _tape_of(x, gain, offset)
    mean = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Var(xhat * gain.value + offset.value, t)
    if t is not None:
        gv = gain.value

        def vjp(g):
            dxhat = g * gv
            dg = (g * xhat).reshape(-1, d).sum(axis=0)
            db = g.reshape(-1, d).sum(axis=0)
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dx = inv * (dxhat - m1 - xhat * m2)
            return (dx, dg, db)

        t.record(out, (x, gain, offset), vjp)
    return out


# ---------------------------------------------------------------------------
# Activations

def leaky_relu(x, slope: float = 0.1) -> Var:
    x = as_var(x)
    t = _tape_of(x)
    mask = np.where(x.value > 0, 1.0, slope).astype(x.value.dtype)
    out = Var(x.value * mask, t)
    if t is not None:
        t.record(out, (x,), lambda g: (g * mask,))
    return out


# Python floats, not NumPy scalars: under NEP 50 promotion a float64 scalar
# would run every float32 gelu in float64.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x) -> Var:
    """Exact Gaussian-error-linear unit 0.5*x*(1 + erf(x/sqrt(2)))."""
    x = as_var(x)
    t = _tape_of(x)
    cdf = 0.5 * (1.0 + erf(x.value * _INV_SQRT2))
    out = Var(x.value * cdf, t)
    if t is not None:
        xv = x.value
        t.record(out, (x,), lambda g: (g * (cdf + xv * _INV_SQRT2PI * np.exp(-0.5 * xv * xv)),))
    return out


# ---------------------------------------------------------------------------
# Upsampling

def pixel_shuffle(x, r: int) -> Var:
    """(..., r*r*C, H, W) -> (..., C, r*H, r*W); channel (c*r + dy)*r + dx
    moves to spatial offset (dy, dx).  Built from reshape/transpose, so the
    gradient is the inverse rearrangement automatically.
    """
    x = as_var(x)
    squeeze = x.value.ndim == 3
    if squeeze:
        x = reshape(x, (1,) + x.value.shape)
    b, c2, h, w = x.value.shape
    c, rem = divmod(c2, r * r)
    if rem != 0:
        raise ValueError(f"pixel_shuffle: channels {c2} not divisible by r*r={r * r}")
    y = reshape(x, (b, c, r, r, h, w))
    y = transpose(y, (0, 1, 4, 2, 5, 3))  # (B, C, H, ry, W, rx)
    y = reshape(y, (b, c, h * r, w * r))
    if squeeze:
        y = reshape(y, y.value.shape[1:])
    return y


def _keys_kernel(t: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Keys cubic interpolation kernel (a = -0.5)."""
    t = np.abs(t)
    t2, t3 = t * t, t * t * t
    w = np.where(
        t <= 1.0,
        (a + 2.0) * t3 - (a + 3.0) * t2 + 1.0,
        a * t3 - 5.0 * a * t2 + 8.0 * a * t - 4.0 * a,
    )
    return np.where(t < 2.0, w, 0.0)


_TAP_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _tap_tables(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-sample tap indices (n_out, 4) and weights (n_out, 4).

    Center-aligned source mapping src = (i + 0.5) * n_in/n_out - 0.5 with the
    4-tap Keys kernel; out-of-range taps clamp to the edge sample (replicate
    padding).  The second half of the table is the mirrored first half, so
    the map is mirror-symmetric bit-for-bit.
    """
    key = (n_in, n_out)
    cached = _TAP_CACHE.get(key)
    if cached is not None:
        return cached
    idx = np.zeros((n_out, 4), dtype=np.intp)
    wts = np.zeros((n_out, 4), dtype=np.float64)
    ratio = n_in / n_out
    for i in range((n_out + 1) // 2):
        src = (i + 0.5) * ratio - 0.5
        base = int(np.floor(src))
        frac = src - base
        for tap in range(-1, 3):
            idx[i, tap + 1] = min(max(base + tap, 0), n_in - 1)
            wts[i, tap + 1] = float(_keys_kernel(np.float64(frac - tap)))
        idx[n_out - 1 - i] = (n_in - 1) - idx[i, ::-1]
        wts[n_out - 1 - i] = wts[i, ::-1]
    idx.flags.writeable = False
    wts.flags.writeable = False
    _TAP_CACHE[key] = (idx, wts)
    return idx, wts


def resample_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Dense (n_out, n_in) bicubic resampling matrix, float64.

    Rows sum to 1 (constants are preserved) and the matrix equals its own
    180-degree rotation.  resize_bicubic applies the same weights via a tap
    gather; edge samples there keep clamped taps as separate addends, so the
    two agree to rounding, not bit-for-bit.
    """
    if n_in < 1 or n_out < 1:
        raise ValueError("resample_matrix: dims must be >= 1")
    idx, wts = _tap_tables(n_in, n_out)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    for i in range(n_out):
        for t in range(4):
            m[i, idx[i, t]] += wts[i, t]
    return m


def _resize_value(x: np.ndarray, hout: int, wout: int) -> np.ndarray:
    """Fused 16-tap bicubic evaluation of the trailing (H, W) axes.

    The 4x4 tap products are summed along a tree whose terms map onto each
    other under flips and transpose with operand swaps only; since a+b and
    a*b are bitwise commutative, the resample commutes with all eight
    dihedral symmetries exactly.
    """
    ih, wh = _tap_tables(x.shape[-2], hout)
    iw, ww = _tap_tables(x.shape[-1], wout)
    wh = wh.astype(x.dtype)
    ww = ww.astype(x.dtype)

    def term(t, s):
        g = x[..., ih[:, t][:, None], iw[None, :, s]]
        return g * (wh[:, t][:, None] * ww[None, :, s])

    s1 = (term(0, 0) + term(3, 3)) + (term(0, 3) + term(3, 0))
    s2 = (term(1, 1) + term(2, 2)) + (term(1, 2) + term(2, 1))
    e = term(0, 1) + term(3, 2)
    f = term(1, 0) + term(2, 3)
    g_ = term(0, 2) + term(3, 1)
    h_ = term(2, 0) + term(1, 3)
    return (s1 + s2) + ((e + f) + (g_ + h_))


def resize_bicubic(x, scale: float) -> Var:
    """Bicubic resample of the trailing (H, W) axes by `scale` (no antialias).

    Output dims round(scale*H) x round(scale*W).  The op is exactly linear
    in x, so the vjp is the transpose resample (via the dense matrices).
    """
    x = as_var(x)
    if x.value.ndim < 2:
        raise ValueError("resize_bicubic: input needs at least (H, W)")
    h, w = x.value.shape[-2:]
    hout, wout = int(round(scale * h)), int(round(scale * w))
    if hout < 1 or wout < 1:
        raise ValueError(f"resize_bicubic: scale {scale} collapses {h}x{w} to zero dims")
    val = _resize_value(x.value, hout, wout)
    t = _tape_of(x)
    out = Var(val, t)
    if t is not None:
        dt = x.value.dtype
        mh = resample_matrix(h, hout).astype(dt)
        mw = resample_matrix(w, wout).astype(dt)
        t.record(out, (x,), lambda g: (mh.T @ g @ mw,))
    return out
