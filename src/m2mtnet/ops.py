"""Differentiable numpy kernels recorded on the autodiff tape.

Every op takes Vars (or raw arrays, lifted to constant Vars), computes its
value eagerly, defines its vjp and returns _op(value, parents, vjp).  _op is
the one place an op joins the tape: the output lives on the parents' tape,
or is a constant when no parent has one, and the vjp is recorded only in
the first case.  A vjp maps the output gradient to one gradient per parent,
in the order of `parents`; it may read the parents' values, which the
record keeps alive anyway.  A constant parent (no tape) gets None, and the
vjp skips the work only that gradient needs, such as a conv's kernel GEMMs
or a linear's dW.  Ops never mutate input arrays.  Dtype follows the
inputs: float32 stays float32, float64 stays float64.
"""
from __future__ import annotations

import math
from typing import Callable

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
    "concat",
    "linear",
    "conv2d",
    "batch_slices",
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


def _op(value, parents: tuple[Var, ...], vjp: Callable) -> Var:
    """An op's output Var; records (out, parents, vjp) when a parent is taped."""
    tape = None
    for p in parents:
        if p.tape is None or p.tape is tape:
            continue
        if tape is not None:
            raise ValueError("op mixes Vars from two different tapes")
        tape = p.tape
    out = Var(value, tape)
    if tape is not None:
        tape.record(out, parents, vjp)
    return out


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
    return _op(
        a.value + b.value,
        (a, b),
        lambda g: (
            None if a.tape is None else _unbroadcast(g, a.shape),
            None if b.tape is None else _unbroadcast(g, b.shape),
        ),
    )


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return _op(
        a.value - b.value,
        (a, b),
        lambda g: (
            None if a.tape is None else _unbroadcast(g, a.shape),
            None if b.tape is None else -_unbroadcast(g, b.shape),
        ),
    )


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return _op(
        a.value * b.value,
        (a, b),
        lambda g: (
            None if a.tape is None else _unbroadcast(g * b.value, a.shape),
            None if b.tape is None else _unbroadcast(g * a.value, b.shape),
        ),
    )


def neg(a) -> Var:
    a = as_var(a)
    return _op(-a.value, (a,), lambda g: (-g,))


def scale(a, c: float) -> Var:
    """Multiply by a python scalar (not differentiated w.r.t. c)."""
    a = as_var(a)
    return _op(a.value * c, (a,), lambda g: (g * c,))


def vabs(a) -> Var:
    a = as_var(a)
    return _op(np.abs(a.value), (a,), lambda g: (g * np.sign(a.value),))


def square(a) -> Var:
    a = as_var(a)
    return _op(a.value * a.value, (a,), lambda g: (g * (2.0 * a.value),))


def vsum(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)

    def vjp(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, tuple(ax % len(a.shape) for ax in axes))
        return (np.ascontiguousarray(np.broadcast_to(g, a.shape)),)

    return _op(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


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
    return _op(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Var:
    a = as_var(a)
    return _op(
        np.ascontiguousarray(np.transpose(a.value, axes)),
        (a,),
        lambda g: (np.ascontiguousarray(np.transpose(g, np.argsort(axes))),),
    )


def getitem(a, idx) -> Var:
    """Basic slicing; gradient scatters back into the sliced region."""
    a = as_var(a)

    def vjp(g):
        gz = np.zeros(a.shape, dtype=g.dtype)
        gz[idx] = g
        return (gz,)

    return _op(np.ascontiguousarray(a.value[idx]), (a,), vjp)


def concat(xs, axis: int = 0) -> Var:
    """Join Vars along `axis`; every other dim and the dtype must agree.
    The gradient of each input is a view of its slice of g."""
    xs = [as_var(x) for x in xs]
    if not xs:
        raise ValueError("concat: needs at least one input")
    first = xs[0].value
    ax = axis % max(first.ndim, 1)
    off = lambda dims: dims[:ax] + dims[ax + 1:]
    for x in xs[1:]:
        if x.dtype != first.dtype:
            raise ValueError(f"concat: dtype {x.dtype} != {first.dtype} of the first input")
        if off(x.shape) != off(first.shape):
            raise ValueError(f"concat: input dims {x.shape} do not match {first.shape} off axis {ax}")
    ends = np.cumsum([x.shape[ax] for x in xs]).tolist()
    lead = (slice(None),) * ax

    def vjp(g):
        return tuple(
            None if x.tape is None else g[lead + (slice(e - x.shape[ax], e),)] for x, e in zip(xs, ends)
        )

    return _op(np.concatenate([x.value for x in xs], axis=ax), tuple(xs), vjp)


# ---------------------------------------------------------------------------
# Linear algebra

def matmul(a, b) -> Var:
    """Matrix product with numpy batch broadcasting on leading axes."""
    a, b = as_var(a), as_var(b)
    return _op(
        a.value @ b.value,
        (a, b),
        lambda g: (
            None if a.tape is None else _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.shape),
            None if b.tape is None else _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.shape),
        ),
    )


def linear(x, w, b) -> Var:
    """x @ w + b over the last axis: (..., Din) -> (..., Dout)."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    din, dout = w.value.shape
    if x.value.shape[-1] != din:
        raise ValueError(f"linear: input dim {x.value.shape[-1]} != weight Din {din}")
    if b.value.shape != (dout,):
        raise ValueError(f"linear: bias dims {b.value.shape} != ({dout},)")

    def vjp(g):
        g2 = g.reshape(-1, dout)
        return (
            None if x.tape is None else (g @ w.value.T).reshape(x.shape),
            None if w.tape is None else x.value.reshape(-1, din).T @ g2,
            None if b.tape is None else g2.sum(axis=0),
        )

    return _op(x.value @ w.value + b.value, (x, w, b), vjp)


# ---------------------------------------------------------------------------
# Convolution

# Bytes one chunk of a tiled loop may hold: the 2 MiB per-core L2 of the
# 2-core Xeon the benchmark runs on, so a chunk's im2col columns, a view
# group of the network's tail, or an attention block's two score buffers
# stay in cache while they are used.
_CHUNK_BYTES = 2 << 20


def batch_slices(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(n) of max(1, _CHUNK_BYTES // item_bytes)
    items each; [slice(0, n)] when all n fit, also for n == 0."""
    step = max(1, _CHUNK_BYTES // max(1, item_bytes))
    return [slice(s, min(s + step, n)) for s in range(0, max(n, 1), step)]


def _shift_spans(s: int, n: int) -> tuple[slice, slice]:
    """Output and input index ranges where out[i] reads in[i + s], 0 <= i+s < n."""
    return slice(max(0, -s), n - max(0, s)), slice(max(0, s), n + min(0, s))


def _im2col(x: np.ndarray, kh: int, pad: int) -> np.ndarray:
    """Channels-last windows (B,H,W,kh,kh,C) of the zero-padded x (B,C,H,W);
    every copy moves contiguous runs of C values."""
    bsz, cin, h, w = x.shape
    xp = np.zeros((bsz, h + 2 * pad, w + 2 * pad, cin), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    cols = np.empty((bsz, h, w, kh, kh, cin), dtype=x.dtype)
    for dy in range(kh):
        for dx in range(kh):
            cols[:, :, :, dy, dx] = xp[:, dy:dy + h, dx:dx + w]
    return cols


def _conv_value(x: np.ndarray, k: np.ndarray, b, pad: int) -> np.ndarray:
    """Shape-preserving cross-correlation, x (B,C,H,W) only, k (Co,Ci,kh,kw).

    The strategy follows the shapes (see conv2d); no branch gathers an
    im2col through a transposing copy.  The 3x3 Cout >= Cin branch
    multiplies _im2col's columns, the ones every kernel gradient uses, one
    chunk of images at a time (batch_slices) and writes each chunk's
    result into the preallocated (B,Cout,H,W) output.
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
        # a chunk's columns are bound to no name: a local would keep them
        # alive through the copy into y, beside the next chunk's
        km = k.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
        y = np.empty((bsz, cout, h, w), np.result_type(x, k))
        for s in batch_slices(bsz, h * w * kh * kw * cin * x.itemsize):
            n = s.stop - s.start
            y[s] = (_im2col(x[s], kh, pad).reshape(n * h * w, kh * kw * cin) @ km).reshape(n, h, w, cout).transpose(0, 3, 1, 2)
    y = y.reshape(bsz, cout, h, w)
    if b is not None:
        y += b.reshape(cout, 1, 1)
    return y


def _conv_kernel_grad(x: np.ndarray, g: np.ndarray, kh: int, pad: int) -> np.ndarray:
    """d/dk of sum(g * conv(x, k)): per chunk of images (batch_slices), one
    GEMM of g against x's im2col columns; the chunks' results are summed.
    An empty batch is one empty chunk and gives +0."""
    bsz, cin, h, w = x.shape
    # a generator, so one chunk's columns exist at a time
    parts = (
        np.tensordot(g[s], _im2col(x[s], kh, pad), axes=((0, 2, 3), (0, 1, 2)))
        for s in batch_slices(bsz, h * w * kh * kh * cin * x.itemsize)
    )
    gk = next(parts)
    for part in parts:
        gk += part
    return gk.transpose(0, 3, 1, 2)


def conv2d(x, kernel, bias) -> Var:
    """2D convolution over (B, C, H, W), stride 1, same padding.

    Kernel dims (Cout, Cin, kh, kw) with kh == kw in {1, 3}; padding is
    (kh-1)//2 so spatial dims are preserved.

    The strategy is chosen from the shapes.  Beside input and output, each
    branch's intermediates are, in elements, with P = (H+2)(W+2):
      - 1x1: one batched (Cout,Cin) @ (Cin,H*W) GEMM; none.
      - 3x3, Cout < Cin: one GEMM of all 9 taps against the input, whose
        tap planes are then summed, each shifted by its tap offset;
        B*9*Cout*H*W tap planes.
      - 3x3, Cout >= Cin: a channels-last im2col (_im2col) times the
        kernel, for one chunk of n images at a time; n*Cin*P padded input,
        n*H*W*9*Cin columns, n*H*W*Cout channels-last output before the
        copy into (B,Cout,H,W).
    The kernel gradient, 1x1 or 3x3, is one GEMM of g against the same
    im2col columns per chunk (n*H*W*9*Cin, n*H*W*Cin for 1x1), summed over
    the chunks; the input gradient is the flipped-kernel convolution, which
    picks its own branch.  A chunk holds as many images as keep its columns
    within _CHUNK_BYTES (2 MiB), at least one (batch_slices); when all B
    images fit, the one chunk is the whole batch.  Each chunk is its own
    GEMM: at the network's shapes the forward and the input gradient are
    bit-identical to a one-chunk run, while the kernel gradient adds the
    chunks' sums in another order and agrees with it to rounding.

    The vjp works on the live images only, those whose output gradient has
    a nonzero entry (a NaN or inf in g counts as one): their input gradient
    is scattered into zeros and the kernel gradient sums over them alone;
    the bias gradient sums the full g.  With no live image both run on an
    empty batch and give +0.  A skipped image gets +0 where the dense path
    could give -0, or NaN when the forward held inf or NaN there
    (0 * NaN is NaN).  Every taped parent gets a full-shape gradient; a
    constant one gets None, so a constant kernel costs no kernel GEMM.
    """
    x, kernel, bias = as_var(x), as_var(kernel), as_var(bias)
    xv = x.value
    if xv.ndim != 4:
        raise ValueError(f"conv2d: input needs (B,C,H,W), got ndim {xv.ndim}")
    cout, cin, kh, kw = kernel.value.shape
    if kh != kw or kh not in (1, 3):
        raise ValueError(f"conv2d: kernel must be square 1x1 or 3x3, got {kh}x{kw}")
    if xv.shape[1] != cin:
        raise ValueError(f"conv2d: input channels {xv.shape[1]} != kernel Cin {cin}")
    if bias.value.shape != (cout,):
        raise ValueError(f"conv2d: bias dims {bias.value.shape} != ({cout},)")
    pad = (kh - 1) // 2

    def vjp(g):
        live = _live(g)
        gs = g if live is None else g[live]
        gx = gk = gb = None
        if kernel.tape is not None:
            gk = _conv_kernel_grad(xv if live is None else xv[live], gs, kh, pad)
        if x.tape is not None:
            # input grad = correlation with the spatially flipped, channel-swapped kernel
            kt = kernel.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _scatter(_conv_value(gs, kt, None, pad), live, len(g))
        if bias.tape is not None:
            gb = g.sum(axis=(0, 2, 3))
        return (gx, gk, gb)

    return _op(_conv_value(xv, kernel.value, bias.value, pad), (x, kernel, bias), vjp)


# ---------------------------------------------------------------------------
# Attention pieces

def softmax(x, axis: int = -1) -> Var:
    """Numerically stable softmax along one axis (max-subtracted)."""
    x = as_var(x)
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _op(y, (x,), lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


def _score_blocks(n: int, tq: int, tk: int, itemsize: int):
    """Tile the (n, Tq, Tk) scores with batch_slices.

    Returns the (instances, rows) slice pairs in order, plus the dims of the
    largest block.  The vjp holds two block buffers, P and dS, so an
    instance counts 2*Tq*Tk*itemsize bytes and a row 2*Tk*itemsize: the two
    together stay within _CHUNK_BYTES, the L2 of the benchmark host, and in
    the forward one block stays in cache from q kT to P v.  Whole instances
    go together when one instance's scores fit; otherwise each block is a
    row slice of one instance (at least one row).  With n == 0 the blocks'
    instance slices are empty.
    """
    inst = batch_slices(n, 2 * tq * tk * itemsize)
    rows = batch_slices(tq, 2 * tk * itemsize)
    return [(b, r) for b in inst for r in rows], (inst[0].stop, rows[0].stop, tk)


def _scores(buf: np.ndarray, a: np.ndarray, bt: np.ndarray, b: slice, r: slice) -> np.ndarray:
    """a[b, r] @ bt[b] into the leading part of a block-sized buffer: a
    block's scores q kT, or its g vT in the vjp."""
    return np.matmul(a[b, r], bt[b], out=buf[: b.stop - b.start, : r.stop - r.start])


def _into(acc: np.ndarray | None, b: slice, r: slice, a: np.ndarray, c: np.ndarray) -> None:
    """acc[b] = a @ c for an instance's first row block, acc[b] += a @ c for
    a later one; nothing when acc is None (a constant's dk or dv)."""
    if acc is None:
        return
    if r.start == 0:
        np.matmul(a, c, out=acc[b])
    else:
        acc[b] += a @ c


def attention(q, k, v) -> Var:
    """Scaled dot-product attention softmax(q kT / sqrt(D)) v, one tape record.

    q: (..., Tq, D), k: (..., Tk, D), v: (..., Tk, Dv); the leading axes
    must be equal and flatten to n instances.  q is scaled by 1/sqrt(D) once.
    The (n, Tq, Tk) scores are walked in blocks of at most half the
    _CHUNK_BYTES budget (1 MiB), see _score_blocks.  Each block is
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
    NaN there (0 * NaN is NaN).  Every taped parent gets a full-shape
    gradient; a constant one gets None and its GEMMs are skipped (dS too,
    when q and k are both constants).
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

    def vjp(g):
        g3 = g.reshape(o3.shape)
        gdt = np.result_type(g3, sdt, v3)
        live = _live(g3)
        qs, ks, vs, outs, lses, gs = q3, k3, v3, o3, lse, g3
        vblocks, vdims = blocks, block_dims
        if live is not None:
            qs, ks, vs, outs, lses, gs = (a[live] for a in (q3, k3, v3, o3, lse, g3))
            vblocks, vdims = _score_blocks(len(live), tq, tk, sdt.itemsize)
        gq, gk, gv = (None if x.tape is None else np.empty(a.shape, gdt) for x, a in ((q, qs), (k, ks), (v, vs)))
        p_buf, ds_buf = np.empty(vdims, sdt), np.empty(vdims, gdt)
        kts, vts = np.swapaxes(ks, -1, -2), np.swapaxes(vs, -1, -2)
        for b, r in vblocks:
            p = _scores(p_buf, qs, kts, b, r)
            p -= lses[b, r]
            np.exp(p, out=p)
            gb = gs[b, r]
            _into(gv, b, r, np.swapaxes(p, -1, -2), gb)
            if gq is None and gk is None:
                continue
            ds = _scores(ds_buf, gs, vts, b, r)
            ds -= (gb * outs[b, r]).sum(axis=-1, keepdims=True)
            ds *= p
            if gq is not None:
                np.matmul(ds, ks[b], out=gq[b, r])
            _into(gk, b, r, np.swapaxes(ds, -1, -2), qs[b, r])
        if gq is not None:
            gq *= c
        return tuple(
            None if a is None else _scatter(a, live, n).reshape(x.shape) for a, x in ((gq, q), (gk, k), (gv, v))
        )

    return _op(o3.reshape(batch + o3.shape[1:]), (q, k, v), vjp)


def layer_norm(x, gain, offset, eps: float = 1e-5) -> Var:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, offset = as_var(x), as_var(gain), as_var(offset)
    d = x.value.shape[-1]
    if gain.value.shape != (d,) or offset.value.shape != (d,):
        raise ValueError(f"layer_norm: gain/offset must have dims ({d},)")
    mean = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def vjp(g):
        dx = dg = db = None
        if x.tape is not None:
            dxhat = g * gain.value
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dx = inv * (dxhat - m1 - xhat * m2)
        if gain.tape is not None:
            dg = (g * xhat).reshape(-1, d).sum(axis=0)
        if offset.tape is not None:
            db = g.reshape(-1, d).sum(axis=0)
        return (dx, dg, db)

    return _op(xhat * gain.value + offset.value, (x, gain, offset), vjp)


# ---------------------------------------------------------------------------
# Activations

def leaky_relu(x, slope: float = 0.1) -> Var:
    x = as_var(x)
    mask = np.where(x.value > 0, 1.0, slope).astype(x.value.dtype)
    return _op(x.value * mask, (x,), lambda g: (g * mask,))


# Python floats, not NumPy scalars: under NEP 50 promotion a float64 scalar
# would run every float32 gelu in float64.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x) -> Var:
    """Exact Gaussian-error-linear unit 0.5*x*(1 + erf(x/sqrt(2)))."""
    x = as_var(x)
    xv = x.value
    cdf = 0.5 * (1.0 + erf(xv * _INV_SQRT2))
    return _op(xv * cdf, (x,), lambda g: (g * (cdf + xv * _INV_SQRT2PI * np.exp(-0.5 * xv * xv)),))


# ---------------------------------------------------------------------------
# Upsampling

def pixel_shuffle(x, r: int) -> Var:
    """(..., r*r*C, H, W) -> (..., C, r*H, r*W); channel (c*r + dy)*r + dx
    moves to spatial offset (dy, dx).  Built from reshape/transpose, so the
    gradient is the inverse rearrangement automatically.
    """
    x = as_var(x)
    if x.value.ndim < 3:
        raise ValueError(f"pixel_shuffle: needs (..., r*r*C, H, W), got dims {x.value.shape}")
    *lead, c2, h, w = x.value.shape
    c, rem = divmod(c2, r * r)
    if rem != 0:
        raise ValueError(f"pixel_shuffle: channels {c2} not divisible by r*r={r * r}")
    n = len(lead)
    y = reshape(x, (*lead, c, r, r, h, w))
    y = transpose(y, (*range(n), n, n + 3, n + 1, n + 4, n + 2))  # (..., C, H, ry, W, rx)
    return reshape(y, (*lead, c, h * r, w * r))


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


def _tap_tables(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-sample tap indices (n_out, 4) and weights (n_out, 4).

    Center-aligned source mapping src = (i + 0.5) * n_in/n_out - 0.5 with the
    4-tap Keys kernel; out-of-range taps clamp to the edge sample (replicate
    padding).  The second half of the table is the mirrored first half, so
    the map is mirror-symmetric bit-for-bit.
    """
    src = (np.arange((n_out + 1) // 2) + 0.5) * (n_in / n_out) - 0.5
    base = np.floor(src)
    taps = np.arange(-1, 3)
    idx = np.clip(base.astype(np.intp)[:, None] + taps, 0, n_in - 1)
    wts = _keys_kernel((src - base)[:, None] - taps)
    # rows from n_out // 2 on (the middle one too) mirror the first half
    half = n_out // 2
    return (
        np.concatenate([idx[:half], (n_in - 1) - idx[::-1, ::-1]]),
        np.concatenate([wts[:half], wts[::-1, ::-1]]),
    )


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
    np.add.at(m, (np.arange(n_out)[:, None], idx), wts)
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

    def vjp(g):
        mh = resample_matrix(h, hout).astype(x.dtype)
        mw = resample_matrix(w, wout).astype(x.dtype)
        return (mh.T @ g @ mw,)

    return _op(_resize_value(x.value, hout, wout), (x,), vjp)
