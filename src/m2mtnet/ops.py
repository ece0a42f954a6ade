"""Differentiable numpy kernels recorded on the autodiff tape.

Every op takes Vars (or raw arrays, lifted to constant Vars), computes its
value eagerly, defines its vjp and returns _op(value, parents, vjp).  _op is
the one place an op joins the tape: the output lives on the parents' tape,
or is a constant when no parent has one, and the vjp is recorded only in
the first case.  A vjp maps the output gradient to one gradient per parent,
in the order of `parents`.  The tape's record keeps no value alive, so a
vjp captures no Var: it keeps the dims of its taped parents (_dims) and
the arrays its math reads, and no more.  A conv2d keeps its input only
when its kernel is taped; an add or a reshape keeps no array.  A getitem's
vjp returns its g as a region of the parent (autodiff._Region), which the
parent's gradient slot adds into one buffer of its own, so a Var sliced G
times costs one parent-sized gradient, not G.  Attention allocates, beside
its output and row statistics, only buffers of one score block: it scales q
a block at a time.  A constant parent (no tape) gets None, and the vjp
skips the work only that gradient needs, such as a conv's kernel GEMMs or a
linear's dW.  The input gradients of conv2d, attention, linear and
layer_norm run on the live part of g only, the images, instances or rows
holding a nonzero value (_live); when every part is live, nothing is
gathered.  Ops never mutate input arrays, and an op's output, which may be
a view of or share memory with its input, must never be written in place.
Dtype follows the inputs, float32 or float64.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .autodiff import Var, _Region

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
    "erf",
    "gelu",
    "pixel_shuffle",
    "resample_matrix",
    "resize_bicubic",
]


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x))


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


def _dims(v: Var) -> tuple[int, ...] | None:
    """v's dims if v is taped, None for a constant: what a vjp keeps of a
    parent to give it a gradient, or not."""
    return None if v.tape is None else v.shape


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...] | None) -> np.ndarray | None:
    """Sum g down to `shape`, undoing numpy broadcasting; None when shape is
    None, a constant parent's."""
    if shape is None:
        return None
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _live(g: np.ndarray, lead: int = 1) -> tuple[np.ndarray, ...] | None:
    """The live entries of g over its first `lead` axes, those holding a
    nonzero value (NaN and inf count), as the index np.nonzero gives:
    g[live] stacks them on one axis.  None when every entry is live; with
    lead 0, g is one entry.

    With lead > 1 the entries are looked for within the live entries of
    axis 0 only: NumPy checks a few long runs of g far faster than many
    short rows.
    """
    if lead == 0:
        return None
    first = g.any(axis=tuple(range(1, g.ndim)))
    if lead == 1:
        return None if first.all() else np.nonzero(first)
    outer = np.flatnonzero(first)
    whole = len(outer) == len(g)
    mask = (g if whole else g[outer]).any(axis=tuple(range(lead, g.ndim)))
    if whole and mask.all():
        return None
    live = np.nonzero(mask)
    return (live[0] if whole else outer[live[0]],) + live[1:]


def _none_live(live) -> bool:
    return live is not None and not live[0].size


def _scatter(part: np.ndarray, live: tuple[np.ndarray, ...] | None, shape: tuple[int, ...]) -> np.ndarray:
    """part's entries placed at `live` in zeros of `shape`; part itself when
    live is None."""
    if live is None:
        return part
    full = np.zeros(shape, part.dtype)
    full[live] = part
    return full


# ---------------------------------------------------------------------------
# Elementwise and reduction ops

def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    da, db = _dims(a), _dims(b)
    return _op(a.value + b.value, (a, b), lambda g: (_unbroadcast(g, da), _unbroadcast(g, db)))


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    da, db = _dims(a), _dims(b)
    return _op(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, da), None if db is None else -_unbroadcast(g, db)),
    )


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    da, db, av, bv = _dims(a), _dims(b), a.value, b.value
    return _op(
        av * bv,
        (a, b),
        lambda g: (
            None if da is None else _unbroadcast(g * bv, da),
            None if db is None else _unbroadcast(g * av, db),
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
    av = a.value
    return _op(np.abs(av), (a,), lambda g: (g * np.sign(av),))


def square(a) -> Var:
    a = as_var(a)
    av = a.value
    return _op(av * av, (a,), lambda g: (g * (2.0 * av),))


def vsum(a) -> Var:
    a = as_var(a)
    dims = a.shape
    return _op(a.value.sum(), (a,), lambda g: (np.full(dims, g, dtype=g.dtype),))


def vmean(a) -> Var:
    a = as_var(a)
    return scale(vsum(a), 1 / a.value.size)


# ---------------------------------------------------------------------------
# Shape ops

def reshape(a, shape) -> Var:
    a = as_var(a)
    dims = a.shape
    return _op(a.value.reshape(shape), (a,), lambda g: (g.reshape(dims),))


def transpose(a, axes) -> Var:
    a = as_var(a)
    return _op(np.transpose(a.value, axes), (a,), lambda g: (np.transpose(g, np.argsort(axes)),))


def getitem(a, idx) -> Var:
    """Basic slicing.  The gradient is g as a region of the parent
    (autodiff._Region): the parent's gradient slot adds it into its own
    full-dims buffer, so G slices of one Var cost one such buffer."""
    a = as_var(a)
    return _op(a.value[idx], (a,), lambda g: (_Region(idx, g),))


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
    # each taped input's index into g; None for a constant
    parts = [None if x.tape is None else (slice(None),) * ax + (slice(e - x.shape[ax], e),) for x, e in zip(xs, ends)]
    return _op(
        np.concatenate([x.value for x in xs], axis=ax),
        tuple(xs),
        lambda g: tuple(None if p is None else g[p] for p in parts),
    )


# ---------------------------------------------------------------------------
# Linear algebra

def matmul(a, b) -> Var:
    """Matrix product with numpy batch broadcasting on leading axes."""
    a, b = as_var(a), as_var(b)
    da, db, av, bv = _dims(a), _dims(b), a.value, b.value
    return _op(
        av @ bv,
        (a, b),
        lambda g: (
            None if da is None else _unbroadcast(g @ np.swapaxes(bv, -1, -2), da),
            None if db is None else _unbroadcast(np.swapaxes(av, -1, -2) @ g, db),
        ),
    )


def linear(x, w, b) -> Var:
    """x @ w + b over the last axis: (..., Din) -> (..., Dout).

    The input gradient is computed for the live rows of g only, gathered
    from g as it is, and scattered into zeros.  It is the dense one to
    rounding: bit for bit where the GEMM rounds a row alike at any row
    count, which OpenBLAS does not for some shapes (a 48 -> 24 gradient
    at 17 of 1024 rows).  dW and db use every row."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    din, dout = w.value.shape
    if x.value.shape[-1] != din:
        raise ValueError(f"linear: input dim {x.value.shape[-1]} != weight Din {din}")
    if b.value.shape != (dout,):
        raise ValueError(f"linear: bias dims {b.value.shape} != ({dout},)")
    dx, wv, b_taped = _dims(x), w.value, b.tape is not None
    # x is read by dW alone
    xw = None if w.tape is None else x.value

    def vjp(g):
        gx = gw = gb = None
        if dx is not None:
            # the live rows are gathered from g as it is, strided or not
            live = _live(g, g.ndim - 1)
            gx = g @ wv.T if live is None else _scatter(g[live] @ wv.T, live, dx)
        if xw is not None or b_taped:
            g2 = g.reshape(-1, dout)
            gw = None if xw is None else xw.reshape(-1, din).T @ g2
            gb = g2.sum(axis=0) if b_taped else None
        return (gx, gw, gb)

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


def _im2col(x: np.ndarray, kh: int, pad: int, g: int = 1) -> np.ndarray:
    """Channels-last windows (B,H,W/g,kh,kh-1+g,C) of the zero-padded x
    (B,C,H,W), W a multiple of g: the window of g horizontally adjacent
    output pixels, kh rows by kh-1+g columns, at stride g along W.  One
    copy of a strided window view of the channels-last padded input,
    moving contiguous runs of (kh-1+g)*C values.  The view is built by the
    ndarray constructor, which checks it lies within the padded buffer, as
    sliding_window_view's far costlier call would."""
    bsz, cin, h, w = x.shape
    xp = np.zeros((bsz, h + 2 * pad, w + 2 * pad, cin), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    sb, sh, sw, sc = xp.strides
    return np.ndarray((bsz, h, w // g, kh, kh - 1 + g, cin), xp.dtype, xp, 0, (sb, sh, g * sw, sh, sw, sc)).copy()


def _group_width(cin: int, cout: int, w: int) -> int:
    """Output pixels per GEMM row of the 3x3 Cout >= Cin conv: 2 for a
    narrow one at even W, else 1.  A narrow output leaves the GEMM's N at
    Cout, where OpenBLAS runs far below its roof; two pixels a row double N
    and raise K by a third.  From Cout 24 up the zeros in the grouped kernel
    cost what the wider N saves."""
    return 2 if w % 2 == 0 and (cout <= 16 or cin == 1) else 1


def _conv_value(x: np.ndarray, k: np.ndarray, b, pad: int) -> np.ndarray:
    """Shape-preserving cross-correlation, x (B,C,H,W) only, k (Co,Ci,kh,kw).

    The strategy follows the shapes (see conv2d); no branch gathers an
    im2col through a transposing copy.  The 3x3 Cout >= Cin branch
    multiplies _im2col's columns at group width g (_group_width) by the
    kernel laid out for g pixels a row, one chunk of images at a time
    (batch_slices).  Each chunk's GEMM writes its rows of a channels-last
    (B,H,W,Cout) buffer, of which (n*H*W/g, g*Cout) is a plain reshape; y
    is that buffer's view.
    """
    bsz, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    if kh == 1:
        y = np.matmul(k.reshape(cout, cin), x.reshape(bsz, cin, h * w)).reshape(bsz, cout, h, w)
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
        # a row holds g output pixels: pixel j of a group reads window
        # columns j..j+kw-1, and the kernel is zero at the others
        g = _group_width(cin, cout, w)
        cols = kh * (kw - 1 + g) * cin
        km = np.zeros((kh, kw - 1 + g, cin, g, cout), k.dtype)
        for j in range(g):
            km[:, j:j + kw, :, j] = k.transpose(2, 3, 1, 0)
        km = km.reshape(cols, g * cout)
        y = np.empty((bsz, h, w, cout), np.result_type(x, k))
        for s in batch_slices(bsz, h * w // g * cols * x.itemsize):
            rows = (s.stop - s.start) * h * w // g
            np.matmul(_im2col(x[s], kh, pad, g).reshape(rows, cols), km, out=y[s].reshape(rows, g * cout))
        y = y.transpose(0, 3, 1, 2)
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
        kernel, for one chunk of n images at a time.  A GEMM row holds the
        window of g horizontally adjacent output pixels, 3 rows by 2+g
        columns of Cin values; the kernel is zero-filled once into
        (3, 2+g, Cin, g, Cout), pixel j reading window columns j..j+2.
        g = 2 when W is even and Cout <= 16 or Cin == 1, else 1, the
        plain im2col (_group_width).  n*Cin*P padded input,
        n*H*W/g*3*(2+g)*Cin columns.  The GEMMs write the channels-last
        output, returned as its (B,Cout,H,W) view: there is no copy back
        out.  g = 2 gives the g = 1 bytes where BLAS rounds both GEMMs
        alike (the criterion-8 nets' shapes, every Cin = 1), and agrees to
        rounding elsewhere.
    The kernel gradient, 1x1 or 3x3, is one GEMM of the output gradient
    against the g = 1 im2col columns per chunk (n*H*W*9*Cin, n*H*W*Cin
    for 1x1), summed over the chunks; the input gradient is the
    flipped-kernel convolution, which picks its own branch and width.  A
    chunk holds as many images as keep its columns within _CHUNK_BYTES
    (2 MiB), at least one (batch_slices); when all B images fit, the one
    chunk is the whole batch.  Each chunk is its own GEMM: at the
    network's shapes the forward and the input gradient are bit-identical
    to a one-chunk run, while the kernel gradient adds the chunks' sums in
    another order and agrees with it to rounding.

    The vjp works on the live images only, those whose output gradient has
    a nonzero entry (a NaN or inf in g counts as one): their input gradient
    is scattered into zeros and the kernel gradient sums over them alone;
    the bias gradient sums the full g.  With no live image every parent
    gets None: its gradient is exactly zero, and the records before it
    need not run (see autodiff.Tape).  A skipped image gets +0 where the
    dense path could give -0, or NaN when the forward held inf or NaN there
    (0 * NaN is NaN).  Otherwise every taped parent gets a full-shape
    gradient; a constant one gets None, so a constant kernel costs no
    kernel GEMM.
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
    dx, kv, b_taped = _dims(x), kernel.value, bias.tape is not None
    # x is read by the kernel gradient alone
    xk = None if kernel.tape is None else xv

    def vjp(g):
        live = _live(g)
        if _none_live(live):
            return (None, None, None)
        gs = g if live is None else g[live]
        gx = gk = gb = None
        if xk is not None:
            gk = _conv_kernel_grad(xk if live is None else xk[live], gs, kh, pad)
        if dx is not None:
            # input grad = correlation with the spatially flipped, channel-swapped kernel
            kt = kv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _scatter(_conv_value(gs, kt, None, pad), live, dx)
        if b_taped:
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


def _scaled(qbuf: np.ndarray, q3: np.ndarray, c: float, b: slice, r: slice) -> np.ndarray:
    """A block's q rows times c, q3[b, r] * c, into the leading part of a
    block-sized q buffer."""
    return np.multiply(q3[b, r], c, out=qbuf[: b.stop - b.start, : r.stop - r.start])


def _scores(buf: np.ndarray, a: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """A block's rows a times bt into the leading part of a block-sized
    buffer: its scores q kT, or its g vT in the vjp."""
    return np.matmul(a, bt, out=buf[: a.shape[0], : a.shape[1]])


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
    must be equal and flatten to n instances.  The (n, Tq, Tk) scores are
    walked in blocks of at most half the _CHUNK_BYTES budget (1 MiB), see
    _score_blocks.  Each block's q rows are scaled by 1/sqrt(D) into a
    block-sized buffer; its scores are max-subtracted, exponentiated,
    normalized and multiplied by v while they are still in cache, and each
    row's log-sum-exp (lse) is stored.

    No call, taped or not, holds a full score array or a scaled copy of q:
    beside its output and the lse, the forward allocates two block-sized
    buffers.  The vjp keeps q, k, v, the output and the lse, O(n*T*D)
    state, and walks the same blocks: each block's q rows are scaled again
    into a block buffer, P = exp(q kT - lse) is recomputed into another and
    dS = P * (g vT - rowsum(g * out)) lives in a third; dq is written per
    block, and an instance's first block writes its dk and dv (from the
    scaled q rows), later row blocks add to them.

    The vjp walks the live instances only, those whose output gradient has
    a nonzero entry (a NaN or inf in g counts as one), and of them the
    live query rows only: the rows whose gradient is nonzero in some live
    instance.  They are gathered and tiled afresh; k and v keep every row.
    The others get zero dq, dk and dv: a dead query row adds nothing to
    dk or dv.  Dropping the dead rows' zero terms changes how the dk and dv
    sums round, so they agree with the dense path to rounding, not bit for
    bit.  A skipped instance or row gets +0 where the dense path could give
    -0, or NaN when the forward held inf or NaN there (0 * NaN is NaN).
    With no live instance every parent gets None (see conv2d).  Otherwise
    every taped parent gets a full-shape gradient; a constant one gets None
    and its GEMMs are skipped (dS too, when q and k are both constants).
    """
    q, k, v = as_var(q), as_var(k), as_var(v)
    qv, kv, vv = q.value, k.value, v.value
    # the parents' dims; the vjp keeps q, k, v, out and lse
    dq, dk, dv = _dims(q), _dims(k), _dims(v)
    if qv.shape[-1] != kv.shape[-1]:
        raise ValueError(f"attention: q dim {qv.shape[-1]} != k dim {kv.shape[-1]}")
    if kv.shape[-2] != vv.shape[-2]:
        raise ValueError(f"attention: k rows {kv.shape[-2]} != v rows {vv.shape[-2]}")
    batch = qv.shape[:-2]
    if kv.shape[:-2] != batch or vv.shape[:-2] != batch:
        raise ValueError(f"attention: q, k, v leading axes {batch}, {kv.shape[:-2]}, {vv.shape[:-2]} differ")
    n, tq, tk = math.prod(batch), qv.shape[-2], kv.shape[-2]
    c = 1.0 / math.sqrt(qv.shape[-1])
    q3, k3, v3 = (a.reshape((n,) + a.shape[-2:]) for a in (qv, kv, vv))
    # q * c has q's float dtype: c is a weak Python float (NEP 50)
    qdt = np.result_type(q3.dtype, c)
    sdt = np.result_type(qdt, k3)
    blocks, block_dims = _score_blocks(n, tq, tk, sdt.itemsize)
    o3 = np.empty((n, tq, v3.shape[-1]), np.result_type(sdt, v3))
    lse = np.empty((n, tq, 1), sdt)
    buf, qbuf = np.empty(block_dims, sdt), np.empty(block_dims[:2] + q3.shape[-1:], qdt)
    kt3 = np.swapaxes(k3, -1, -2)
    for b, r in blocks:
        s = _scores(buf, _scaled(qbuf, q3, c, b, r), kt3[b])
        m = s.max(axis=-1, keepdims=True)
        s -= m
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        s /= total
        np.matmul(s, v3[b], out=o3[b, r])
        np.add(m, np.log(total), out=lse[b, r])

    def vjp(g):
        g3 = g.reshape(o3.shape)
        live = _live(g3)
        if _none_live(live):
            return (None, None, None)
        gdt = np.result_type(g3, sdt, v3)
        qs, ks, vs, outs, lses, gs = q3, k3, v3, o3, lse, g3
        if live is not None:
            qs, ks, vs, outs, lses, gs = (a[live] for a in (q3, k3, v3, o3, lse, g3))
        # the query rows live in some live instance; k and v keep every row
        rows = _live(np.swapaxes(gs, 0, 1))
        if rows is not None:
            rows = (slice(None),) + rows
            qs, outs, lses, gs = (a[rows] for a in (qs, outs, lses, gs))
        vblocks, vdims = blocks, block_dims
        if live is not None or rows is not None:
            vblocks, vdims = _score_blocks(gs.shape[0], gs.shape[1], tk, sdt.itemsize)
        gq, gk, gv = (None if d is None else np.empty(a.shape, gdt) for d, a in ((dq, qs), (dk, ks), (dv, vs)))
        p_buf, ds_buf = np.empty(vdims, sdt), np.empty(vdims, gdt)
        qbuf = np.empty(vdims[:2] + qs.shape[-1:], qdt)
        kts, vts = np.swapaxes(ks, -1, -2), np.swapaxes(vs, -1, -2)
        for b, r in vblocks:
            qb = _scaled(qbuf, qs, c, b, r)
            p = _scores(p_buf, qb, kts[b])
            p -= lses[b, r]
            np.exp(p, out=p)
            gb = gs[b, r]
            _into(gv, b, r, np.swapaxes(p, -1, -2), gb)
            if gq is None and gk is None:
                continue
            ds = _scores(ds_buf, gb, vts[b])
            ds -= (gb * outs[b, r]).sum(axis=-1, keepdims=True)
            ds *= p
            if gq is not None:
                np.matmul(ds, ks[b], out=gq[b, r])
            _into(gk, b, r, np.swapaxes(ds, -1, -2), qb)
        if gq is not None:
            gq *= c
            gq = _scatter(gq, rows, (len(gq), tq, gq.shape[-1]))
        return tuple(
            None if a is None else _scatter(a, live, (n,) + a.shape[1:]).reshape(d)
            for a, d in ((gq, dq), (gk, dk), (gv, dv))
        )

    return _op(o3.reshape(batch + o3.shape[1:]), (q, k, v), vjp)


def layer_norm(x, gain, offset) -> Var:
    """Normalize the last axis to zero mean / unit variance (1e-5 is added
    to the variance), then affine.  The input gradient is computed for the
    live rows of g only and scattered into zeros."""
    x, gain, offset = as_var(x), as_var(gain), as_var(offset)
    d = x.value.shape[-1]
    if gain.value.shape != (d,) or offset.value.shape != (d,):
        raise ValueError(f"layer_norm: gain/offset must have dims ({d},)")
    mean = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    # the vjp keeps xhat, inv and the gain; x, xc and mean go
    dims, gv = _dims(x), gain.value
    g_taped, o_taped = gain.tape is not None, offset.tape is not None

    def vjp(g):
        dx = dg = db = None
        if dims is not None:
            live = _live(g, g.ndim - 1)
            gl, xh, iv = (g, xhat, inv) if live is None else (g[live], xhat[live], inv[live])
            dxhat = gl * gv
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xh).mean(axis=-1, keepdims=True)
            dx = _scatter(iv * (dxhat - m1 - xh * m2), live, dims)
        if g_taped:
            dg = (g * xhat).reshape(-1, d).sum(axis=0)
        if o_taped:
            db = g.reshape(-1, d).sum(axis=0)
        return (dx, dg, db)

    return _op(xhat * gain.value + offset.value, (x, gain, offset), vjp)


# ---------------------------------------------------------------------------
# Activations

def leaky_relu(x, slope: float = 0.1) -> Var:
    """x where x > 0, slope * x elsewhere, for 0 < slope <= 1.

    The value is max(x, slope * x): bit for bit the masked form, signed
    zeros and NaN included.  A slope of 0 is refused, as +inf * 0 is NaN
    and the max would return it.  A taped call keeps the bool mask x > 0;
    the vjp builds the factor max(mask, slope), 1 or slope, in g's dtype
    and the mask's memory order, and multiplies g into it in place."""
    if not 0 < slope <= 1:
        raise ValueError(f"leaky_relu: slope must be in (0, 1], got {slope}")
    x = as_var(x)
    xv = x.value
    pos = None if x.tape is None else xv > 0

    def vjp(g):
        gx = np.array(pos, g.dtype)
        np.maximum(gx, slope, out=gx)
        gx *= g
        return (gx,)

    # asarray: a 0-d x times slope is a scalar, which cannot take out=
    y = np.asarray(xv * slope)
    return _op(np.maximum(xv, y, out=y), (x,), vjp)


# Python floats, not NumPy scalars: under NEP 50 promotion a float64 scalar
# would run every float32 gelu in float64.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# The Cephes ndtr.c rational approximations of erf (S. L. Moshier), highest
# power first; a leading 1.0 is Cephes' implicit one (p1evl).  T/U serve
# |z| <= 1, P/Q the erfc tail exp(-z*z)*P(z)/Q(z) for z > 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# From z = 6 up, 1 - erfc(z) rounds to 1 in float64.
_ERF_CAP = 6.0
# Bytes of float64 work buffers erf holds per element of a chunk.
_ERF_ITEM_BYTES = 3 * 8


def _polevl(x: np.ndarray, coefs: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    """Horner's rule at x into out, one rounding per step as Cephes' polevl
    and p1evl take them; p1evl's implicit leading 1 needs no multiply."""
    if coefs[0] == 1.0:
        np.add(x, coefs[1], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def erf(x) -> np.ndarray:
    """The error function, bit-identical to scipy.special.erf on real input.

    Evaluates the Cephes ndtr rationals in float64 and casts to the input's
    float dtype, as SciPy's float32 loop does.  The |z| <= 1 rational runs
    on whole chunks of batch_slices; only the |z| > 1 tail, about 8% of gelu
    inputs, is gathered for 1 - erfc.  For float64 output the tail's exp
    comes from libm (math.exp), as in SciPy: NumPy's SIMD exp is 1 ulp off
    on a few percent of arguments.  For float32 output np.exp serves: a
    float64 ulp moves the cast only at a float32 rounding midpoint, and no
    value of a 20M-point sweep hit one.
    """
    x = np.asarray(x)
    out = np.empty(x.shape, np.result_type(x.dtype, np.float32))
    flat, dst = x.reshape(-1), out.reshape(-1)
    slices = batch_slices(flat.size, _ERF_ITEM_BYTES)
    z_buf, z2_buf, y_buf = np.empty((3, slices[0].stop))
    # Past |z| = 1 the rational may overflow to inf or nan; the tail
    # replaces every such value.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in slices:
            n = s.stop - s.start
            z, z2, y = z_buf[:n], z2_buf[:n], y_buf[:n]
            z[...] = flat[s]
            np.multiply(z, z, out=z2)
            _polevl(z2, _ERF_T, y)
            y *= z
            # z*z > 1 exactly when |z| > 1: squaring rounds monotonically
            # and 1*1 == 1.
            tail = np.flatnonzero(z2 > 1.0)
            zt = z[tail]
            y /= _polevl(z2, _ERF_U, z)
            a = np.minimum(np.abs(zt), _ERF_CAP)
            arg = -(a * a)
            if dst.dtype == np.float64:
                e = np.fromiter(map(math.exp, arg.tolist()), np.float64, len(arg))
            else:
                e = np.exp(arg)
            e *= _polevl(a, _ERF_P, arg)
            e /= _polevl(a, _ERF_Q, arg)
            y[tail] = np.copysign(1.0 - e, zt)
            dst[s] = y
    return out


def gelu(x) -> Var:
    """Exact Gaussian-error-linear unit 0.5*x*(1 + erf(x/sqrt(2))).

    erf is the NumPy port above of the Cephes rationals, bit-identical to
    scipy.special.erf in float32 and float64."""
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
    dtype = x.dtype

    def vjp(g):
        mh = resample_matrix(h, hout).astype(dtype)
        mw = resample_matrix(w, wout).astype(dtype)
        return (mh.T @ g @ mw,)

    return _op(_resize_value(x.value, hout, wout), (x,), vjp)
