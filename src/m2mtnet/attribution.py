"""Local attribution maps: which input pixels (across all views) drive a
chosen output patch.

The probe follows a blur-to-sharp path: the input light field is Gaussian
blurred per view with width sigma*(1 - k/steps), so k=0 is the blurriest
point and k=steps is the original input.  At each point the gradient of a
local-variation detector (sum of absolute forward differences inside a small
window of one output view) is taken w.r.t. the input, multiplied by a path
difference, and accumulated.  The absolute accumulated value is the map.

Two accumulation modes exist because the published formula and the reference
implementation of this technique differ:

* literal  — step k uses (gamma(k/s) - gamma((k+1)/s)) / s, with k+1 clamped
  at the end of the path, so the final step contributes exactly zero and the
  whole map vanishes at steps=1.
* standard — step k uses (gamma(k/s) - gamma((k-1)/s)) with no 1/s factor;
  summed over the path this telescopes to the full input difference.

For a constant-gradient detector the two modes agree up to the factor
-(1/s) applied to a shortened path; tests pin that identity.

The diffusion index DI = (1 - G) * 100 summarizes a map: G is the Gini
coefficient of its values, so DI is 100 for perfectly even attribution and
falls as attribution concentrates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import lfio, ops
from .autodiff import Tape, Var
from .lftensor import LfTensor, to_layout
from .metrics import _gaussian_taps

__all__ = [
    "LamConfig",
    "LamResult",
    "gaussian_kernel1d",
    "gaussian_path",
    "detector",
    "gini",
    "diffusion_index",
    "lam",
    "save_heatmap_pgm",
]


@dataclass(frozen=True)
class LamConfig:
    """Attribution settings.

    window is (x, y, l): an l x l patch with corner (x, y) in output-view
    pixel coordinates.  sai picks the probed output view; None means the
    central view.  steps is the number of path samples; sigma the widest
    blur.
    """

    window: tuple[int, int, int]
    steps: int = 50
    sigma: float = 4.0
    sai: tuple[int, int] | None = None
    literal: bool = True

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        x, y, l = self.window
        if l < 1 or x < 0 or y < 0:
            raise ValueError(f"bad window {self.window}")


@dataclass(frozen=True)
class LamResult:
    """Attribution map over the input light field.

    map has dims (U, V, W, H) (channels summed); macpi is its macro-pixel
    rendering.  di == (1 - gini_coeff) * 100.  degenerate marks an all-zero
    map, reported as DI 100 with gini 0.
    """

    map: np.ndarray
    macpi: np.ndarray
    di: float
    gini_coeff: float
    degenerate: bool = False


def gaussian_kernel1d(width: float) -> np.ndarray:
    """Normalized Gaussian taps truncated at radius ceil(3*width).

    width == 0 degenerates to the identity kernel [1].
    """
    if not 0 <= width < np.inf:
        raise ValueError(f"width must be finite and >= 0, got {width}")
    if width == 0.0:
        return np.ones(1, dtype=np.float64)
    return _gaussian_taps(2 * int(np.ceil(3.0 * width)) + 1, width)


def _blur_lf(data: np.ndarray, width: float) -> np.ndarray:
    """Per-view separable Gaussian blur on the spatial axes, edge-replicate
    (the kernel radius may exceed the view)."""
    k = gaussian_kernel1d(width)
    radius = k.size // 2
    out = data.astype(np.float64, copy=False)
    for axis in (2, 3):
        pad = [(0, 0)] * out.ndim
        pad[axis] = (radius, radius)
        out = sliding_window_view(np.pad(out, pad, mode="edge"), k.size, axis=axis) @ k
    return out


def gaussian_path(lf: LfTensor, k: int, cfg: LamConfig) -> LfTensor:
    """Path sample gamma(k/steps): blur width sigma*(1 - k/steps)."""
    if not 0 <= k <= cfg.steps:
        raise ValueError(f"path index {k} outside [0, {cfg.steps}]")
    width = cfg.sigma * (1.0 - k / cfg.steps)
    return LfTensor(_blur_lf(lf.data, width))


def _resolve_sai(lf_dims, sai):
    u, v = lf_dims[0], lf_dims[1]
    if sai is None:
        sai = (u // 2, v // 2)
    su, sv = sai
    if not (0 <= su < u and 0 <= sv < v):
        raise ValueError(f"sai {sai} outside the {u}x{v} grid")
    return su, sv


def _check_window(window, w, h):
    x, y, l = window
    if x + l > w or y + l > h:
        raise ValueError(f"window {window} exceeds the {w}x{h} view")


def detector(sr: LfTensor, window: tuple[int, int, int], sai=None) -> float:
    """Local-variation score: sum of |forward differences| inside the window
    of one view (channels included), in float64."""
    return float(_detector_var(Var(sr.data.astype(np.float64)), window, sai).value)


def _detector_var(out: Var, window, sai) -> Var:
    """detector() on a Var; differentiable when out is on a tape."""
    su, sv = _resolve_sai(out.value.shape, sai)
    _check_window(window, out.value.shape[2], out.value.shape[3])
    x, y, l = window
    win = ops.getitem(out, (su, sv, slice(x, x + l), slice(y, y + l)))
    dx = ops.vsum(ops.vabs(ops.sub(ops.getitem(win, slice(1, None)), ops.getitem(win, slice(None, -1)))))
    dy = ops.vsum(ops.vabs(ops.sub(ops.getitem(win, (slice(None), slice(1, None))), ops.getitem(win, (slice(None), slice(None, -1))))))
    return ops.add(dx, dy)


def gini(values: np.ndarray) -> float:
    """Gini coefficient via the sorted O(n log n) identity.

    Equals the mean-absolute-difference definition
    sum_ij |x_i - x_j| / (2 n^2 mean); all-zero input is degenerate and
    raises ValueError.  Values must be finite and non-negative.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < 1:
        raise ValueError("gini needs at least one value")
    if not np.isfinite(x).all():
        raise ValueError("gini needs finite values")
    if np.any(x < 0):
        raise ValueError("gini expects non-negative values")
    total = x.sum()
    if total == 0.0:
        raise ValueError("gini of an all-zero vector is undefined")
    xs = np.sort(x)
    if xs[0] == xs[-1]:
        return 0.0  # all equal: exactly zero, no rounding residue
    n = xs.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * np.sum(i * xs) / (n * total) - (n + 1.0) / n)


def diffusion_index(values: np.ndarray) -> float:
    """(1 - Gini) * 100: high means attribution spreads evenly."""
    return (1.0 - gini(values)) * 100.0


def lam(net, lr: LfTensor, cfg: LamConfig) -> LamResult:
    """Attribution of net's output window w.r.t. every input pixel.

    Runs in float64 whatever the stored weight dtype.  net may be either
    architecture; it needs cfg.r, mixes_views, check_input, astype,
    forward_var and param_vars, and, if it does not mix views, flat and a
    (cfg, flat) constructor.  lr, sai and window are checked against net
    (and the r*W x r*H output view) before any work.  The parameters are
    constants, so each backward computes the input gradient alone.  Each
    forward returns the probed view alone (forward_var's view argument),
    so the bicubic residual runs on that view only.

    A net whose class sets mixes_views = False (the per-view baseline) is
    probed on view s only: just that view is blurred, type(net) built with
    u = v = 1 on the same flat buffer runs each path sample, and the
    gradient lands in view s of an otherwise zero map, which equals the
    full-grid one exactly: such a net gives every other view zero gradient.

    A map with a NaN or infinite value is refused with ValueError; an
    all-zero map is reported as degenerate.
    """
    net.check_input(lr.data.shape)
    su, sv = _resolve_sai(lr.data.shape, cfg.sai)
    _check_window(cfg.window, net.cfg.r * lr.w, net.cfg.r * lr.h)
    net64 = net.astype(np.float64)
    sai, view = (su, sv), (slice(None), slice(None))
    if not net.mixes_views:
        net64 = type(net)(replace(net.cfg, u=1, v=1), net64.flat)
        sai, view = (0, 0), (slice(su, su + 1), slice(sv, sv + 1))
    s = cfg.steps
    path = [gaussian_path(LfTensor(lr.data[view]), k, cfg).data for k in range(s + 1)]
    pv = net64.param_vars(None)
    acc = np.zeros_like(path[0])
    for k in range(1, s + 1):
        tape = Tape()
        x = Var(path[k], tape)
        out = net64.forward_var(x, pv, view=sai)
        d = _detector_var(out, cfg.window, (0, 0))
        tape.backward(d, np.float64(1.0))
        if cfg.literal:
            acc += x.grad * (path[k] - path[min(k + 1, s)]) / s
        else:
            acc += x.grad * (path[k] - path[k - 1])
    amap = np.zeros(lr.data.shape[:4])
    amap[view] = np.abs(acc).sum(axis=4)
    if not np.isfinite(amap).all():
        raise ValueError("attribution map has NaN or infinite values: the net's output or gradient is not finite")
    macpi = to_layout("macpi", LfTensor(amap[..., None]))[:, :, 0]
    if not amap.any():
        return LamResult(map=amap, macpi=macpi, di=100.0, gini_coeff=0.0, degenerate=True)
    g = gini(amap)
    return LamResult(map=amap, macpi=macpi, di=(1.0 - g) * 100.0, gini_coeff=g)


def save_heatmap_pgm(path, map2d: np.ndarray) -> None:
    """Min-max normalized 8-bit PGM rendering of a finite 2-D map."""
    m = np.asarray(map2d, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"heatmap needs a 2-D map, got ndim {m.ndim}")
    # a NaN min or max would otherwise normalize the map to all zeros
    if not np.isfinite(m).all():
        raise ValueError(f"{path}: map has NaN or infinite values")
    lo, hi = float(m.min()), float(m.max())
    lfio.write_pgm(path, (m - lo) / (hi - lo) if hi > lo else np.zeros(m.shape), 255)
