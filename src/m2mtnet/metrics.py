"""Image and light-field quality metrics (PSNR, SSIM) on [0, 1] signals."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lftensor import LfTensor

__all__ = [
    "mse",
    "psnr",
    "ssim",
    "rgb_to_y",
    "lf_metrics",
    "MetricReport",
    "format_report",
    "report_lines",
]


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"mse: dims differ, {a.shape} vs {b.shape}")
    d = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(d * d))


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """10*log10(peak^2 / MSE); identical inputs give +inf."""
    e = mse(a, b)
    if e == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / e))


def rgb_to_y(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BT.601 luma from full-range [0, 1] RGB."""
    return 0.299 * np.asarray(r) + 0.587 * np.asarray(g) + 0.114 * np.asarray(b)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian; its outer product with itself is the
    normalized 2-D window, so the window filters one axis at a time."""
    half = (size - 1) / 2.0
    x = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def ssim(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """Mean structural similarity of two single-channel images.

    11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03, evaluated on the
    valid region only (no padding).  Images smaller than the window shrink it
    to min(11, H, W).  The window is applied as two 1-D passes, rows then
    columns.
    """
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: dims differ, {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"ssim: expects a 2-D image, got ndim {a.ndim}")
    size = min(11, a.shape[0], a.shape[1])
    taps = _gaussian_taps(size, 1.5)
    planes = np.stack([a, b, a * a, b * b, a * b])
    cols = sliding_window_view(planes, size, axis=1) @ taps
    mu_a, mu_b, e_aa, e_bb, e_ab = sliding_window_view(cols, size, axis=2) @ taps
    s_aa = e_aa - mu_a * mu_a
    s_bb = e_bb - mu_b * mu_b
    s_ab = e_ab - mu_a * mu_b
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * s_ab + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (s_aa + s_bb + c2)
    return float(np.mean(num / den))


@dataclass(frozen=True)
class MetricReport:
    """Per-view PSNR/SSIM grids plus their means; grids are (U, V)."""

    psnr_grid: np.ndarray
    ssim_grid: np.ndarray
    psnr_mean: float
    ssim_mean: float
    mse: float


def lf_metrics(sr: LfTensor, hr: LfTensor) -> MetricReport:
    """Quality of sr against reference hr, per view and averaged.

    PSNR is computed over all channels of a view; SSIM per channel, then
    averaged.  Dims must match exactly.
    """
    if sr.dims != hr.dims:
        raise ValueError(f"lf_metrics: dims differ, {sr.dims} vs {hr.dims}")
    u, v = sr.u, sr.v
    pg = np.zeros((u, v))
    sg = np.zeros((u, v))
    for uu in range(u):
        for vv in range(v):
            pg[uu, vv] = psnr(sr.data[uu, vv], hr.data[uu, vv])
            sg[uu, vv] = float(
                np.mean(
                    [
                        ssim(sr.data[uu, vv, :, :, ch], hr.data[uu, vv, :, :, ch])
                        for ch in range(sr.c)
                    ]
                )
            )
    return MetricReport(
        psnr_grid=pg,
        ssim_grid=sg,
        psnr_mean=float(pg.mean()),
        ssim_mean=float(sg.mean()),
        mse=mse(sr.data, hr.data),
    )


def _f(x: float) -> str:
    return f"{x:.6g}"


def format_report(rep: MetricReport) -> str:
    """Human-readable table: per-view PSNR/SSIM grid plus summary."""
    u, v = rep.psnr_grid.shape
    lines = ["view grid (PSNR dB / SSIM):"]
    for uu in range(u):
        cells = [
            f"{_f(rep.psnr_grid[uu, vv])}/{_f(rep.ssim_grid[uu, vv])}"
            for vv in range(v)
        ]
        lines.append("  " + "  ".join(cells))
    lines.append(f"mean PSNR {_f(rep.psnr_mean)} dB, mean SSIM {_f(rep.ssim_mean)}")
    return "\n".join(lines)


def report_lines(rep: MetricReport) -> list[str]:
    """Machine-readable key=value lines."""
    out = [
        f"psnr_mean={_f(rep.psnr_mean)}",
        f"ssim_mean={_f(rep.ssim_mean)}",
        f"mse={_f(rep.mse)}",
    ]
    u, v = rep.psnr_grid.shape
    for uu in range(u):
        for vv in range(v):
            out.append(f"psnr_u{uu}_v{vv}={_f(rep.psnr_grid[uu, vv])}")
            out.append(f"ssim_u{uu}_v{vv}={_f(rep.ssim_grid[uu, vv])}")
    return out
