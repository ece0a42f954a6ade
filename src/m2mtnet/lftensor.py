"""Dense light-field container and its invertible subspace views.

A 4D light field is stored as one contiguous array with axes (U, V, W, H, C):
angular row u, angular column v, spatial column x, spatial row y, channel.
Flat layout is row-major with the channel axis fastest, so element
(u, v, x, y, ch) lives at offset ((((u*V + v)*W + x)*H + y)*C + ch.

Every view below is a pure axis permutation plus reshape: a bijection on the
stored elements with an exact inverse.  No view changes values, only layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LfTensor",
    "LAYOUTS",
    "layout_shape",
    "to_layout",
    "from_layout",
]


@dataclass(frozen=True)
class LfTensor:
    """A light field with axes (U, V, W, H, C), any float dtype.

    U x V is the angular grid of sub-aperture images (SAIs); W x H is the
    spatial extent of each SAI; C is the channel count (1 for luma).
    """

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 5:
            raise ValueError(
                f"light field needs axes (U, V, W, H, C); got ndim={self.data.ndim}"
            )
        if min(self.data.shape) < 1:
            raise ValueError(f"all dims must be >= 1, got {self.data.shape}")

    @property
    def u(self) -> int:
        return self.data.shape[0]

    @property
    def v(self) -> int:
        return self.data.shape[1]

    @property
    def w(self) -> int:
        return self.data.shape[2]

    @property
    def h(self) -> int:
        return self.data.shape[3]

    @property
    def c(self) -> int:
        return self.data.shape[4]

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return self.data.shape


def _check_dims(t: np.ndarray, expect: tuple[int, ...], what: str) -> None:
    if t.shape != expect:
        raise ValueError(f"{what}: expected dims {expect}, got {t.shape}")


# ---------------------------------------------------------------------------
# Subspace views.  Each layout is an order of the axes (U, V, W, H, C) = (0..4)
# plus how many consecutive permuted axes merge into each output axis; a group
# of 0 axes is a unit axis.  Merged axes group row-major, e.g. the UV token axis
# enumerates v fastest within u.

LAYOUTS: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    # (U*V, W*H, C): one token sequence of W*H pixels per SAI
    "spatial": ((0, 1, 2, 3, 4), (2, 2, 1)),
    # (W*H, U*V, C): one token sequence of U*V views per pixel
    "angular": ((2, 3, 0, 1, 4), (2, 2, 1)),
    # (V*H, U*W, C): horizontal epipolar-plane images, (v, y) by (u, x)
    "epi_h": ((1, 3, 0, 2, 4), (2, 2, 1)),
    # (U*W, V*H, C): vertical epipolar-plane images, (u, x) by (v, y)
    "epi_v": ((0, 2, 1, 3, 4), (2, 2, 1)),
    # (1, W*H, U*V*C): all views of a pixel merged into one channel vector,
    # channel index (u*V + v)*C + ch
    "merged": ((2, 3, 0, 1, 4), (0, 2, 3)),
    # (H*U, W*V, C) macro-pixel image: row y*U + u, column x*V + v, so each
    # macro-pixel shows all angular samples of one spatial location
    "macpi": ((3, 0, 2, 1, 4), (2, 2, 1)),
    # (U*V, C, H, W): channel-first image batch for convs
    "images": ((0, 1, 4, 3, 2), (2, 1, 1, 1)),
}


def layout_shape(name: str, dims) -> tuple[int, ...]:
    """Dims of layout `name` for a light field of dims (U, V, W, H, C)."""
    order, groups = LAYOUTS[name]
    sizes = [dims[a] for a in order]
    ends = np.cumsum(groups)
    return tuple(math.prod(sizes[e - g : e]) for g, e in zip(groups, ends))


def to_layout(name: str, lf: LfTensor) -> np.ndarray:
    """The light field in layout `name` (a view when the order allows)."""
    order, _ = LAYOUTS[name]
    return lf.data.transpose(order).reshape(layout_shape(name, lf.dims))


def from_layout(name: str, t: np.ndarray, u: int, v: int, w: int, h: int) -> LfTensor:
    """Inverse of to_layout; C is read from the axis that holds it."""
    what = f"from_layout({name!r})"
    order, groups = LAYOUTS[name]
    unit = layout_shape(name, (u, v, w, h, 1))
    k = int(np.cumsum(groups).searchsorted(order.index(4), side="right"))  # C's axis
    c = 1
    if t.ndim == len(groups):
        c, rem = divmod(t.shape[k], unit[k])
        if rem != 0:
            raise ValueError(f"{what}: channel dim {t.shape[k]} not divisible by {unit[k]}")
    dims = (u, v, w, h, c)
    _check_dims(t, layout_shape(name, dims), what)
    arr = t.reshape([dims[a] for a in order]).transpose(np.argsort(order))
    return LfTensor(np.ascontiguousarray(arr))
