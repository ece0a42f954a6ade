"""Dense light-field container, its invertible subspace views, and tensor files.

A 4D light field is stored as one contiguous array with axes (U, V, W, H, C):
angular row u, angular column v, spatial column x, spatial row y, channel.
Flat layout is row-major with the channel axis fastest, so element
(u, v, x, y, ch) lives at offset ((((u*V + v)*W + x)*H + y)*C + ch.

Every view below is a pure axis permutation plus reshape: a bijection on the
stored elements with an exact inverse.  No view changes values, only layout.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LfTensor",
    "LAYOUTS",
    "layout_shape",
    "to_layout",
    "from_layout",
    "read_lft1",
    "write_lft1",
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


# ---------------------------------------------------------------------------
# Tensor file format: magic "LFT1", dtype byte (0 = f32, 1 = f64), ndim byte,
# two zero bytes, then ndim u64 little-endian dims, then the row-major
# little-endian payload.

_LFT1_MAGIC = b"LFT1"
_LFT1_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_LFT1_BYCODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_lft1(path, arr: np.ndarray) -> None:
    """Write an array to an LFT1 tensor file (float32 or float64 only)."""
    dt = np.dtype(arr.dtype)
    if dt not in _LFT1_BYCODE:
        raise ValueError(f"LFT1 stores float32/float64, not {dt}")
    if arr.ndim > 255:
        raise ValueError("LFT1 ndim limit is 255")
    code = _LFT1_BYCODE[dt]
    with open(path, "wb") as f:
        f.write(_LFT1_MAGIC)
        f.write(bytes([code, arr.ndim, 0, 0]))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(np.ascontiguousarray(arr, dtype=_LFT1_CODES[code]).tobytes())


def read_lft1(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _LFT1_MAGIC:
        raise ValueError(f"not an LFT1 file: bad magic {raw[:4]!r}")
    if len(raw) < 8 or len(raw) < 8 + 8 * raw[5]:
        raise ValueError(f"truncated LFT1 header: file has {len(raw)} bytes")
    code, ndim, z0, z1 = raw[4:8]
    if code not in _LFT1_CODES:
        raise ValueError(f"unknown LFT1 dtype code {code}")
    if (z0, z1) != (0, 0):
        raise ValueError("corrupt LFT1 header: reserved bytes nonzero")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 8)
    dt = _LFT1_CODES[code]
    start = 8 + 8 * ndim
    count = math.prod(dims)
    expected = start + count * dt.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"truncated LFT1 payload: file has {len(raw)} bytes, header implies {expected}"
        )
    arr = np.frombuffer(raw, dtype=dt, count=count, offset=start)
    return arr.reshape(dims).copy()
