"""Light fields as directories of per-view PGM images, plus config files.

A light-field directory holds one grayscale image per view, named
view_u{u}_v{v}.pgm, with an optional meta.txt of key=value lines (u, v,
bitdepth).  Binary PGM (P5) at 8 or 16 bit is supported; 16-bit samples are
big-endian per the format.  Color PPM (P6) views are accepted on load and
reduced to luma.  Values normalize to [0, 1] as sample/maxval.
"""
from __future__ import annotations

import os
import re

import numpy as np

from .lftensor import LfTensor
from .metrics import rgb_to_y

__all__ = [
    "read_pgm",
    "write_pgm",
    "check_maxval",
    "read_ppm",
    "load_lf_dir",
    "save_lf_dir",
    "central_views",
    "read_kv_file",
]


def _positive_int(text: str, what: str) -> int:
    """text as an int >= 1; unlike int(), no sign, underscore or non-ASCII digit."""
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise ValueError(f"{what} must be a positive integer, got {text!r}")
    return int(text)


def _read_netpbm_header(raw: bytes, magic: bytes):
    if raw[:2] != magic:
        raise ValueError(f"bad magic {raw[:2]!r}, expected {magic!r}")
    # header tokens: width, height, maxval; comments run # to end of line
    pos, fields = 2, []
    while len(fields) < 3:
        if pos >= len(raw):
            raise ValueError("truncated header")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos : pos + 1].isspace():
                pos += 1
            name = ("width", "height", "maxval")[len(fields)]
            fields.append(_positive_int(raw[start:pos].decode("latin-1"), f"header {name}"))
    return fields[0], fields[1], fields[2], pos + 1  # single whitespace after maxval


def _read_netpbm(path, magic: bytes, channels: int) -> tuple[np.ndarray, int]:
    """Binary Netpbm -> ((H, W) or (H, W, channels) raw samples, maxval)."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        w, h, maxval, offset = _read_netpbm_header(raw, magic)
        check_maxval(maxval)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    dt = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = w * h * channels
    if len(raw) - offset < count * dt.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    samples = np.frombuffer(raw, dtype=dt, count=count, offset=offset)
    if samples.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample {samples.max()} above maxval {maxval}")
    shape = (h, w, channels) if channels > 1 else (h, w)
    return samples.reshape(shape).astype(np.int64), maxval


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Binary PGM -> ((H, W) array of raw samples, maxval)."""
    return _read_netpbm(path, b"P5", 1)


def check_maxval(maxval: int) -> None:
    """Raise unless maxval is a sample range a binary PGM can store."""
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")


def write_pgm(path, img01: np.ndarray, maxval: int = 255) -> None:
    """Quantize a [0, 1] (H, W) image to a binary PGM; NaN or inf is an error."""
    check_maxval(maxval)
    img = np.asarray(img01, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"write_pgm needs a 2-D image, got ndim {img.ndim}")
    if not np.isfinite(img).all():
        raise ValueError(f"{path}: image has NaN or infinite samples")
    q = np.rint(np.clip(img, 0.0, 1.0) * maxval)
    dt = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode())
        f.write(q.astype(dt).tobytes())


def read_ppm(path) -> tuple[np.ndarray, int]:
    """Binary PPM -> ((H, W, 3) array of raw samples, maxval)."""
    return _read_netpbm(path, b"P6", 3)


_VIEW_RE = re.compile(r"^view_u([0-9]+)_v([0-9]+)\.(pgm|ppm)$")


def load_lf_dir(path, central: int | None = None) -> LfTensor:
    """Load a view directory into a (U, V, W, H, 1) float32 light field.

    The grid is inferred from the filenames; a u or v in meta.txt must
    agree with it.  Every view must exist exactly once, with identical
    dims.  central=k keeps only the central k x k views.  A .ppm view is
    reduced to BT.601 luma.
    """
    if not os.path.isdir(path):
        raise ValueError(f"not a directory: {path}")
    found = {}
    for name in os.listdir(path):
        m = _VIEW_RE.match(name)
        if m:
            key = (int(m.group(1)), int(m.group(2)))
            if key in found:
                a, b = sorted((found[key], name))
                raise ValueError(f"{a} and {b} are both view (u={key[0]}, v={key[1]}) in {path}")
            found[key] = name
    if not found:
        raise ValueError(f"no view_u*_v*.pgm images in {path}")
    grid = {"u": max(k[0] for k in found) + 1, "v": max(k[1] for k in found) + 1}
    meta_path = os.path.join(path, "meta.txt")
    meta = read_kv_file(meta_path) if os.path.isfile(meta_path) else []
    for key, text in dict(meta).items():
        if key in grid and _positive_int(text, f"{meta_path}: {key}") != grid[key]:
            raise ValueError(f"{meta_path}: {key}={text}, but the view files give {key}={grid[key]}")
    nu, nv = grid["u"], grid["v"]

    views = []
    dims = None
    for uu in range(nu):
        row = []
        for vv in range(nv):
            name = found.get((uu, vv))
            if name is None:
                raise ValueError(f"missing view: view_u{uu}_v{vv}.pgm in {path}")
            full = os.path.join(path, name)
            if name.endswith(".ppm"):
                img, maxval = read_ppm(full)
                y = rgb_to_y(img[..., 0] / maxval, img[..., 1] / maxval, img[..., 2] / maxval)
            else:
                img, maxval = read_pgm(full)
                y = img / maxval
            if dims is None:
                dims = y.shape
            elif y.shape != dims:
                raise ValueError(
                    f"view {name} dims {y.shape} differ from {dims} in {path}"
                )
            # file rows are y, columns are x; store (W, H)
            row.append(y.T[:, :, None])
        views.append(row)
    lf = LfTensor(np.asarray(views, dtype=np.float32))
    if central is not None:
        lf = central_views(lf, central)
    return lf


def central_views(lf: LfTensor, k: int) -> LfTensor:
    """Keep the central k x k angular window."""
    if k < 1 or k > lf.u or k > lf.v:
        raise ValueError(f"central {k} outside the {lf.u}x{lf.v} grid")
    ou, ov = (lf.u - k) // 2, (lf.v - k) // 2
    return LfTensor(np.ascontiguousarray(lf.data[ou : ou + k, ov : ov + k]))


def save_lf_dir(lf: LfTensor, path, maxval: int = 255) -> None:
    """Write per-view PGMs plus meta.txt; single-channel, finite fields only.

    Every check runs before the directory is created, so a rejected field
    leaves nothing behind.
    """
    if lf.c != 1:
        raise ValueError(f"view directories store 1 channel, got {lf.c}")
    check_maxval(maxval)
    if not np.isfinite(lf.data).all():
        raise ValueError(f"light field for {path} has NaN or infinite samples")
    os.makedirs(path, exist_ok=True)
    for uu in range(lf.u):
        for vv in range(lf.v):
            write_pgm(
                os.path.join(path, f"view_u{uu}_v{vv}.pgm"),
                lf.data[uu, vv, :, :, 0].T,
                maxval,
            )
    with open(os.path.join(path, "meta.txt"), "w") as f:
        f.write(f"u={lf.u}\nv={lf.v}\nbitdepth={8 if maxval <= 255 else 16}\n")


def read_kv_file(path) -> list[tuple[str, str]]:
    """(key, value) pairs of a file of key=value lines; blank lines and
    # comments are skipped."""
    pairs = []
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            pairs.append((key.strip(), val.strip()))
    return pairs
