"""Light-field super-resolution networks and their weight files.

Two architectures share one head/tail:

* Network — n2 correlation blocks (many-to-many + angular attention), so all
  views inform every output pixel.
* O2OBaseline — same depth budget but per-view spatial transformers only;
  views never mix.  Exists as the contrast case for receptive-field and
  attribution experiments.

Head: n1 per-view 3x3 convs (1->C then C->C), leaky-relu between them.
Tail: 1x1 conv C -> r*r*C, pixel shuffle by r, 3x3 conv C -> 1.  A bicubic
upsample of the input is added as a global residual, so a zero-weight network
degrades exactly to bicubic.
"""
from __future__ import annotations

import re
import struct
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import blocks, ops
from .autodiff import Tape, Var
from .lftensor import LfTensor

__all__ = [
    "NetConfig",
    "Network",
    "O2OBaseline",
    "build",
    "build_o2o",
    "param_specs",
    "count_params",
    "count_flops",
    "save_weights",
    "load_weights",
    "config_from_manifest",
    "net_from_file",
]


@dataclass(frozen=True)
class NetConfig:
    """Architecture hyper-parameters; defaults match the 4x model."""

    u: int = 5
    v: int = 5
    c: int = 48
    c_cor: int = 128
    n1: int = 4
    n2: int = 8
    r: int = 4
    seed: int = 0
    arch: str = "m2m"
    # FLOPs per multiply-accumulate in count_flops: a multiply and an add
    flops_per_mac: ClassVar[int] = 2

    def validate(self) -> None:
        if min(self.u, self.v, self.c, self.c_cor) < 1:
            raise ValueError("u, v, c, c_cor must be >= 1")
        if self.n1 < 1:
            raise ValueError(f"n1 must be >= 1, got {self.n1}")
        if self.n2 < 1:
            raise ValueError(f"n2 must be >= 1, got {self.n2}")
        if self.r not in (2, 4):
            raise ValueError(f"upscale factor must be 2 or 4, got {self.r}")
        if self.arch not in ("m2m", "o2o"):
            raise ValueError(f"arch must be 'm2m' or 'o2o', got {self.arch!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class _SrNet:
    """Shared head/tail plumbing; subclasses provide the block stack.

    mixes_views says whether an output view can depend on other input
    views.  A net that does not mix them, and whose parameters do not depend
    on U or V, computes each view as the same net built with u = v = 1
    would; attribution uses that to run one view.
    """

    mixes_views = True

    def __init__(self, cfg: NetConfig, params: "OrderedDict[str, np.ndarray]"):
        self.cfg = cfg
        self.params = params

    # -- parameter bookkeeping -------------------------------------------

    def param_vars(self, tape: Tape | None) -> "OrderedDict[str, Var]":
        return OrderedDict((n, Var(a, tape)) for n, a in self.params.items())

    def num_params(self) -> int:
        return sum(a.size for a in self.params.values())

    def param_subtotal(self, prefix: str) -> int:
        return sum(a.size for n, a in self.params.items() if n.startswith(prefix))

    def astype(self, dtype) -> "_SrNet":
        conv = OrderedDict((n, a.astype(dtype)) for n, a in self.params.items())
        return type(self)(self.cfg, conv)

    # -- forward ----------------------------------------------------------

    def _blocks_forward(self, x: Var, pv) -> Var:
        raise NotImplementedError

    def check_input(self, dims) -> None:
        """Refuse input dims other than (cfg.u, cfg.v, W, H, 1)."""
        cfg = self.cfg
        uu, vv, _, _, cin = dims
        if (uu, vv) != (cfg.u, cfg.v):
            raise ValueError(f"input grid {uu}x{vv} != configured {cfg.u}x{cfg.v}")
        if cin != 1:
            raise ValueError(f"network expects 1 input channel, got {cin}")

    def _tail(self, img: Var, pv) -> Var:
        """(n, C, H, W) features -> (n, 1, rH, rW) images."""
        img = ops.conv2d(img, pv["tail.expand.w"], pv["tail.expand.b"])
        img = ops.pixel_shuffle(img, self.cfg.r)
        return ops.conv2d(img, pv["tail.squeeze.w"], pv["tail.squeeze.b"])

    def forward_var(self, x: Var, pv: "OrderedDict[str, Var]") -> Var:
        """Differentiable forward: Var (U,V,W,H,1) -> Var (U,V,rW,rH,1).

        The tail runs per group of views (ops.batch_slices) whose expanded
        r*r*C channels fit the ops chunk budget, so the expand output and
        its pixel-shuffled copy exist for one group at a time; the groups'
        outputs are joined by ops.concat.
        """
        cfg = self.cfg
        self.check_input(x.value.shape)
        w, h = x.value.shape[2:4]
        out_dims = (cfg.u, cfg.v, cfg.r * w, cfg.r * h, 1)

        img = blocks.lf_to_images(x)
        for i in range(cfg.n1):
            img = ops.conv2d(img, pv[f"head.{i}.w"], pv[f"head.{i}.b"])
            if i < cfg.n1 - 1:
                img = ops.leaky_relu(img, 0.1)
        feat = blocks.images_to_lf(img, (cfg.u, cfg.v, w, h, cfg.c))

        feat = self._blocks_forward(feat, pv)

        img = blocks.lf_to_images(feat)
        groups = ops.batch_slices(len(img.value), cfg.r * cfg.r * cfg.c * w * h * img.value.itemsize)
        img = ops.concat([self._tail(ops.getitem(img, s), pv) for s in groups])
        sr = blocks.images_to_lf(img, out_dims)

        up = ops.resize_bicubic(blocks.lf_to_images(x), float(cfg.r))
        return ops.add(sr, blocks.images_to_lf(up, out_dims))

    def forward(self, lf: LfTensor) -> LfTensor:
        """Plain inference; dtype follows the weights."""
        x = Var(lf.data.astype(next(iter(self.params.values())).dtype, copy=False))
        out = self.forward_var(x, self.param_vars(None))
        return LfTensor(out.value)


class Network(_SrNet):
    """Many-to-many correlation network."""

    def _blocks_forward(self, x: Var, pv) -> Var:
        for j in range(self.cfg.n2):
            pm = _subview(pv, f"block{j}.m2mt.")
            pa = _subview(pv, f"block{j}.ang.")
            x = blocks.correlation_block_forward(x, pm, pa)
        return x


class O2OBaseline(_SrNet):
    """Per-view baseline: identical head/tail, isolated spatial transformers."""

    mixes_views = False

    def _blocks_forward(self, x: Var, pv) -> Var:
        for j in range(self.cfg.n2):
            x = blocks.o2o_spatial_forward(x, _subview(pv, f"block{j}.sp."))
        return x


def _subview(pv, prefix: str) -> dict:
    return {n[len(prefix):]: v for n, v in pv.items() if n.startswith(prefix)}


# ---------------------------------------------------------------------------
# Construction

def _layers(cfg: NetConfig, patch: int):
    """The one walk of the cfg.arch architecture, head to tail: (specs, rows).

    specs are param_specs'.  rows hold, for one forward on patch x patch
    views, a (name, flops) row per weight tensor, named like it without
    ".w", and a "<pre>.attention" row per transformer (see count_flops).
    """
    fpm, uv, t = cfg.flops_per_mac, cfg.u * cfg.v, patch * patch
    c, cc, r = cfg.c, cfg.c_cor, cfg.r
    specs, rows = [], []

    def conv(name, cout, cin, k, positions=uv * t):
        specs.extend([(f"{name}.w", (cout, cin, k, k), (cin * k * k, cout * k * k)), (f"{name}.b", (cout,), 0)])
        rows.append((name, fpm * cout * cin * k * k * positions))

    def linear(name, din, dout, positions):
        specs.extend([(f"{name}.w", (din, dout), (din, dout)), (f"{name}.b", (dout,), 0)])
        rows.append((name, fpm * din * dout * positions))

    def transformer(pre, d, tokens, instances, ffn):
        """Attention over `instances` sequences of `tokens` tokens at width d."""
        n = tokens * instances
        specs.extend([(f"{pre}.att_norm.g", (d,), 1), (f"{pre}.att_norm.b", (d,), 0)])
        for name in ("q", "k", "v"):
            linear(f"{pre}.{name}", d, d, n)
        rows.append((f"{pre}.attention", (fpm * tokens * tokens * d * 2 + 5 * tokens * tokens) * instances))
        linear(f"{pre}.proj", d, d, n)
        if ffn:
            specs.extend([(f"{pre}.ffn_norm.g", (d,), 1), (f"{pre}.ffn_norm.b", (d,), 0)])
            linear(f"{pre}.ffn1", d, 2 * d, n)
            linear(f"{pre}.ffn2", 2 * d, d, n)

    for i in range(cfg.n1):
        conv(f"head.{i}", c, 1 if i == 0 else c, 3)
    for j in range(cfg.n2):
        if cfg.arch == "m2m":
            pre = f"block{j}.m2mt"
            conv(f"{pre}.pos1", c, c, 3)
            conv(f"{pre}.pos2", c, c, 3)
            linear(f"{pre}.encode", uv * c, cc, t)
            transformer(pre, cc, t, 1, ffn=True)
            linear(f"{pre}.decode", cc, uv * c, t)
            specs.append((f"block{j}.ang.pos_embed", (uv, c), (uv, c)))
            transformer(f"block{j}.ang", c, uv, t, ffn=False)
        else:
            transformer(f"block{j}.sp", c, t, uv, ffn=True)
    conv("tail.expand", r * r * c, c, 1)
    conv("tail.squeeze", 1, c, 3, uv * r * r * t)
    return specs, rows


def param_specs(cfg: NetConfig) -> list[tuple[str, tuple[int, ...], object]]:
    """(name, dims, init) of every parameter of the cfg.arch net, in registry
    order.  init is the (fan_in, fan_out) of a Glorot-uniform draw, or the
    constant (0 or 1) the tensor starts at; norms start at gain 1, offset 0.
    """
    return _layers(cfg, 1)[0]


_NETS = {"m2m": Network, "o2o": O2OBaseline}


def build(cfg: NetConfig, dtype=np.float32) -> _SrNet:
    """Deterministically initialize the cfg.arch network from cfg.seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    params: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, dims, init in param_specs(cfg):
        if isinstance(init, tuple):
            a = np.sqrt(6.0 / (init[0] + init[1]))
            params[name] = rng.uniform(-a, a, size=dims).astype(dtype)
        else:
            params[name] = np.full(dims, init, dtype=dtype)
    return _NETS[cfg.arch](cfg, params)


def build_o2o(cfg: NetConfig, dtype=np.float32) -> O2OBaseline:
    """Per-view baseline with the same head/tail and sizes."""
    return build(replace(cfg, arch="o2o"), dtype)


# ---------------------------------------------------------------------------
# Analytic cost model

def count_params(net: _SrNet):
    """Per-tensor parameter counts in registry order, plus the total."""
    rows = [(n, a.size) for n, a in net.params.items()]
    return rows, sum(s for _, s in rows)


def count_flops(cfg: NetConfig, patch: int = 32):
    """Per-layer multiply cost for one (patch x patch per view) forward.

    The rows come from the walk that lists the parameters (param_specs):
    one per weight tensor, named like it without ".w" (head.0,
    block0.m2mt.q, ..., tail.squeeze), and one "<pre>.attention" per
    transformer, in forward order.  A conv or linear costs
    fpm * weight elements per position it runs at: U*V*patch^2 for the
    per-view convs and the angular and per-view linears, patch^2 for the
    many-to-many correlation-space linears, U*V*r^2*patch^2 for
    tail.squeeze.  Attention costs fpm*T*T*D*2 + 5*T*T per instance.
    fpm = NetConfig.flops_per_mac = 2 (a multiply and an add).  Biases,
    norms, activations, reshapes, pixel shuffle and the bicubic residual
    are not counted.
    """
    cfg.validate()
    if patch < 1:
        raise ValueError("patch must be >= 1")
    rows = _layers(cfg, patch)[1]
    return rows, sum(f for _, f in rows)


# ---------------------------------------------------------------------------
# Weight files: magic "M2MW1", u32 LE manifest byte length, manifest text
# (one line per tensor: name, dtype, dims, payload offset, tab-separated),
# then the packed little-endian payload.

_W_MAGIC = b"M2MW1"
_W_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_W_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def save_weights(path, net: _SrNet) -> None:
    lines = []
    payload = bytearray()
    for name, arr in net.params.items():
        dt = np.dtype(arr.dtype)
        if dt not in _W_NAMES:
            raise ValueError(f"weight file stores float32/float64, not {dt}")
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"{name}\t{_W_NAMES[dt]}\t{dims}\t{len(payload)}")
        payload += np.ascontiguousarray(arr, dtype=dt.newbyteorder("<")).tobytes()
    manifest = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as f:
        f.write(_W_MAGIC)
        f.write(struct.pack("<I", len(manifest)))
        f.write(manifest)
        f.write(payload)


def _read_header(f):
    """Manifest entries of an open weight file, leaving f at the payload."""
    magic = f.read(5)
    if magic != _W_MAGIC:
        raise ValueError(f"not a weight file: bad magic {magic!r}")
    head = f.read(4)
    if len(head) < 4:
        raise ValueError("weight file truncated inside its header")
    (mlen,) = struct.unpack("<I", head)
    manifest = f.read(mlen)
    if len(manifest) < mlen:
        raise ValueError("weight file truncated inside its manifest")
    entries, seen = [], set()
    for line in manifest.decode().splitlines():
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"bad weight manifest line {line!r}: expected 4 tab-separated fields")
        name, dts, dims, off = fields
        if dts not in _W_DTYPES:
            raise ValueError(f"unknown dtype {dts!r} in weight manifest")
        nums = (dims.split(",") if dims else []) + [off]
        if not all(x.isascii() and x.isdigit() for x in nums):
            raise ValueError(f"bad weight manifest line {line!r}: dims and offset must be non-negative integers")
        *shape, offset = map(int, nums)
        if name in seen:
            raise ValueError(f"weight manifest names tensor {name!r} twice")
        seen.add(name)
        entries.append((name, dts, tuple(shape), offset))
    return entries


def load_weights(path) -> "OrderedDict[str, np.ndarray]":
    with open(path, "rb") as f:
        entries = _read_header(f)
        payload = f.read()
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, dts, shape, off in entries:
        dt = _W_DTYPES[dts]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = off + count * dt.itemsize
        if end > len(payload):
            raise ValueError(f"weight file truncated at tensor {name!r}")
        out[name] = np.frombuffer(payload, dtype=dt, count=count, offset=off).reshape(shape).copy()
    return out


def config_from_manifest(shapes, u: int, v: int) -> NetConfig:
    """Reconstruct the architecture from a weight file's name -> dims mapping.

    The weight file stores tensors only, so the angular grid (u, v) must come
    from the input; everything else is implied by layer dims.
    """
    if "head.0.w" not in shapes:
        raise ValueError("weight file has no head.0.w; not a network weight file")

    def dims(name, ndim):
        if name not in shapes:
            raise ValueError(f"weight file is missing tensor {name!r}")
        if len(shapes[name]) != ndim:
            raise ValueError(f"tensor {name!r} has dims {shapes[name]}, expected {ndim} axes")
        return shapes[name]

    c = dims("head.0.w", 4)[0]
    if c < 1:
        raise ValueError(f"tensor 'head.0.w' has dims {shapes['head.0.w']}: C must be >= 1")
    n1 = sum(1 for n in shapes if n.startswith("head.") and n.endswith(".w"))
    block_ids = set()
    for n in shapes:
        if n.startswith("block"):
            if (m := re.match(r"block(\d+)\.", n)) is None:
                raise ValueError(f"weight file has tensor {n!r}, not named block<i>.<layer>")
            block_ids.add(int(m.group(1)))
    if not block_ids:
        raise ValueError("weight file has no blocks")
    n2 = max(block_ids) + 1
    arch = "m2m" if any(n.startswith("block0.m2mt.") for n in shapes) else "o2o"
    pre = "block0.m2mt." if arch == "m2m" else "block0.sp."
    c_cor = dims(pre + "q.w", 2)[0]
    if arch == "m2m" and (din := dims(pre + "encode.w", 2)[0]) != u * v * c:
        raise ValueError(
            f"encode input dim {din} != U*V*C = {u}*{v}*{c}; wrong --central or grid?"
        )
    r2c = dims("tail.expand.w", 4)[0]
    r = int(round(np.sqrt(r2c // c)))
    if r * r * c != r2c:
        raise ValueError(f"tail expand dim {r2c} is not r*r*C for C={c}")
    return NetConfig(u=u, v=v, c=c, c_cor=c_cor, n1=n1, n2=n2, r=r, arch=arch)


def net_from_file(path, u: int, v: int, dtype=np.float32):
    """The architecture a weight file implies, holding the file's tensors.

    The file must hold exactly the tensors of param_specs for that
    architecture, each with matching dims.
    """
    loaded = load_weights(path)
    cfg = config_from_manifest({n: a.shape for n, a in loaded.items()}, u, v)
    cfg.validate()
    specs = param_specs(cfg)
    expected = {name for name, _, _ in specs}
    for name in loaded:
        if name not in expected:
            raise ValueError(f"weight file has tensor {name!r}, which this network does not")
    params: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, dims, _ in specs:
        if name not in loaded:
            raise ValueError(f"weight file is missing tensor {name!r}")
        if loaded[name].shape != dims:
            raise ValueError(f"tensor {name!r}: file dims {loaded[name].shape} != expected {dims}")
        params[name] = loaded[name].astype(dtype, copy=False)
    return _NETS[cfg.arch](cfg, params)
