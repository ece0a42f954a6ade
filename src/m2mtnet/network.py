"""Light-field super-resolution networks and their weight files.

Two architectures share one head/tail and differ in their n2 blocks:

* Network — correlation blocks (many-to-many + angular attention), so all
  views inform every output pixel.
* O2OBaseline — same depth budget but per-view spatial transformers only;
  views never mix.  Exists as the contrast case for receptive-field and
  attribution experiments.

An architecture is one _layers branch (its parameters, cost rows and block
stack) plus one _NETS entry.

Head: n1 per-view 3x3 convs (1->C then C->C), leaky-relu between them.
Tail: 1x1 conv C -> r*r*C, pixel shuffle by r, 3x3 conv C -> 1.  A bicubic
upsample of the input is added as a global residual, so a zero-weight network
degrades exactly to bicubic.

A net is its NetConfig plus net.flat, one 1-D buffer holding every tensor of
param_specs(cfg) in order; net.params is a read-only map of views into it.
Weight files (M2MW2): magic "M2MW2", u32 LE header byte length, a header of
key=value lines (dtype, <f4 or <f8, then every NetConfig field), then
net.flat, packed little-endian in that dtype.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
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
    "parse_config",
    "save_weights",
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

    def __post_init__(self) -> None:
        if min(self.u, self.v, self.c, self.c_cor) < 1:
            raise ValueError("u, v, c, c_cor must be >= 1")
        if self.n1 < 1:
            raise ValueError(f"n1 must be >= 1, got {self.n1}")
        if self.n2 < 1:
            raise ValueError(f"n2 must be >= 1, got {self.n2}")
        if self.r not in (2, 4):
            raise ValueError(f"upscale factor must be 2 or 4, got {self.r}")
        if self.arch not in _NETS:
            raise ValueError(f"arch must be {' or '.join(map(repr, _NETS))}, got {self.arch!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class _SrNet:
    """Shared head/tail plumbing; the block stack is _layers' runs.

    mixes_views says whether an output view can depend on other input
    views.  A net that does not mix them, and whose parameters do not depend
    on U or V, computes each view as the same net built with u = v = 1
    would; attribution uses that to run one view.
    """

    mixes_views = True

    def __init__(self, cfg: NetConfig, flat: np.ndarray):
        self.cfg, self._views = cfg, {}
        self.params = MappingProxyType(self._views)
        self.set_flat(flat)

    # -- parameter bookkeeping -------------------------------------------

    def set_flat(self, flat: np.ndarray) -> None:
        """Make flat the parameter buffer; the same net.params map views it."""
        count = count_params(self.cfg)[1]
        if not (isinstance(flat, np.ndarray) and flat.shape == (count,) and flat.dtype in (np.float32, np.float64)):
            got = f"{flat.dtype} {flat.shape}" if isinstance(flat, np.ndarray) else type(flat).__name__
            raise ValueError(f"a {self.cfg.arch} net needs a 1-D float32 or float64 buffer of {count} values, got {got}")
        self.flat, off = flat, 0
        for name, dims, _ in param_specs(self.cfg):
            self._views[name] = flat[off : off + math.prod(dims)].reshape(dims)
            off += math.prod(dims)

    def param_vars(self, tape: Tape | None) -> dict[str, Var]:
        return {n: Var(a, tape) for n, a in self.params.items()}

    def astype(self, dtype) -> "_SrNet":
        return type(self)(self.cfg, self.flat.astype(dtype))

    # -- forward ----------------------------------------------------------

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

    def forward_var(self, x: Var, pv: dict[str, Var], view: tuple[int, int] | None = None) -> Var:
        """Differentiable forward: Var (U,V,W,H,1) -> Var (U,V,rW,rH,1).

        The head and the bicubic residual read one image batch of x; the
        residual joins the tail's images before the one return to the field.
        One name, y, carries the activations from the head through the n2
        blocks (_layers' runs) and the tail, rebound at each stage, so a
        stage's input is freed once the stage has run.  The tail runs per
        group of views (ops.batch_slices) whose expanded r*r*C channels fit
        the ops chunk budget, so the expand output and its pixel-shuffled
        copy exist for one group at a time, joined by ops.concat.

        With view = (su, sv) the output is that view alone, (1,1,rW,rH,1),
        equal to it in the full output: the tail still runs on every view,
        and the residual is resampled for this view only.
        """
        cfg = self.cfg
        self.check_input(x.value.shape)
        w, h = x.value.shape[2:4]

        x_img = y = blocks.lf_to_images(x)
        for i in range(cfg.n1):
            y = ops.conv2d(y, pv[f"head.{i}.w"], pv[f"head.{i}.b"])
            if i < cfg.n1 - 1:
                y = ops.leaky_relu(y, 0.1)
        y = blocks.images_to_lf(y, (cfg.u, cfg.v, w, h, cfg.c))
        for run in _layers(cfg, 1)[2]:
            y = run(y, pv)
        y = blocks.lf_to_images(y)
        groups = ops.batch_slices(len(y.value), cfg.r * cfg.r * cfg.c * w * h * y.value.itemsize)
        y = [self._tail(ops.getitem(y, s), pv) for s in groups]
        y = ops.concat(y)
        grid = (cfg.u, cfg.v)
        if view is not None:
            i, grid = view[0] * cfg.v + view[1], (1, 1)
            y, x_img = ops.getitem(y, slice(i, i + 1)), ops.getitem(x_img, slice(i, i + 1))
        y = ops.add(y, ops.resize_bicubic(x_img, float(cfg.r)))
        return blocks.images_to_lf(y, (*grid, cfg.r * w, cfg.r * h, 1))

    def forward(self, lf: LfTensor) -> LfTensor:
        """Plain inference; dtype follows the weights."""
        x = Var(lf.data.astype(self.flat.dtype, copy=False))
        out = self.forward_var(x, self.param_vars(None))
        return LfTensor(out.value)


class Network(_SrNet):
    """Many-to-many correlation network."""


class O2OBaseline(_SrNet):
    """Per-view baseline: identical head/tail, isolated spatial transformers."""

    mixes_views = False


def _subview(pv, prefix: str) -> dict:
    return {n[len(prefix):]: v for n, v in pv.items() if n.startswith(prefix)}


# ---------------------------------------------------------------------------
# Construction

def _layers(cfg: NetConfig, patch: int):
    """The one walk of the cfg.arch architecture: (specs, rows, runs).

    specs are param_specs'.  rows hold, for one forward on patch x patch
    views, a (name, flops) row per weight tensor, named like it without
    ".w", and a "<pre>.attention" row per transformer (see count_flops).
    runs is the block stack: per block, in order, a function of the field y
    and the parameter Vars pv, appended beside the block's specs and rows.
    The head and the tail, which every arch shares, are forward_var's own.
    """
    fpm, uv, t = cfg.flops_per_mac, cfg.u * cfg.v, patch * patch
    c, cc, r = cfg.c, cfg.c_cor, cfg.r
    specs, rows, runs = [], [], []

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
            runs.append(lambda y, pv, m=f"{pre}.", a=f"block{j}.ang.":
                        blocks.correlation_block_forward(y, _subview(pv, m), _subview(pv, a)))
        else:
            transformer(f"block{j}.sp", c, t, uv, ffn=True)
            runs.append(lambda y, pv, sp=f"block{j}.sp.": blocks.o2o_spatial_forward(y, _subview(pv, sp)))
    conv("tail.expand", r * r * c, c, 1)
    conv("tail.squeeze", 1, c, 3, uv * r * r * t)
    return specs, rows, runs


def param_specs(cfg: NetConfig) -> list[tuple[str, tuple[int, ...], object]]:
    """(name, dims, init) of every parameter of the cfg.arch net, in registry
    order.  init is the (fan_in, fan_out) of a Glorot-uniform draw, or the
    constant (0 or 1) the tensor starts at; norms start at gain 1, offset 0.
    """
    return _layers(cfg, 1)[0]


_NETS = {"m2m": Network, "o2o": O2OBaseline}


def build(cfg: NetConfig, dtype=np.float32) -> _SrNet:
    """Deterministically initialize the cfg.arch network from cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    net = _NETS[cfg.arch](cfg, np.empty(count_params(cfg)[1], dtype))
    for name, dims, init in param_specs(cfg):
        if isinstance(init, tuple):
            a = np.sqrt(6.0 / (init[0] + init[1]))
            net.params[name][...] = rng.uniform(-a, a, size=dims)
        else:
            net.params[name][...] = init
    return net


def build_o2o(cfg: NetConfig, dtype=np.float32) -> O2OBaseline:
    """Per-view baseline with the same head/tail and sizes."""
    return build(replace(cfg, arch="o2o"), dtype)


# ---------------------------------------------------------------------------
# Analytic cost model

def count_params(cfg: NetConfig):
    """Per-tensor parameter counts in registry order, plus the total, read
    from param_specs: no net is built."""
    rows = [(n, math.prod(dims)) for n, dims, _ in param_specs(cfg)]
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
    if patch < 1:
        raise ValueError("patch must be >= 1")
    rows = _layers(cfg, patch)[1]
    return rows, sum(f for _, f in rows)


# ---------------------------------------------------------------------------
# Configs and weight files

_CONFIG_KEYS = {f.name: type(f.default) for f in fields(NetConfig)}


def parse_config(pairs, where) -> NetConfig:
    """NetConfig from the (key, value) text pairs of a config file or a
    weight header; a field left out keeps its default.

    Integer fields take ASCII digits only: no sign, underscore or other
    script's digit.  An unknown key or a bad value is a ValueError naming
    `where`.
    """
    kw = {}
    for key, val in pairs:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        if _CONFIG_KEYS[key] is int:
            if not (val.isascii() and val.isdigit()):
                raise ValueError(f"{where}: bad value {val!r} for {key!r}")
            val = int(val)
        kw[key] = val
    return NetConfig(**kw)


_W_MAGIC = b"M2MW2"


def _header(cfg: NetConfig, dtype: np.dtype) -> bytes:
    """dtype, then every NetConfig field in order, one key=value line each."""
    lines = [f"dtype={dtype.str}"] + [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)]
    return ("\n".join(lines) + "\n").encode()


def save_weights(path, net: _SrNet) -> None:
    """Write net as an M2MW2 file: the header, then net.flat."""
    dt = net.flat.dtype.newbyteorder("<")
    header = _header(net.cfg, dt)
    with open(path, "wb") as f:
        f.write(_W_MAGIC + len(header).to_bytes(4, "little") + header)
        f.write(np.ascontiguousarray(net.flat, dt))


def net_from_file(path, u: int, v: int, dtype=np.float32):
    """The net a weight file holds, on the input's u x v grid, in dtype.

    The header gives the NetConfig, which fixes the payload's length; the
    payload is read straight into net.flat.  Only m2m parameters depend on
    the grid, so only an m2m file can be refused for another grid.
    """
    with open(path, "rb") as f:
        lead = f.read(9)
        if lead[:5] != _W_MAGIC:
            raise ValueError(f"{path}: not an M2MW2 weight file: bad magic {lead[:5]!r}")
        size = int.from_bytes(lead[5:9], "little")
        header = f.read(size)
        if len(lead) < 9 or len(header) < size:
            raise ValueError(f"{path}: weight file truncated inside its header")
        first, _, rest = header.decode("latin-1").partition("\n")
        if first not in ("dtype=<f4", "dtype=<f8"):
            raise ValueError(f"{path}: weight header must start dtype=<f4 or dtype=<f8, got {first!r}")
        dt = np.dtype(first[6:])
        cfg = parse_config((line.partition("=")[::2] for line in rest.splitlines()), path)
        if _header(cfg, dt) != header:
            raise ValueError(f"{path}: weight header must list every NetConfig field once, in order")
        grid = replace(cfg, u=u, v=v)
        if param_specs(grid) != param_specs(cfg):
            raise ValueError(f"{path}: weights for a {cfg.u}x{cfg.v} grid, input grid is {u}x{v}; wrong --central or grid?")
        need, held = count_params(grid)[1] * dt.itemsize, os.fstat(f.fileno()).st_size - f.tell()
        if held != need:
            raise ValueError(f"{path}: payload holds {held} bytes, the header's net needs {need}")
        return _NETS[cfg.arch](grid, np.fromfile(f, dt).astype(dtype, copy=False))
