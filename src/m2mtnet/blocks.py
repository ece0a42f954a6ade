"""Correlation blocks: many-to-many spatial attention plus angular attention.

The many-to-many sub-block merges every view of each pixel into one channel
vector (W*H tokens of dim U*V*C), linearly encodes that vector into a
correlation space of dim C_Cor, runs spatial self-attention there, and
decodes back — so each output pixel of each view attends to *all* pixels of
*all* views.  A per-view baseline with the same head/tail (see network) keeps
views isolated instead; the contrast between the two is the point.

The angular sub-block complements it: per spatial location, the U*V views
form the token sequence and attention mixes them at channel dim C.

All forwards here operate on a Var holding the raw (U, V, W, H, C) array,
whose shape gives the light-field dims, and a flat name->Var parameter
mapping; the network module owns parameter storage and prefixes.  Every
transformer sub-block has one fixed design: pre-norm q/k/v attention with an
output projection, plus a pre-norm feed-forward layer of width 2*D in the
many-to-many and per-view sub-blocks (the angular one has none).
"""
from __future__ import annotations

import numpy as np

from . import ops
from .autodiff import Var
from .lftensor import LAYOUTS, layout_shape

__all__ = [
    "lf_to_merged",
    "merged_to_lf",
    "lf_to_images",
    "images_to_lf",
    "spatial_self_attention",
    "m2mt_forward",
    "angular_forward",
    "correlation_block_forward",
    "o2o_spatial_forward",
]


# ---------------------------------------------------------------------------
# Layouts on Vars, from the lftensor table.  The raw side is always the
# (u, v, w, h, c) array: _to reads its dims from x, _from is given them.
# A layout's unit axes (the one instance of `merged`) are left out here.

_IDENTITY = (0, 1, 2, 3, 4)


def _to(x: Var, name: str) -> Var:
    order, groups = LAYOUTS[name]
    shape = layout_shape(name, x.shape)
    if order != _IDENTITY:
        x = ops.transpose(x, order)
    return ops.reshape(x, tuple(s for s, g in zip(shape, groups) if g))


def _from(x: Var, name: str, dims) -> Var:
    order, _ = LAYOUTS[name]
    x = ops.reshape(x, tuple(dims[a] for a in order))
    if order == _IDENTITY:
        return x
    return ops.transpose(x, tuple(np.argsort(order).tolist()))


def lf_to_merged(x: Var) -> Var:
    """(U,V,W,H,C) -> (W*H, U*V*C): pixel tokens carrying all views."""
    return _to(x, "merged")


def merged_to_lf(x: Var, dims) -> Var:
    return _from(x, "merged", dims)


def lf_to_images(x: Var) -> Var:
    """(U,V,W,H,C) -> (U*V, C, H, W) channel-first image batch for convs."""
    return _to(x, "images")


def images_to_lf(x: Var, dims) -> Var:
    return _from(x, "images", dims)


# ---------------------------------------------------------------------------
# Sub-block pieces.  An activation is freed once no name holds it, so each
# stage drops its input as soon as its last reader has run: a step rebinds
# its name, and a value read by several steps belongs to a helper frame that
# returns only what comes next (_qkv).  Neither relies on a nested call
# handing its argument to the callee: CPython 3.11 drops the caller's
# reference then, 3.10 keeps it on the caller's stack until the call
# returns.  A caller still holds what it passes in, so a block's input
# lives through the block, as the outer skip needs it anyway.

def _qkv(t: Var, p: dict) -> tuple[Var, Var, Var]:
    """q, k and v of the normalized t; the normalized tokens go on return."""
    a = ops.layer_norm(t, p["att_norm.g"], p["att_norm.b"])
    return tuple(ops.linear(a, p[f"{n}.w"], p[f"{n}.b"]) for n in "qkv")


def spatial_self_attention(t: Var, p: dict) -> Var:
    """Pre-norm self-attention over the tokens of t (..., T, D), residual added.

    Attention reads the normalized stream and its output is projected; the
    residual adds to the raw stream.  The one attention body of all three
    sub-block types; the leading axes batch independent sequences.
    """
    att = ops.attention(*_qkv(t, p))
    att = ops.linear(att, p["proj.w"], p["proj.b"])
    return ops.add(t, att)


def _ffn(x: Var, p: dict) -> Var:
    f = ops.layer_norm(x, p["ffn_norm.g"], p["ffn_norm.b"])
    f = ops.linear(f, p["ffn1.w"], p["ffn1.b"])
    f = ops.gelu(f)
    f = ops.linear(f, p["ffn2.w"], p["ffn2.b"])
    return ops.add(x, f)


def m2mt_forward(x: Var, p: dict) -> Var:
    """One many-to-many sub-block over a light field Var.

    Two per-view 3x3 convs inject spatial position; then the views of each
    pixel are merged into one channel vector and encoded to correlation space
    (W*H tokens of dim C_Cor), attention(+residual) and feed-forward(+residual)
    run there, and the decoded field is added back to the conv-enriched
    input.  With zero weights the whole sub-block is the identity.
    """
    base = ops.conv2d(lf_to_images(x), p["pos1.w"], p["pos1.b"])
    base = ops.conv2d(base, p["pos2.w"], p["pos2.b"])
    base = ops.add(x, images_to_lf(base, x.shape))
    i_cor = ops.linear(lf_to_merged(base), p["encode.w"], p["encode.b"])
    i_cor = spatial_self_attention(i_cor, p)
    i_cor = _ffn(i_cor, p)
    i_cor = ops.linear(i_cor, p["decode.w"], p["decode.b"])
    return ops.add(base, merged_to_lf(i_cor, x.shape))


def angular_forward(x: Var, p: dict) -> Var:
    """One angular sub-block: per-pixel attention across the U*V views.

    Tokens are the views of one spatial location (dim C), batched over all
    W*H locations; a learned per-view embedding marks angular position.
    There is no feed-forward layer here.  Every step works per pixel, so
    on some columns of a field it gives those columns of the whole field's
    output, bit for bit: correlation_block_forward runs it per chunk of
    columns.
    """
    t = ops.add(_to(x, "angular"), p["pos_embed"])
    t = spatial_self_attention(t, p)
    return _from(t, "angular", x.shape)


# (U*V, C) token arrays of its pixels an angular chunk holds while its
# attention runs: the tokens, q, k, v and the attention output
_CHUNK_TOKEN_ARRAYS = 5


def _column_chunks(x: Var) -> list[tuple[slice, slice, slice]]:
    """Indexes of consecutive spatial columns (W) of the field x, as many
    per chunk as keep the chunk's _CHUNK_TOKEN_ARRAYS token arrays within
    the ops chunk budget (ops.batch_slices), at least one."""
    u, v, w, h, c = x.shape
    column = _CHUNK_TOKEN_ARRAYS * u * v * h * c * x.value.itemsize
    return [(slice(None), slice(None), s) for s in ops.batch_slices(w, column)]


def correlation_block_forward(x: Var, pm: dict, pa: dict) -> Var:
    """Many-to-many sub-block, then angular sub-block, plus an outer skip.

    The angular sub-block runs per chunk of columns (_column_chunks),
    sliced by ops.getitem and joined by ops.concat, so its q, k, v and
    attention exist for one chunk at a time; the many-to-many output goes
    when the last chunk has run, before the join.
    """
    y = m2mt_forward(x, pm)
    y = [angular_forward(ops.getitem(y, i), pa) for i in _column_chunks(y)]
    y = ops.concat(y, axis=2)
    return ops.add(y, x)


def o2o_spatial_forward(x: Var, p: dict) -> Var:
    """Per-view spatial transformer: attention over W*H pixel tokens at dim C,
    each view processed independently (batched over U*V)."""
    t = spatial_self_attention(_to(x, "spatial"), p)
    t = _ffn(t, p)
    return _from(t, "spatial", x.shape)
