"""Geometric self-ensemble over the light field's dihedral symmetries.

A light field has eight label-preserving symmetries: horizontal flip,
vertical flip, and transpose, in any combination.  Crucially each spatial
action must be paired with the matching angular action — flipping x without
flipping u would scramble the epipolar geometry — so flips and transpose act
on both axis pairs jointly.

self_ensemble averages F over the orbit: mean_i T_i^-1(F(T_i(x))).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .lftensor import LfTensor

__all__ = ["LfTransform", "all_transforms", "apply_transform", "invert", "self_ensemble"]


@dataclass(frozen=True)
class LfTransform:
    """One dihedral element in canonical form: transpose first, then flips.

    flip_x reverses x and u together; flip_y reverses y and v; transpose
    swaps (x, y) and (u, v) and needs U == V and W == H.
    """

    flip_x: bool = False
    flip_y: bool = False
    transpose: bool = False


def all_transforms() -> tuple[LfTransform, ...]:
    """The full 8-element group, identity first."""
    return tuple(
        LfTransform(fx, fy, tr)
        for tr, fx, fy in product((False, True), repeat=3)
    )


def apply_transform(t: LfTransform, lf: LfTensor) -> LfTensor:
    data = lf.data
    if t.transpose:
        if lf.u != lf.v or lf.w != lf.h:
            raise ValueError(
                f"transpose needs U==V and W==H, got {lf.u}x{lf.v} views of {lf.w}x{lf.h}"
            )
        data = data.transpose(1, 0, 3, 2, 4)
    axes = []
    if t.flip_x:
        axes += [0, 2]  # u with x
    if t.flip_y:
        axes += [1, 3]  # v with y
    if axes:
        data = np.flip(data, axes)
    return LfTensor(np.ascontiguousarray(data))


def invert(t: LfTransform) -> LfTransform:
    """Inverse in canonical form.

    flips-then-transpose-inverse reorders to transpose-then-flips, which
    swaps the two flip flags when a transpose is present.
    """
    if t.transpose:
        return LfTransform(flip_x=t.flip_y, flip_y=t.flip_x, transpose=True)
    return t


def _pairwise_sum(arrays: list) -> np.ndarray:
    # balanced tree: for 2^k equal addends every add is an exact doubling
    if len(arrays) == 1:
        return arrays[0]
    mid = len(arrays) // 2
    return _pairwise_sum(arrays[:mid]) + _pairwise_sum(arrays[mid:])


def self_ensemble(forward_fn, lr: LfTensor) -> LfTensor:
    """Average forward_fn over transformed inputs, mapped back.

    forward_fn: LfTensor -> LfTensor.  All eight elements are used; a field
    with U != V or W != H has no transpose, so it gets the four flip-only
    elements.  Outputs are summed pairwise in float64 and divided once, so
    identical per-transform outputs average to themselves bit-exactly.
    """
    transforms = all_transforms()
    if lr.u != lr.v or lr.w != lr.h:
        transforms = tuple(t for t in transforms if not t.transpose)
    outs = [
        apply_transform(invert(t), forward_fn(apply_transform(t, lr))).data.astype(np.float64)
        for t in transforms
    ]
    return LfTensor(_pairwise_sum(outs) / len(outs))
