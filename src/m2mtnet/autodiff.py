"""Tape-based reverse-mode differentiation over numpy arrays.

Define-by-run: each differentiable op (see the ops module) computes its value
eagerly and appends a record (output, parents, vjp) to the tape.  backward()
replays the records once in reverse, pushing vector-Jacobian products from
each output's accumulated gradient into its parents.  Fan-out is handled by
addition: a Var consumed twice receives both contributions.

A record keeps no value alive.  It holds the gradient slots of its output
and of its taped parents (see Var), not the Vars, so an activation lives on
only if a vjp closure keeps it: each vjp keeps the arrays its math reads and
nothing else.  A tape records one forward and is spent by one backward:
replay pops each record, so an op's saved arrays and the gradients only it
referenced are freed as soon as they have been used.  A spent tape refuses
a second backward and any further record.

A Var may belong to at most one tape; ops refuse to mix Vars from different
tapes.  Vars created without a tape act as constants: they flow through ops
but record nothing on their own, and get no gradient.  backward() gives a
constant parent nothing, and the ops' vjps skip computing its gradient, so
a forward whose parameters are constants (attribution) pays only for the
gradients it reads.  To train a parameter, put it on the tape.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["Var", "Tape", "gradcheck", "rel_error"]


class _Slot:
    """Where one Var's gradient accumulates: the Var and the records of its
    tape share it, so a record can take a gradient without keeping the
    Var's value alive."""

    __slots__ = ("_grad", "dims")

    def __init__(self, dims: tuple[int, ...]):
        self._grad = None
        self.dims = dims

    def add(self, g: np.ndarray) -> None:
        """Accumulate g; the first contribution is stored as is, later ones
        add out of place, so an array another slot holds is never written."""
        if g.shape != self.dims:
            raise ValueError(f"vjp produced dims {g.shape} for parent of dims {self.dims}")
        self._grad = g if self._grad is None else self._grad + g


class Var:
    """A value in the computation: ndarray payload plus gradient slot.

    grad always has the same dims as value and starts at zeros (allocated
    lazily so constant-only forward passes stay cheap).  A constant, a Var
    without a tape, keeps zeros: backward never gives it a gradient.  Nor
    need it give one to a taped Var whose gradient is exactly zero (see
    Tape); grad reads zeros there all the same.  A taped Var's gradient
    lives in a slot that its tape's records share; a constant gets one only
    when grad is read or set.  An op's value may be a view of, or share
    memory with, its inputs; grad may share memory with other Vars'
    gradients (a vjp may hand one array to several parents).  So neither
    may be written in place.
    """

    __slots__ = ("value", "tape", "_slot")

    def __init__(self, value, tape: Optional["Tape"] = None):
        self.value = np.asarray(value)
        self.tape = tape
        self._slot = None if tape is None else _Slot(self.value.shape)

    @property
    def _grad(self) -> np.ndarray | None:
        return None if self._slot is None else self._slot._grad

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self.grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, g) -> None:
        g = np.asarray(g)
        if g.shape != self.value.shape:
            raise ValueError(f"grad dims {g.shape} != value dims {self.value.shape}")
        if self._slot is None:
            self._slot = _Slot(g.shape)
        self._slot._grad = g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self) -> str:
        return f"Var(dims={self.value.shape}, dtype={self.value.dtype}, tape={self.tape is not None})"


class Tape:
    """Ordered record of ops for one forward pass, spent by one backward.

    Records are appended in execution order, so every parent Var was created
    before the record that consumes it; replaying in reverse is a valid
    topological order for backpropagation.  A record holds gradient slots,
    not Vars: its output's, and one per parent, None for a constant.
    len(tape) counts the records not yet replayed: 0 once backward has run.
    A record's vjp may return None for a parent, and should for a constant
    parent (tape None), whose gradient backward drops anyway.  It may also
    return None for a taped parent whose gradient is exactly zero, as the
    conv2d and attention vjps do when their whole output gradient is.  A
    record whose output received no gradient at all is dropped without
    running its vjp, so a branch that does not reach the output, or reaches
    it only through such Nones, costs nothing backward; its Vars' grad
    reads zeros.
    """

    def __init__(self):
        # (output slot, per-parent slots, vjp: g_out -> per-parent grads);
        # None once backward has spent the tape
        self._records: list[tuple[_Slot, tuple, Callable]] | None = []

    def record(self, out: Var, parents: Sequence[Var], vjp: Callable) -> None:
        if self._records is None:
            raise ValueError("tape is spent: its backward has run, so it records nothing more")
        slots = tuple(None if p is None or p.tape is None else p._slot for p in parents)
        self._records.append((out._slot, slots, vjp))

    def __len__(self) -> int:
        return 0 if self._records is None else len(self._records)

    def backward(self, output: Var, seed) -> None:
        """Accumulate d(seed . output)/d(leaf) into .grad of every reachable
        Var on this tape; constants get nothing.

        seed must match output's dims.  Each record's vjp runs at most once,
        in reverse execution order, and only if its output received a
        gradient; the record is dropped before the next one runs.  The
        output and seed are checked before anything is consumed; from then
        on the tape is spent, even if a vjp raises.
        """
        if output.tape is not self:
            raise ValueError("output does not belong to this tape")
        if self._records is None:
            raise ValueError("tape is spent: backward already ran on it")
        seed = np.asarray(seed, dtype=output.value.dtype)
        if seed.shape != output.value.shape:
            raise ValueError(f"seed dims {seed.shape} != output dims {output.value.shape}")
        records, self._records = self._records, None
        output._slot.add(seed)
        while records:
            out, parents, vjp = records.pop()
            if out._grad is None:
                continue  # no gradient reached out: its parents get none from it
            for p, g in zip(parents, vjp(out._grad)):
                if p is not None and g is not None:
                    p.add(g)


def rel_error(a: float, n: float) -> float:
    """|a - n| / max(|a|, |n|, 1e-8), the symmetric relative error."""
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def gradcheck(f, point: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between taped and central-difference gradients.

    f maps a Var holding an array like `point` to a scalar Var.  The check
    runs in float64 regardless of the input dtype and probes every
    coordinate: numeric = (f(x + eps*e_i) - f(x - eps*e_i)) / (2*eps).
    Non-finite analytic or numeric values raise with the coordinate named.
    """
    point = np.asarray(point, dtype=np.float64)
    tape = Tape()
    x = Var(point.copy(), tape)
    out = f(x)
    if out.value.shape != ():
        raise ValueError(f"gradcheck needs a scalar-valued f, got dims {out.value.shape}")
    tape.backward(out, np.float64(1.0))
    analytic = x.grad
    if not np.all(np.isfinite(analytic)):
        bad = np.argwhere(~np.isfinite(analytic))[0]
        raise FloatingPointError(f"non-finite analytic gradient at index {tuple(bad)}")

    worst = 0.0
    it = np.nditer(point, flags=["multi_index"], order="C")
    for _ in it:
        idx = it.multi_index
        xp = point.copy()
        xp[idx] += eps
        fp = float(f(Var(xp)).value)
        xm = point.copy()
        xm[idx] -= eps
        fm = float(f(Var(xm)).value)
        numeric = (fp - fm) / (2.0 * eps)
        if not np.isfinite(numeric):
            raise FloatingPointError(f"non-finite numeric gradient at index {idx}")
        worst = max(worst, rel_error(float(analytic[idx]), numeric))
    return worst
