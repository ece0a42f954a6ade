"""Single-pair overfitting loop: enough machinery to prove the gradients and
optimizer drive the loss down, not a full training harness."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .autodiff import Tape, Var
from .lftensor import LfTensor

__all__ = [
    "TrainConfig",
    "AdamState",
    "make_pair",
    "l1_loss",
    "adam_step",
    "train_toy",
    "write_loss_csv",
]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-4
    iters: int = 300

    def __post_init__(self) -> None:
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")


def make_pair(hr: LfTensor, r: int) -> tuple[LfTensor, LfTensor]:
    """The (lr, hr) training pair: hr bicubic-downsampled by r on its stored (W, H) axes."""
    if r < 1:
        raise ValueError(f"downsample factor must be >= 1, got {r}")
    if hr.w % r or hr.h % r:
        raise ValueError(f"view dims {hr.w}x{hr.h} not divisible by r={r}")
    lr = ops.resize_bicubic(np.moveaxis(hr.data, 4, 0), 1.0 / r).value
    return LfTensor(np.moveaxis(lr, 0, 4)), hr


def l1_loss(pred: Var, target: np.ndarray) -> Var:
    """Mean absolute error, differentiable w.r.t. pred."""
    return ops.vmean(ops.vabs(ops.sub(pred, Var(np.asarray(target)))))


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place.

    Zero gradients leave parameters unchanged (moments only decay).
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"grad dims {g.shape} != param dims {p.shape} for {name!r}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.m[name] = m
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1**t)
        vhat = v / (1 - ADAM_BETA2**t)
        p -= cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def train_toy(net, pair: tuple[LfTensor, LfTensor], cfg: TrainConfig) -> list[float]:
    """Overfit net on one (lr, hr) pair under the L1 loss; returns the
    per-iteration loss curve.

    Runs in float64 for numerically clean gradients: once the pair has
    passed net.check_input (LR) and matched (U, V, r*W, r*H, 1) (HR), a
    float32 net.flat is cast up, and Adam updates net.params in place.
    Non-finite loss aborts with a diagnostic rather than continuing.
    """
    lr_lf, hr_lf = pair
    net.check_input(lr_lf.data.shape)
    r = net.cfg.r
    want = (lr_lf.u, lr_lf.v, r * lr_lf.w, r * lr_lf.h, 1)
    if hr_lf.data.shape != want:
        raise ValueError(f"HR field dims {hr_lf.data.shape} != {want}: the LR grid, {r}x its view size, 1 channel")
    net.set_flat(net.flat.astype(np.float64, copy=False))
    x_const = lr_lf.data.astype(np.float64)
    target = hr_lf.data.astype(np.float64)
    state = AdamState()
    curve: list[float] = []
    for it in range(cfg.iters):
        tape = Tape()
        pv = net.param_vars(tape)
        out = net.forward_var(Var(x_const), pv)
        loss = l1_loss(out, target)
        val = float(loss.value)
        if not np.isfinite(val):
            raise FloatingPointError(f"loss diverged to {val} at iteration {it}")
        curve.append(val)
        tape.backward(loss, np.float64(1.0))
        adam_step(net.params, {n: pv[n].grad for n in net.params}, state, cfg)
    return curve


def write_loss_csv(path, curve: list[float]) -> None:
    lines = ["iter,loss"] + [f"{i},{v:.6g}" for i, v in enumerate(curve)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
