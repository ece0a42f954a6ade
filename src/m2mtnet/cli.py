"""Command-line front end: analysis and inference subcommands.

All numeric output is printed to 6 significant digits.  Malformed inputs,
missing files, and dimension mismatches produce a one-line diagnostic on
stderr and a nonzero exit code.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from . import attribution, ensemble, lfio, metrics, network, ops, training
from .autodiff import Var, gradcheck
from .lftensor import LfTensor, write_lft1
from .network import NetConfig

_CONFIG_KEYS = {f.name: type(f.default) for f in fields(NetConfig)}


def _f(x) -> str:
    return f"{x:.6g}"


def _load_config(path) -> NetConfig:
    cfg = NetConfig(**lfio.parse_config_file(path, _CONFIG_KEYS))
    cfg.validate()
    return cfg


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError:
        vals = ()
    if len(vals) != n:
        raise ValueError(f"{what} needs {n} comma-separated integers, got {text!r}")
    return vals


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_init(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    net = network.build(cfg)
    network.save_weights(args.out_weights, net)
    print(f"wrote {args.out_weights}: {cfg.arch} net, {_f(net.num_params() / 1e6)}M params")
    return 0


def _cmd_params(args) -> int:
    cfg = _load_config(args.config)
    net = network.build(cfg)
    rows, total = network.count_params(net)
    width = max(len(n) for n, _ in rows)
    for name, size in rows:
        print(f"{name:<{width}}  {size}")
    blocks_total = sum(net.param_subtotal(f"block{j}.") for j in range(cfg.n2))
    print(f"head+tail params: {total - blocks_total}")
    if cfg.n2 >= 1:
        print(f"per-block params: {net.param_subtotal('block0.')}")
    print(f"total params: {total} ({_f(total / 1e6)}M)")
    return 0


def _cmd_flops(args) -> int:
    cfg = _load_config(args.config)
    rows, total = network.count_flops(cfg, args.patch)
    width = max(len(n) for n, _ in rows)
    for name, fl in rows:
        print(f"{name:<{width}}  {fl}")
    print(f"total flops @ {args.patch}x{args.patch}: {total} ({_f(total / 1e9)}G)")
    return 0


def _cmd_sr(args) -> int:
    lfio.check_maxval(args.maxval)
    lf = lfio.load_lf_dir(args.input, central=args.central)
    net = network.net_from_file(args.weights, lf.u, lf.v)
    if args.scale is not None and args.scale != net.cfg.r:
        raise ValueError(f"--scale {args.scale} but the weight file implies r={net.cfg.r}")
    if args.ensemble:
        out = ensemble.self_ensemble(net.forward, lf)
    else:
        out = net.forward(lf)
    lfio.save_lf_dir(out, args.output, maxval=args.maxval)
    print(
        f"{args.input} ({lf.u}x{lf.v} views {lf.w}x{lf.h}) -> "
        f"{args.output} ({out.w}x{out.h}, x{net.cfg.r}"
        + (", ensemble)" if args.ensemble else ")")
    )
    return 0


def _cmd_metrics(args) -> int:
    a = lfio.load_lf_dir(args.a, central=args.central)
    b = lfio.load_lf_dir(args.b, central=args.central)
    rep = metrics.lf_metrics(a, b)
    print(metrics.format_report(rep))
    for line in metrics.report_lines(rep):
        print(line)
    return 0


def _cmd_lam(args) -> int:
    cfg = attribution.LamConfig(
        window=_parse_ints(args.window, 3, "--window"),
        steps=args.steps,
        sigma=args.sigma,
        sai=_parse_ints(args.sai, 2, "--sai") if args.sai else None,
        literal=(args.mode == "literal"),
    )
    cfg.validate()
    lf = lfio.load_lf_dir(args.input, central=args.central)
    net = network.net_from_file(args.weights, lf.u, lf.v)
    res = attribution.lam(net, lf, cfg)
    print(f"di={_f(res.di)}")
    print(f"gini={_f(res.gini_coeff)}")
    print(f"degenerate={'true' if res.degenerate else 'false'}")
    nonzero = int((res.map.max(axis=(2, 3)) > 0).sum())
    print(f"views_with_support={nonzero}/{lf.u * lf.v}")
    if args.out_map:
        write_lft1(args.out_map, res.map.astype(np.float64))
        print(f"wrote {args.out_map}")
    if args.out_heatmap:
        attribution.save_heatmap_pgm(args.out_heatmap, res.macpi)
        print(f"wrote {args.out_heatmap}")
    return 0


def _gradcheck_battery(seed: int):
    """Per-op and composed-network gradient checks in float64."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float]] = []

    w = rng.standard_normal((6, 4))
    b = rng.standard_normal(4)
    checks.append(
        ("linear", gradcheck(lambda x: ops.vsum(ops.square(ops.linear(x, w, b))), rng.standard_normal((3, 6))))
    )
    k3 = rng.standard_normal((2, 3, 3, 3))
    b3 = rng.standard_normal(2)
    checks.append(
        ("conv2d", gradcheck(lambda x: ops.vsum(ops.square(ops.conv2d(x, k3, b3))), rng.standard_normal((2, 3, 4, 4))))
    )
    checks.append(
        ("softmax", gradcheck(lambda x: ops.vsum(ops.square(ops.softmax(x, -1))), rng.standard_normal((3, 5))))
    )
    ka = rng.standard_normal((4, 3))
    va = rng.standard_normal((4, 5))
    checks.append(
        ("attention", gradcheck(lambda x: ops.vsum(ops.square(ops.attention(x, Var(ka), Var(va)))), rng.standard_normal((4, 3))))
    )
    g = 1.0 + rng.random(4)
    o = rng.standard_normal(4)
    checks.append(
        ("layer_norm", gradcheck(lambda x: ops.vsum(ops.square(ops.layer_norm(x, g, o))), rng.standard_normal((3, 4))))
    )
    checks.append(
        ("leaky_relu", gradcheck(lambda x: ops.vsum(ops.square(ops.leaky_relu(x))), rng.standard_normal((4, 4)) + 0.1))
    )
    checks.append(("gelu", gradcheck(lambda x: ops.vsum(ops.gelu(x)), rng.standard_normal((4, 4)))))
    checks.append(
        ("pixel_shuffle", gradcheck(lambda x: ops.vsum(ops.square(ops.pixel_shuffle(x, 2))), rng.standard_normal((8, 2, 2))))
    )
    checks.append(
        ("bicubic", gradcheck(lambda x: ops.vsum(ops.square(ops.resize_bicubic(x, 2.0))), rng.standard_normal((1, 1, 4, 4))))
    )

    toy = NetConfig(u=2, v=2, c=3, c_cor=5, n1=2, n2=1, r=2)
    net = network.build(toy, np.float64)
    pv = net.param_vars(None)
    x0 = rng.random((2, 2, 4, 4, 1))
    checks.append(
        ("network", gradcheck(lambda x: ops.vsum(net.forward_var(x, pv)), x0))
    )
    hr = rng.random((2, 2, 8, 8, 1))
    # dither so no |.| kink sits within eps of the probe point
    checks.append(
        (
            "network+l1",
            gradcheck(
                lambda x: training.l1_loss(net.forward_var(x, pv), hr),
                x0 + 0.001 * rng.standard_normal(x0.shape),
            ),
        )
    )
    # the conv branches the first conv2d entry (3x3, Cout < Cin) does not reach
    for name, kshape in (("conv2d.1x1", (4, 3, 1, 1)), ("conv2d.up", (4, 2, 3, 3))):
        kc = rng.standard_normal(kshape)
        bc = rng.standard_normal(kshape[0])
        xc = rng.standard_normal((2, kshape[1], 3, 4))
        checks.append((name, gradcheck(lambda x: ops.vsum(ops.square(ops.conv2d(x, kc, bc))), xc)))
        checks.append(
            (f"{name}.k", gradcheck(lambda k: ops.vsum(ops.square(ops.conv2d(xc, k, bc))), kc))
        )
    # the key and value inputs of a batched attention, Tq != Tk, Dv != D
    qb, kb, vb = (rng.standard_normal(s) for s in ((2, 3, 4), (2, 5, 4), (2, 5, 3)))
    checks.append(("attention.k", gradcheck(lambda k: ops.vsum(ops.square(ops.attention(qb, k, vb))), kb)))
    checks.append(("attention.v", gradcheck(lambda v: ops.vsum(ops.square(ops.attention(qb, kb, v))), vb)))
    return checks


def _cmd_gradcheck(args) -> int:
    failed = False
    for name, err in _gradcheck_battery(args.seed):
        tol = 1e-5 if name == "network+l1" else 1e-6
        ok = err <= tol
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name:<12} max rel err {_f(err)} (tol {_f(tol)})")
    return 1 if failed else 0


def _cmd_train_toy(args) -> int:
    cfg = _load_config(args.config)
    hr = lfio.load_lf_dir(args.input, central=args.central)
    if (hr.u, hr.v) != (cfg.u, cfg.v):
        raise ValueError(f"input grid {hr.u}x{hr.v} != config {cfg.u}x{cfg.v}")
    pair = training.make_pair(hr, cfg.r)
    net = network.build(cfg, np.float64)
    tcfg = training.TrainConfig(iters=args.iters, lr=args.lr)
    curve = training.train_toy(net, pair, tcfg)
    print("iter,loss")
    for i, val in enumerate(curve):
        print(f"{i},{_f(val)}")
    if args.out_curve:
        training.write_loss_csv(args.out_curve, curve)
    network.save_weights(args.out_weights, net)
    print(f"final/initial loss: {_f(curve[-1] / curve[0])}")
    print(f"wrote {args.out_weights}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="m2mtnet",
        description="Light-field super-resolution with many-to-many attention: "
        "inference, metrics, attribution, and cost accounting.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="initialize weights from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-weights", required=True)
    p.set_defaults(fn=_cmd_init)

    p = sub.add_parser("params", help="per-tensor parameter counts")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("flops", help="per-layer flop counts for one forward")
    p.add_argument("--config", required=True)
    p.add_argument("--patch", type=int, default=32)
    p.set_defaults(fn=_cmd_flops)

    p = sub.add_parser("sr", help="super-resolve a light-field directory")
    p.add_argument("--weights", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--scale", type=int, default=None, help="cross-check against the weights")
    p.add_argument("--ensemble", action="store_true", help="geometric self-ensemble")
    p.add_argument("--central", type=int, default=None, help="keep the central KxK views")
    p.add_argument("--maxval", type=int, default=255, help="output quantization (255 or 65535)")
    p.set_defaults(fn=_cmd_sr)

    p = sub.add_parser("metrics", help="PSNR/SSIM between two view directories")
    p.add_argument("--a", required=True, help="reconstruction directory")
    p.add_argument("--b", required=True, help="reference directory")
    p.add_argument("--central", type=int, default=None)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("lam", help="local attribution map for one output window")
    p.add_argument("--weights", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--window", required=True, help="x,y,l in output-view pixels")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--sigma", type=float, default=4.0)
    p.add_argument("--sai", default=None, help="u,v of the probed view (default central)")
    p.add_argument("--mode", choices=("literal", "standard"), default="literal")
    p.add_argument("--central", type=int, default=None)
    p.add_argument("--out-map", default=None, help="write the (U,V,W,H) map as a tensor file")
    p.add_argument("--out-heatmap", default=None, help="write the macro-pixel map as PGM")
    p.set_defaults(fn=_cmd_lam)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op and a toy net")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("train-toy", help="overfit one pair to prove the training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True, help="high-resolution view directory")
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--central", type=int, default=None)
    p.add_argument("--out-curve", default=None, help="also write the loss curve CSV here")
    p.add_argument("--out-weights", required=True)
    p.set_defaults(fn=_cmd_train_toy)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
