"""Command-line front end: analysis and inference subcommands.

All numeric output is printed to 6 significant digits, except JSON output
(`metrics --json`, `lam --json`), which keeps full float precision; an
infinite PSNR is null there.  Malformed inputs,
missing files, and dimension mismatches produce a one-line diagnostic on
stderr and a nonzero exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import attribution, ensemble, lfio, metrics, network, ops, training
from .autodiff import Var, gradcheck
from .network import NetConfig

def _f(x) -> str:
    return f"{x:.6g}"


def _load_config(path) -> NetConfig:
    return network.parse_config(lfio.read_kv_file(path), path)


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    """n comma-separated integers of ASCII digits: no sign, space,
    underscore or other script's digit."""
    parts = text.split(",")
    if len(parts) != n or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"{what} needs {n} comma-separated integers, got {text!r}")
    return tuple(map(int, parts))


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_init(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    network.save_weights(args.out_weights, network.build(cfg))
    print(f"wrote {args.out_weights}: {cfg.arch} net, {_f(network.count_params(cfg)[1] / 1e6)}M params")
    return 0


def _cmd_params(args) -> int:
    cfg = _load_config(args.config)
    rows, total = network.count_params(cfg)
    width = max(len(n) for n, _ in rows)
    for name, size in rows:
        print(f"{name:<{width}}  {size}")
    print(f"head+tail params: {sum(s for n, s in rows if not n.startswith('block'))}")
    print(f"per-block params: {sum(s for n, s in rows if n.startswith('block0.'))}")
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
        raise ValueError(f"--scale {args.scale} but the weight file holds r={net.cfg.r}")
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


def _json_float(x: float) -> float | None:
    """x, or None (JSON null) for the +inf PSNR of identical views: JSON
    has no infinity."""
    return float(x) if np.isfinite(x) else None


def _cmd_metrics(args) -> int:
    a = lfio.load_lf_dir(args.a, central=args.central)
    b = lfio.load_lf_dir(args.b, central=args.central)
    rep = metrics.lf_metrics(a, b)
    if args.json:
        grid = lambda g: [[_json_float(x) for x in row] for row in g]
        report = {
            "psnr_mean": _json_float(rep.psnr_mean),
            "ssim_mean": _json_float(rep.ssim_mean),
            "mse": rep.mse,
            "u": a.u,
            "v": a.v,
            "psnr": grid(rep.psnr_grid),
            "ssim": grid(rep.ssim_grid),
        }
        print(json.dumps(report, allow_nan=False))
        return 0
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
    lf = lfio.load_lf_dir(args.input, central=args.central)
    net = network.net_from_file(args.weights, lf.u, lf.v)
    res = attribution.lam(net, lf, cfg)
    nonzero = int((res.map.max(axis=(2, 3)) > 0).sum())
    if not args.json:
        print(f"di={_f(res.di)}")
        print(f"gini={_f(res.gini_coeff)}")
        print(f"degenerate={'true' if res.degenerate else 'false'}")
        print(f"views_with_support={nonzero}/{lf.u * lf.v}")
    if args.out_map:
        # np.save given a path would append ".npy"; write exactly the path named
        with open(args.out_map, "wb") as f:
            np.save(f, res.map, allow_pickle=False)
        print(f"wrote {args.out_map}")
    if args.out_heatmap:
        attribution.save_heatmap_pgm(args.out_heatmap, res.macpi)
        print(f"wrote {args.out_heatmap}")
    if args.json:
        report = {
            "di": res.di,
            "gini": res.gini_coeff,
            "degenerate": res.degenerate,
            "views_with_support": nonzero,
            "u": lf.u,
            "v": lf.v,
            "steps": cfg.steps,
            "mode": args.mode,
        }
        print(json.dumps(report))
    return 0


def _gradcheck_battery(seed: int):
    """Per-op and composed-network gradient checks in float64.

    Yields (name, max relative error, tolerance).  The tolerance is 1e-6,
    except 1e-5 for the composed L1 loss, whose |.| kinks cost the central
    difference some accuracy.
    """
    rng = np.random.default_rng(seed)

    def check(name, f, x, tol=1e-6):
        return name, gradcheck(f, x), tol

    def sumsq(v):
        return ops.vsum(ops.square(v))

    w = rng.standard_normal((6, 4))
    b = rng.standard_normal(4)
    yield check("linear", lambda x: sumsq(ops.linear(x, w, b)), rng.standard_normal((3, 6)))
    k3 = rng.standard_normal((2, 3, 3, 3))
    b3 = rng.standard_normal(2)
    yield check("conv2d", lambda x: sumsq(ops.conv2d(x, k3, b3)), rng.standard_normal((2, 3, 4, 4)))
    yield check("softmax", lambda x: sumsq(ops.softmax(x, -1)), rng.standard_normal((3, 5)))
    ka = rng.standard_normal((4, 3))
    va = rng.standard_normal((4, 5))
    yield check("attention", lambda x: sumsq(ops.attention(x, Var(ka), Var(va))), rng.standard_normal((4, 3)))
    g = 1.0 + rng.random(4)
    o = rng.standard_normal(4)
    yield check("layer_norm", lambda x: sumsq(ops.layer_norm(x, g, o)), rng.standard_normal((3, 4)))
    yield check("leaky_relu", lambda x: sumsq(ops.leaky_relu(x)), rng.standard_normal((4, 4)) + 0.1)
    yield check("gelu", lambda x: ops.vsum(ops.gelu(x)), rng.standard_normal((4, 4)))
    yield check("pixel_shuffle", lambda x: sumsq(ops.pixel_shuffle(x, 2)), rng.standard_normal((8, 2, 2)))
    yield check("bicubic", lambda x: sumsq(ops.resize_bicubic(x, 2.0)), rng.standard_normal((1, 1, 4, 4)))

    toy = NetConfig(u=2, v=2, c=3, c_cor=5, n1=2, n2=1, r=2)
    net = network.build(toy, np.float64)
    pv = net.param_vars(None)
    x0 = rng.random((2, 2, 4, 4, 1))
    yield check("network", lambda x: ops.vsum(net.forward_var(x, pv)), x0)
    hr = rng.random((2, 2, 8, 8, 1))
    # dither so no |.| kink sits within eps of the probe point
    x1 = x0 + 0.001 * rng.standard_normal(x0.shape)
    yield check("network+l1", lambda x: training.l1_loss(net.forward_var(x, pv), hr), x1, tol=1e-5)
    # the conv branches the first conv2d entry (3x3, Cout < Cin) does not reach
    for name, kshape in (("conv2d.1x1", (4, 3, 1, 1)), ("conv2d.up", (4, 2, 3, 3))):
        kc = rng.standard_normal(kshape)
        bc = rng.standard_normal(kshape[0])
        xc = rng.standard_normal((2, kshape[1], 3, 4))
        yield check(name, lambda x: sumsq(ops.conv2d(x, kc, bc)), xc)
        yield check(f"{name}.k", lambda k: sumsq(ops.conv2d(xc, k, bc)), kc)
    # the key and value inputs of a batched attention, Tq != Tk, Dv != D
    qb, kb, vb = (rng.standard_normal(s) for s in ((2, 3, 4), (2, 5, 4), (2, 5, 3)))
    yield check("attention.k", lambda k: sumsq(ops.attention(qb, k, vb)), kb)
    yield check("attention.v", lambda v: sumsq(ops.attention(qb, kb, v)), vb)
    # concat between two constants, under weights in [1, 2]: a misplaced slice shows
    ca, wc = rng.standard_normal((1, 3)), 1.0 + rng.random((5, 3))
    yield check("concat", lambda x: ops.vsum(ops.mul(ops.concat([ca, x, ca]), wc)), rng.standard_normal((3, 3)))


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    failed = False
    for name, err, tol in _gradcheck_battery(args.seed):
        ok = err <= tol
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name:<12} max rel err {_f(err)} (tol {_f(tol)})")
    return 1 if failed else 0


def _cmd_train_toy(args) -> int:
    cfg = _load_config(args.config)
    tcfg = training.TrainConfig(iters=args.iters, lr=args.lr)
    hr = lfio.load_lf_dir(args.input, central=args.central)
    pair = training.make_pair(hr, cfg.r)
    net = network.build(cfg, np.float64)
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
    p.add_argument("--json", action="store_true", help="report as one JSON object, the last stdout line")
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
    p.add_argument("--out-map", default=None, help="write the float64 (U,V,W,H) map as a NumPy .npy file")
    p.add_argument("--out-heatmap", default=None, help="write the macro-pixel map as PGM")
    p.add_argument("--json", action="store_true", help="report as one JSON object, the last stdout line")
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
