"""Acceptance gate: ten end-to-end criteria, one test (= one pass/fail line
under pytest -v) per criterion, with tolerances and runtime budgets pinned.

Numbers that the architecture fixes exactly (parameter and flop totals) are
additionally pinned to their exact values as a regression net; windowed
tolerances come first so a true acceptance failure reads as such.
"""

import time

import numpy as np
import pytest

from m2mtnet import attribution, cli, ensemble, lftensor, metrics, network, ops, training
from m2mtnet.attribution import LamConfig
from m2mtnet.autodiff import Var
from m2mtnet.lftensor import LfTensor
from m2mtnet.network import NetConfig


class _Budget:
    """Context manager asserting a wall-clock budget for one criterion."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeds {self.limit}s budget"
        return False


def _within(value, target, frac):
    assert abs(value - target) <= frac * target, (
        f"{value} outside +/-{frac:.0%} of {target}"
    )


def _plaid_lf(u, v, w, h, ampx=0.25, ampy=0.2, shift=0.5):
    """Smooth deterministic field with per-view disparity-like shifts."""
    data = np.empty((u, v, w, h, 1))
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    for uu in range(u):
        for vv in range(v):
            img = (
                0.5
                + ampx * np.sin(2 * np.pi * (xs[:, None] + shift * (uu - u // 2)) / w)
                + ampy * np.cos(2 * np.pi * (ys[None, :] + shift * (vv - v // 2)) / h)
            )
            data[uu, vv, :, :, 0] = img
    return LfTensor(data)


class TestAcceptance:
    def test_criterion_01_parameter_accounting(self):
        """Default 4x config: ~3.986M total, ~486K/block, ~0.100M head+tail."""
        with _Budget(1.0):
            cfg = NetConfig()
            assert (cfg.c, cfg.c_cor, cfg.n1, cfg.n2, cfg.u, cfg.v, cfg.r) == (
                48, 128, 4, 8, 5, 5, 4,
            )
            rows, total = network.count_params(cfg)
            per_block = sum(s for n, s in rows if n.startswith("block0."))
            head_tail = sum(s for n, s in rows if not n.startswith("block"))
            _within(total, 3.986e6, 0.10)
            _within(per_block, 486e3, 0.10)
            _within(head_tail, 0.100e6, 0.10)
            # exact pins for regression
            assert total == 4_047_137
            assert per_block == 493_280
            assert head_tail == 100_897
            net = network.build(cfg)
            assert sum(a.size for a in net.params.values()) == total

    def test_criterion_02_flop_accounting(self):
        """32x32 patch at 8 blocks: ~33.85G total, ~3.89G per block."""
        with _Budget(1.0):
            cfg = NetConfig()
            _, total = network.count_flops(cfg, 32)
            _, total9 = network.count_flops(NetConfig(**{**cfg.__dict__, "n2": 9}), 32)
            per_block = total9 - total
            _within(total, 33.85e9, 0.20)
            _within(per_block, 3.89e9, 0.20)
            assert total == 38_736_502_784
            assert per_block == 4_161_000_448

    def test_criterion_03_receptive_field_dichotomy(self):
        """One bumped pixel reaches all 25 views many-to-many, 1 view per-view."""
        with _Budget(10.0):
            cfg = NetConfig(u=5, v=5, c=16, c_cor=32, n1=2, n2=2, r=2, seed=0)
            rng = np.random.default_rng(1)
            base = rng.random((5, 5, 16, 16, 1))
            bumped = base.copy()
            bumped[2, 2, 7, 8, 0] += 1.0

            m2m = network.build(cfg, np.float64)
            d_m2m = np.abs(
                m2m.forward(LfTensor(bumped)).data - m2m.forward(LfTensor(base)).data
            )
            per_view = d_m2m.max(axis=(2, 3, 4))
            assert np.all(per_view > 1e-9), "many-to-many must touch every view"

            o2o = network.build_o2o(cfg, np.float64)
            a = o2o.forward(LfTensor(base)).data
            b = o2o.forward(LfTensor(bumped)).data
            d_o2o = np.abs(b - a).max(axis=(2, 3, 4))
            assert d_o2o[2, 2] > 1e-9
            changed = int((d_o2o > 0).sum())
            assert changed == 1, f"baseline touched {changed} views, expected 1"
            mask = np.ones((5, 5), dtype=bool)
            mask[2, 2] = False
            assert np.array_equal(a[mask], b[mask]), "untouched views must be bit-identical"

    def test_criterion_04_gradient_correctness(self):
        """Every op and the composed toy network pass finite differences."""
        with _Budget(60.0):
            tols = {}
            for name, err, tol in cli._gradcheck_battery(seed=0):
                assert err <= tol, f"{name}: rel err {err:.3g} > {tol}"
                tols[name] = tol
            # exact pins: the composed L1 loss at 1e-5, every other check at 1e-6
            assert tols.pop("network+l1") == 1e-5
            assert set(tols.values()) == {1e-6}

    def test_criterion_05_subspace_bijections(self):
        """Six views round-trip bit-exactly; element placement is exhaustive."""
        with _Budget(5.0):
            views = ("spatial", "angular", "epi_h", "epi_v", "merged", "macpi")
            rng = np.random.default_rng(2)
            sizes = (1, 2, 3, 5)
            for _ in range(80):
                u, v, w, h, c = (int(rng.choice(sizes)) for _ in range(5))
                lf = LfTensor(rng.standard_normal((u, v, w, h, c)))
                for name in views:
                    back = lftensor.from_layout(name, lftensor.to_layout(name, lf), u, v, w, h)
                    np.testing.assert_array_equal(back.data, lf.data)

            # exhaustive element identities at U=V=W=H=2
            u = v = w = h = 2
            c = 2
            lf = LfTensor(np.arange(u * v * w * h * c, dtype=np.float64).reshape(u, v, w, h, c))
            sp, an, eh, ev, mg, mp = (lftensor.to_layout(name, lf) for name in views)
            for uu in range(u):
                for vv in range(v):
                    for x in range(w):
                        for y in range(h):
                            for ch in range(c):
                                val = lf.data[uu, vv, x, y, ch]
                                assert sp[uu * v + vv, x * h + y, ch] == val
                                assert an[x * h + y, uu * v + vv, ch] == val
                                assert eh[vv * h + y, uu * w + x, ch] == val
                                assert ev[uu * w + x, vv * h + y, ch] == val
                                assert mg[0, x * h + y, (uu * v + vv) * c + ch] == val
                                assert mp[y * u + uu, x * v + vv, ch] == val

    def test_criterion_06_metric_oracles(self):
        """PSNR closed form at 6 decimals, SSIM identity, noise monotonicity."""
        with _Budget(5.0):
            a = np.full((32, 32), 0.4)
            p = metrics.psnr(a, a + 0.1, peak=1.0)
            assert f"{p:.6f}" == "20.000000"
            assert abs(p - 20.0) < 5e-7

            rng = np.random.default_rng(3)
            img = rng.random((32, 32))
            assert abs(metrics.ssim(img, img) - 1.0) <= 1e-9

            noise = rng.standard_normal((32, 32))
            values = [
                metrics.psnr(img, img + s * noise) for s in (0.005, 0.02, 0.08, 0.32)
            ]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_criterion_07_diffusion_index_oracles(self):
        """DI exact on uniform and single-spike maps; fast Gini == naive."""
        with _Budget(5.0):
            assert attribution.diffusion_index(np.full(25, 0.2)) == 100.0
            assert attribution.diffusion_index(np.array([0.0, 0.0, 0.0, 1.0])) == 25.0
            rng = np.random.default_rng(4)
            for _ in range(100):
                x = rng.random(int(rng.integers(2, 60)))
                assert abs(attribution.gini(x) - attribution.gini_naive(x)) < 1e-12

    def test_criterion_08_attribution_locality(self):
        """Many-to-many attribution spreads across views; per-view stays home."""
        with _Budget(300.0):
            lf = _plaid_lf(5, 5, 32, 32)
            lam_cfg = LamConfig(window=(28, 28, 8), steps=6, sigma=4.0, literal=True)
            net_cfg = NetConfig(u=5, v=5, c=12, c_cor=24, n1=2, n2=1, r=2, seed=0)

            m2m = attribution.lam(network.build(net_cfg, np.float64), lf, lam_cfg)
            support_m2m = int((m2m.map.max(axis=(2, 3)) > 0).sum())
            assert support_m2m >= 20, f"many-to-many support {support_m2m}/25"

            o2o = attribution.lam(network.build_o2o(net_cfg, np.float64), lf, lam_cfg)
            outside = o2o.map.copy()
            outside[2, 2] = 0.0
            assert np.all(outside == 0.0), "per-view attribution must vanish off-view"
            assert o2o.map[2, 2].max() > 0

            assert m2m.di > o2o.di, f"DI {m2m.di:.4f} !> {o2o.di:.4f}"

    def test_criterion_09_self_ensemble_exactness(self):
        """Identity ensemble bit-exact; bicubic net within 4 ulp; closed group."""
        with _Budget(10.0):
            rng = np.random.default_rng(5)
            lf = LfTensor(rng.standard_normal((3, 3, 6, 6, 1)))
            out = ensemble.self_ensemble(lambda a: LfTensor(a.data.copy()), lf)
            assert np.array_equal(out.data, lf.data)

            cfg = NetConfig(u=3, v=3, c=8, c_cor=12, n1=2, n2=1, r=2)
            net = network.build(cfg, np.float64)
            for k, p in net.params.items():
                p[...] = 1.0 if k.endswith("norm.g") else 0.0
            direct = ops.resize_bicubic(
                Var(lf.data.transpose(0, 1, 4, 2, 3)), 2.0
            ).value.transpose(0, 1, 3, 4, 2)
            averaged = ensemble.self_ensemble(net.forward, lf).data
            ulp = np.abs(averaged.view(np.int64) - direct.view(np.int64)).max()
            assert ulp <= 4, f"ensemble differs from bicubic by {ulp} ulp"

            # group closure by enumeration over all 64 ordered pairs
            probe = LfTensor(np.arange(2 * 2 * 2 * 2, dtype=np.float64).reshape(2, 2, 2, 2, 1))
            images = {
                t: ensemble.apply_transform(t, probe).data.tobytes()
                for t in ensemble.all_transforms()
            }
            for t1 in ensemble.all_transforms():
                for t2 in ensemble.all_transforms():
                    composed = ensemble.apply_transform(
                        t1, ensemble.apply_transform(t2, probe)
                    ).data.tobytes()
                    assert composed in images.values(), (t1, t2)

    def test_criterion_10_toy_trainability(self):
        """300 Adam steps on one 5x5x8x8 pair cut L1 to <=10%, reproducibly."""
        with _Budget(300.0):
            hr = _plaid_lf(5, 5, 8, 8, shift=0.3)
            pair = training.make_pair(hr, 2)
            cfg = NetConfig(u=5, v=5, c=48, c_cor=128, n1=4, n2=1, r=2, seed=0)

            short = []
            for _ in range(2):
                net = network.build(cfg, np.float64)
                short.append(
                    training.train_toy(net, pair, training.TrainConfig(iters=25))
                )
            assert short[0] == short[1], "fixed seed must reproduce the curve exactly"

            net = network.build(cfg, np.float64)
            curve = training.train_toy(net, pair, training.TrainConfig(iters=300))
            ratio = curve[-1] / curve[0]
            assert ratio <= 0.10, f"loss only fell to {ratio:.2%} of initial"
