"""Tests for blur-path attribution maps and the diffusion index.

The accumulation rules have exact closed forms when the detector gradient
is constant along the path (monotone inputs through an identity network):
the standard rule telescopes to g*(input - blurriest), the literal rule to
g*(path[1] - input)/steps.  Those identities pin the wiring.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from m2mtnet import attribution, lfio, network, ops
from m2mtnet.attribution import LamConfig
from m2mtnet.autodiff import Tape, Var
from m2mtnet.lftensor import LfTensor

_SRC = str(Path(__file__).resolve().parents[1] / "src")


class _IdentityNet:
    """Minimal stand-in with the interface lam() needs; its output view is
    the input view (r = 1), and forward_var returns the view asked for."""

    cfg = SimpleNamespace(r=1)
    mixes_views = True

    def check_input(self, dims):
        pass

    def astype(self, dtype):
        return self

    def param_vars(self, tape):
        return {}

    def forward_var(self, x, pv, view):
        su, sv = view
        return ops.getitem(x, (slice(su, su + 1), slice(sv, sv + 1)))


def _ramp_lf(u=2, v=2, w=8, h=8):
    x = np.arange(w, dtype=np.float64)[:, None] + np.arange(h, dtype=np.float64)[None, :]
    data = np.broadcast_to(x[None, None, :, :, None], (u, v, w, h, 1)).copy()
    return LfTensor(data)


class TestGaussianKernel:
    def test_normalized_and_symmetric(self):
        for width in (0.5, 1.0, 2.5):
            k = attribution.gaussian_kernel1d(width)
            assert k.size == 2 * int(np.ceil(3 * width)) + 1
            np.testing.assert_allclose(k.sum(), 1.0, atol=1e-12)
            np.testing.assert_allclose(k, k[::-1], atol=1e-15)

    def test_zero_width_is_identity(self):
        np.testing.assert_array_equal(attribution.gaussian_kernel1d(0.0), [1.0])

    def test_matches_gaussian_formula(self):
        width = 1.5
        k = attribution.gaussian_kernel1d(width)
        r = (k.size - 1) // 2
        x = np.arange(-r, r + 1)
        ref = np.exp(-(x**2) / (2 * width**2))
        np.testing.assert_allclose(k, ref / ref.sum(), rtol=1e-12)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            attribution.gaussian_kernel1d(-1.0)

    @pytest.mark.parametrize("width", [np.inf, np.nan])
    def test_non_finite_width_rejected(self, width):
        with pytest.raises(ValueError, match="width must be finite and >= 0"):
            attribution.gaussian_kernel1d(width)


class TestBlurPath:
    def test_endpoint_is_the_input(self):
        rng = np.random.default_rng(0)
        lf = LfTensor(rng.random((2, 2, 6, 6, 1)))
        cfg = LamConfig(window=(0, 0, 2), steps=5, sigma=3.0)
        end = attribution.gaussian_path(lf, 5, cfg)
        np.testing.assert_array_equal(end.data, lf.data)

    def test_constant_field_unchanged(self):
        lf = LfTensor(np.full((2, 2, 8, 8, 1), 0.7))
        cfg = LamConfig(window=(0, 0, 2), steps=4, sigma=2.0)
        out = attribution.gaussian_path(lf, 0, cfg)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-12)

    def test_blur_reduces_variance_monotonically(self):
        rng = np.random.default_rng(1)
        lf = LfTensor(rng.random((1, 1, 16, 16, 1)))
        cfg = LamConfig(window=(0, 0, 2), steps=4, sigma=3.0)
        variances = [attribution.gaussian_path(lf, k, cfg).data.var() for k in range(5)]
        assert all(a < b for a, b in zip(variances, variances[1:]))

    def test_views_blur_independently(self):
        rng = np.random.default_rng(2)
        data = rng.random((2, 2, 8, 8, 1))
        bumped = data.copy()
        bumped[0, 1] += 1.0
        cfg = LamConfig(window=(0, 0, 2), steps=4, sigma=2.0)
        a = attribution.gaussian_path(LfTensor(data), 1, cfg).data
        b = attribution.gaussian_path(LfTensor(bumped), 1, cfg).data
        delta = np.abs(b - a).max(axis=(2, 3, 4))
        assert delta[0, 1] > 0
        assert delta[0, 0] == delta[1, 0] == delta[1, 1] == 0.0

    @pytest.mark.parametrize(
        "shape, width", [((2, 3, 9, 7, 1), 1.5), ((2, 2, 6, 6, 2), 3.0), ((1, 1, 5, 12, 1), 0.5)]
    )
    def test_blur_matches_scipy_nearest_correlation(self, shape, width):
        """Edge-replicated correlation, also where the kernel radius (9 at
        width 3) is larger than the 6-pixel view."""
        from scipy.ndimage import correlate1d

        data = np.random.default_rng(3).standard_normal(shape)
        k = attribution.gaussian_kernel1d(width)
        ref = correlate1d(correlate1d(data, k, axis=2, mode="nearest"), k, axis=3, mode="nearest")
        got = attribution._blur_lf(data, width)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_cli_run_loads_no_scipy(self):
        """Importing the CLI, gelu in both dtypes and a taped forward plus
        backward of a toy m2m net leave every scipy module unloaded."""
        code = """
import sys
import numpy as np
import m2mtnet.cli
from m2mtnet import network, ops
from m2mtnet.autodiff import Tape, Var
for dtype in (np.float32, np.float64):
    ops.gelu(Var(np.linspace(-8, 8, 101, dtype=dtype)))
net = network.build(network.NetConfig(u=2, v=2, c=3, c_cor=5, n1=2, n2=1, r=2), np.float64)
t = Tape()
xv = Var(np.random.default_rng(0).standard_normal((2, 2, 4, 4, 1)), t)
out = net.forward_var(xv, net.param_vars(t))
t.backward(out, np.ones_like(out.value))
assert xv.grad is not None
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
"""
        path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_path_index_bounds(self):
        lf = _ramp_lf()
        cfg = LamConfig(window=(0, 0, 2), steps=4)
        with pytest.raises(ValueError):
            attribution.gaussian_path(lf, 5, cfg)


class TestDetector:
    def test_hand_computed_value(self):
        data = np.zeros((1, 1, 2, 2, 1))
        data[0, 0, :, :, 0] = [[0.0, 1.0], [3.0, 0.0]]
        # |3-0| + |0-1| (x diffs) + |1-0| + |0-3| (y diffs)
        got = attribution.detector(LfTensor(data), (0, 0, 2), sai=(0, 0))
        assert got == pytest.approx(8.0)

    def test_flat_window_scores_zero(self):
        lf = LfTensor(np.full((3, 3, 6, 6, 1), 0.4))
        assert attribution.detector(lf, (1, 1, 4)) == 0.0

    def test_taped_twin_matches(self):
        rng = np.random.default_rng(3)
        data = rng.random((3, 3, 6, 6, 1))
        plain = attribution.detector(LfTensor(data), (1, 2, 3), sai=(2, 0))
        t = Tape()
        x = Var(data, t)
        taped = attribution._detector_var(x, (1, 2, 3), (2, 0))
        assert float(taped.value) == pytest.approx(plain, rel=1e-12)
        # its gradient must live only inside the probed window/view
        t.backward(taped, 1.0)
        g = x.grad
        assert np.abs(g[2, 0, 1:4, 2:5]).max() > 0
        mask = np.zeros_like(g, dtype=bool)
        mask[2, 0, 1:4, 2:5] = True
        assert np.all(g[~mask] == 0.0)

    def test_default_sai_is_central(self):
        rng = np.random.default_rng(4)
        data = rng.random((3, 3, 6, 6, 1))
        assert attribution.detector(LfTensor(data), (0, 0, 4)) == attribution.detector(
            LfTensor(data), (0, 0, 4), sai=(1, 1)
        )

    def test_window_bounds_checked(self):
        lf = _ramp_lf()
        with pytest.raises(ValueError):
            attribution.detector(lf, (6, 6, 4))
        with pytest.raises(ValueError):
            attribution.detector(lf, (0, 0, 2), sai=(5, 0))


class TestGini:
    def test_single_spike_exact(self):
        assert attribution.gini(np.array([0.0, 0.0, 0.0, 1.0])) == pytest.approx(0.75, abs=1e-15)

    def test_uniform_exact_zero(self):
        assert attribution.gini(np.full(10, 3.3)) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.random(50)
        assert attribution.gini(x) == pytest.approx(attribution.gini(17.0 * x), rel=1e-12)

    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.random(rng.integers(2, 40))
            # O(n^2) mean-absolute-difference definition, the oracle
            naive = np.abs(x[:, None] - x[None, :]).sum() / (2.0 * x.size * x.size * x.mean())
            assert abs(attribution.gini(x) - naive) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            attribution.gini(np.array([]))
        with pytest.raises(ValueError):
            attribution.gini(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            attribution.gini(np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            attribution.gini(np.array([bad, 1.0]))

    def test_diffusion_index_mapping(self):
        assert attribution.diffusion_index(np.array([0.0, 0.0, 0.0, 1.0])) == pytest.approx(25.0)
        assert attribution.diffusion_index(np.ones(8)) == pytest.approx(100.0)


class TestLamAccumulation:
    """Closed-form checks through an identity network."""

    def _grad_of_detector(self, lf, window):
        t = Tape()
        x = Var(lf.data.astype(np.float64), t)
        d = attribution._detector_var(x, window, None)
        t.backward(d, 1.0)
        return x.grad

    def test_standard_mode_telescopes(self):
        lf = _ramp_lf()
        cfg = LamConfig(window=(2, 2, 4), steps=5, sigma=2.0, literal=False)
        res = attribution.lam(_IdentityNet(), lf, cfg)
        g = self._grad_of_detector(lf, cfg.window)
        path0 = attribution.gaussian_path(lf, 0, cfg).data
        expect = np.abs(g * (lf.data - path0)).sum(axis=4)
        np.testing.assert_allclose(res.map, expect, atol=1e-10)

    def test_literal_mode_shortened_path(self):
        lf = _ramp_lf()
        s = 5
        cfg = LamConfig(window=(2, 2, 4), steps=s, sigma=2.0, literal=True)
        res = attribution.lam(_IdentityNet(), lf, cfg)
        g = self._grad_of_detector(lf, cfg.window)
        path1 = attribution.gaussian_path(lf, 1, cfg).data
        expect = np.abs(g * (path1 - lf.data) / s).sum(axis=4)
        np.testing.assert_allclose(res.map, expect, atol=1e-10)

    def test_literal_single_step_degenerates(self):
        lf = _ramp_lf()
        cfg = LamConfig(window=(2, 2, 4), steps=1, sigma=2.0, literal=True)
        res = attribution.lam(_IdentityNet(), lf, cfg)
        np.testing.assert_array_equal(res.map, 0.0)
        assert res.degenerate
        assert res.di == 100.0 and res.gini_coeff == 0.0


class TestLamOnNetwork:
    def test_shapes_and_support(self):
        rng = np.random.default_rng(7)
        cfg = network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=2, n2=1, r=2, seed=1)
        net = network.build(cfg, np.float64)
        lf = LfTensor(rng.random((2, 2, 8, 8, 1)))
        res = attribution.lam(net, lf, LamConfig(window=(4, 4, 4), steps=3, sigma=2.0))
        assert res.map.shape == (2, 2, 8, 8)
        assert res.macpi.shape == (8 * 2, 8 * 2)
        assert np.all(res.map >= 0) and np.all(np.isfinite(res.map))
        # every view participates through the many-to-many path
        assert np.all(res.map.max(axis=(2, 3)) > 0)
        assert 0.0 <= res.gini_coeff <= 1.0
        assert res.di == pytest.approx((1 - res.gini_coeff) * 100.0)

    def test_o2o_wrong_grid_rejected(self):
        net = network.build(network.NetConfig(u=3, v=2, c=4, c_cor=6, n1=2, n2=1, r=2, arch="o2o"), np.float64)
        lf = LfTensor(np.random.default_rng(2).random((2, 3, 8, 8, 1)))
        with pytest.raises(ValueError, match="^input grid 2x3 != configured 3x2$"):
            attribution.lam(net, lf, LamConfig(window=(4, 4, 4), steps=2, sigma=2.0))

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    @pytest.mark.parametrize(
        "dims, window, sai, message",
        [
            ((2, 2, 8, 8, 1), (14, 8, 4), None, r"^window \(14, 8, 4\) exceeds the 16x16 view$"),
            ((2, 2, 8, 8, 1), (8, 8, 4), (2, 0), r"^sai \(2, 0\) outside the 2x2 grid$"),
            ((2, 3, 8, 8, 1), (8, 8, 4), None, r"^input grid 2x3 != configured 2x2$"),
            ((2, 2, 8, 8, 2), (8, 8, 4), None, r"^network expects 1 input channel, got 2$"),
        ],
        ids=["window", "sai", "grid", "channels"],
    )
    def test_bad_input_before_any_forward(self, monkeypatch, arch, dims, window, sai, message):
        """lam refuses what it cannot probe before it blurs a path or runs
        a forward; the window is checked against the r*W x r*H output view."""
        net = network.build(network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=2, n2=1, r=2, arch=arch), np.float64)

        def no_work(*args, **kwargs):
            raise AssertionError("lam worked before its input was checked")

        monkeypatch.setattr(network._SrNet, "forward_var", no_work)
        monkeypatch.setattr(attribution, "_blur_lf", no_work)
        lf = LfTensor(np.zeros(dims))
        with pytest.raises(ValueError, match=message):
            attribution.lam(net, lf, LamConfig(window=window, steps=2, sigma=2.0, sai=sai))

    def test_heatmap_written_and_scaled(self, tmp_path):
        m = np.array([[0.0, 1.0], [2.0, 4.0]])
        p = tmp_path / "h.pgm"
        attribution.save_heatmap_pgm(p, m)
        img, maxval = lfio.read_pgm(p)
        assert maxval == 255
        np.testing.assert_array_equal(img, [[0, 64], [128, 255]])

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("random", "a03c508158dc5cb85378a6d897eed9de4113f064cd94c12ae9bc377af807720e"),
            ("constant", "1756f2d25871b0b60e6fb3b9b392310e3ffb6a0c0165613d2ed95e1f4a9a3a29"),
        ],
    )
    def test_heatmap_bytes_pinned(self, tmp_path, name, digest):
        # digests of the files written before save_heatmap_pgm went through lfio.write_pgm
        m = np.random.default_rng(5).standard_normal((7, 9)) if name == "random" else np.full((4, 6), 0.25)
        p = tmp_path / "h.pgm"
        attribution.save_heatmap_pgm(p, m)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_heatmap_rejects_non_finite_map(self, tmp_path, bad):
        p = tmp_path / "h.pgm"
        with pytest.raises(ValueError, match="NaN or infinite"):
            attribution.save_heatmap_pgm(p, np.array([[0.0, 1.0], [2.0, bad]]))
        assert not p.exists()

    def test_heatmap_constant_map(self, tmp_path):
        p = tmp_path / "h.pgm"
        attribution.save_heatmap_pgm(p, np.full((3, 3), 2.0))
        img, _ = lfio.read_pgm(p)
        np.testing.assert_array_equal(img, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LamConfig(window=(0, 0, 2), steps=0)
        with pytest.raises(ValueError):
            LamConfig(window=(0, 0, 0))
        with pytest.raises(ValueError):
            LamConfig(window=(0, 0, 2), sigma=-1.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            LamConfig(window=(0, 0, 2), sigma=sigma)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"steps": 0}, "steps must be >= 1"),
            ({"sigma": -1.0}, "sigma must be finite and >= 0"),
            ({"window": (0, 0, 0)}, "bad window"),
            ({"window": (-1, 0, 2)}, "bad window"),
        ],
    )
    def test_replace_rejects_bad_values(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(LamConfig(window=(0, 0, 2)), **change)


class _FullGridO2O(network.O2OBaseline):
    """The per-view baseline with the one-view shortcut off, so lam takes
    the plain forward_var path over the whole grid."""

    mixes_views = True


class TestLamOneView:
    """lam runs a view-local net on the probed view alone; the map must be
    the full-grid one, bit for bit."""

    CFG = network.NetConfig(u=3, v=2, c=4, c_cor=6, n1=2, n2=1, r=2, seed=1)
    # SHA-256 of the m2m map with the row-skipping vjps and two output
    # pixels per GEMM row in the narrow convs; TestLamRowSkip holds it within
    # 1e-13 x max|map| of the dense backward's, test_m2m_map_near_one_pixel_rows
    # of the one-pixel-row convs'
    M2M_DIGESTS = {
        True: "0c04dd4cbaba4e1beebdb2ddff44a0a04407f78ee9445355f75a48245e883d51",
        False: "cae27406efef0dbbba2b7d620100d8e2e22af49bbc58713e71c8ccfd5a0792a7",
    }

    @staticmethod
    def _run(net, literal):
        lf = LfTensor(np.random.default_rng(11).random((3, 2, 8, 8, 1)))
        # sai (2, 0) is off the central view (1, 1) of the 3x2 grid
        return attribution.lam(net, lf, LamConfig(window=(3, 5, 6), steps=3, sigma=2.0, sai=(2, 0), literal=literal))

    @pytest.mark.parametrize("literal", [True, False], ids=["literal", "standard"])
    def test_o2o_one_view_equals_full_grid(self, literal):
        net = network.build(replace(self.CFG, arch="o2o"), np.float64)
        assert not net.mixes_views
        one = self._run(net, literal)
        full = self._run(_FullGridO2O(net.cfg, net.flat), literal)
        np.testing.assert_array_equal(one.map, full.map)
        assert one.di == full.di and one.gini_coeff == full.gini_coeff
        np.testing.assert_array_equal(one.macpi, full.macpi)
        # the shortcut is exact because every other view is zero anyway
        off = full.map.copy()
        off[2, 0] = 0.0
        assert np.all(off == 0.0) and full.map[2, 0].max() > 0

    @pytest.mark.parametrize("arch, blurred", [("m2m", (3, 2, 8, 8, 1)), ("o2o", (1, 1, 8, 8, 1))])
    def test_blurs_only_the_probed_views(self, arch, blurred, monkeypatch):
        """Each of the steps + 1 path samples blurs the views the net reads,
        and the constant parameter Vars are made once per call."""
        shapes, param_calls = [], []
        blur, param_vars = attribution._blur_lf, network._SrNet.param_vars

        def spy_blur(data, width):
            shapes.append(data.shape)
            return blur(data, width)

        def spy_param_vars(net, tape):
            param_calls.append(tape)
            return param_vars(net, tape)

        monkeypatch.setattr(attribution, "_blur_lf", spy_blur)
        monkeypatch.setattr(network._SrNet, "param_vars", spy_param_vars)
        self._run(network.build(replace(self.CFG, arch=arch), np.float64), True)
        assert shapes == [blurred] * 4 and param_calls == [None]

    @pytest.mark.parametrize("literal", [True, False], ids=["literal", "standard"])
    def test_m2m_map_unchanged(self, literal):
        net = network.build(self.CFG, np.float64)
        assert net.mixes_views
        res = self._run(net, literal)
        assert hashlib.sha256(res.map.tobytes()).hexdigest() == self.M2M_DIGESTS[literal]

    @pytest.mark.parametrize("literal", [True, False], ids=["literal", "standard"])
    def test_m2m_map_near_one_pixel_rows(self, literal, monkeypatch):
        """The pinned map is within 1e-13 x max|map| of the one the 3x3 convs
        give with one output pixel per GEMM row (ops._group_width)."""
        net = network.build(self.CFG, np.float64)
        got = self._run(net, literal)
        with monkeypatch.context() as m:
            m.setattr(ops, "_group_width", lambda cin, cout, w: 1)
            ref = self._run(net, literal)
        np.testing.assert_allclose(got.map, ref.map, rtol=0, atol=1e-13 * np.abs(ref.map).max())
        assert got.di == pytest.approx(ref.di, rel=1e-12, abs=0)


class TestLamRowSkip:
    """lam's backward skips the rows, instances and records no gradient
    reaches.  Its maps stay within 1e-13 x max|map| of the dense backward's
    (ops._live reporting every row live), and its DIs within 1e-12."""

    SMALL = (TestLamOneView.CFG, (3, 2, 8, 8, 1), LamConfig(window=(3, 5, 6), steps=3, sigma=2.0, sai=(2, 0)))
    # the benchmark's lam_c8 net and settings, on a random input
    C8 = (
        network.NetConfig(u=5, v=5, c=12, c_cor=24, n1=2, n2=1, r=2),
        (5, 5, 32, 32, 1),
        LamConfig(window=(28, 28, 8), steps=6, sigma=4.0),
    )

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    @pytest.mark.parametrize("case", ["small", "c8"])
    def test_map_matches_dense_backward(self, case, arch, monkeypatch):
        cfg, dims, lam_cfg = self.SMALL if case == "small" else self.C8
        net = network.build(replace(cfg, arch=arch), np.float64)
        lf = LfTensor(np.random.default_rng(12).random(dims))
        got = attribution.lam(net, lf, lam_cfg)
        with monkeypatch.context() as m:
            m.setattr(ops, "_live", lambda g, lead=1: None)
            ref = attribution.lam(net, lf, lam_cfg)
        np.testing.assert_allclose(got.map, ref.map, rtol=0, atol=1e-13 * np.abs(ref.map).max())
        assert got.di == pytest.approx(ref.di, rel=1e-12, abs=0)
