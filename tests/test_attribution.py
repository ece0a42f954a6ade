"""Tests for blur-path attribution maps and the diffusion index.

The accumulation rules have exact closed forms when the detector gradient
is constant along the path (monotone inputs through an identity network):
the standard rule telescopes to g*(input - blurriest), the literal rule to
g*(path[1] - input)/steps.  Those identities pin the wiring.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from m2mtnet import attribution, lfio, network
from m2mtnet.attribution import LamConfig
from m2mtnet.autodiff import Tape, Var
from m2mtnet.lftensor import LfTensor

_SRC = str(Path(__file__).resolve().parents[1] / "src")


class _IdentityNet:
    """Minimal stand-in with the interface lam() needs."""

    def astype(self, dtype):
        return self

    def param_vars(self, tape):
        return {}

    def forward_var(self, x, pv):
        return x


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

    def test_cli_import_leaves_scipy_ndimage_out(self):
        code = "import sys, m2mtnet.cli; sys.exit('scipy.ndimage' in sys.modules)"
        path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0

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
            assert abs(attribution.gini(x) - attribution.gini_naive(x)) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            attribution.gini(np.array([]))
        with pytest.raises(ValueError):
            attribution.gini(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            attribution.gini(np.zeros(5))

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

    def test_heatmap_written_and_scaled(self, tmp_path):
        m = np.array([[0.0, 1.0], [2.0, 4.0]])
        p = tmp_path / "h.pgm"
        attribution.save_heatmap_pgm(p, m)
        img, maxval = lfio.read_pgm(p)
        assert maxval == 255
        np.testing.assert_array_equal(img, [[0, 64], [128, 255]])

    def test_heatmap_constant_map(self, tmp_path):
        p = tmp_path / "h.pgm"
        attribution.save_heatmap_pgm(p, np.full((3, 3), 2.0))
        img, _ = lfio.read_pgm(p)
        np.testing.assert_array_equal(img, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LamConfig(window=(0, 0, 2), steps=0).validate()
        with pytest.raises(ValueError):
            LamConfig(window=(0, 0, 0)).validate()
        with pytest.raises(ValueError):
            LamConfig(window=(0, 0, 2), sigma=-1.0).validate()

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            LamConfig(window=(0, 0, 2), sigma=sigma).validate()
