"""Tests for PSNR/SSIM and the per-view metric report.

Oracles: constant-offset images have closed-form PSNR and SSIM, and both
metrics have hard invariants (symmetry, identity, monotonicity in noise).
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from m2mtnet import metrics
from m2mtnet.lftensor import LfTensor


class TestMse:
    def test_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.5)
        assert metrics.mse(a, b) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            metrics.mse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestPsnr:
    def test_uniform_offset_closed_form(self):
        """Offset d gives exactly -20*log10(d) dB at peak 1."""
        a = np.full((8, 8), 0.3)
        for d in (0.1, 0.01, 0.5):
            got = metrics.psnr(a, a + d)
            assert got == pytest.approx(-20.0 * np.log10(d), rel=1e-12)

    def test_identical_images_infinite(self):
        a = np.random.default_rng(0).random((6, 6))
        assert metrics.psnr(a, a) == float("inf")

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((5, 5)), rng.random((5, 5))
        assert metrics.psnr(a, b) == metrics.psnr(b, a)

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(2)
        a = rng.random((16, 16))
        noise = rng.standard_normal((16, 16))
        values = [metrics.psnr(a, a + s * noise) for s in (0.01, 0.05, 0.1, 0.3)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_peak_shift(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((5, 5)), rng.random((5, 5))
        # doubling the peak adds 20*log10(2) dB
        assert metrics.psnr(a, b, peak=2.0) - metrics.psnr(a, b) == pytest.approx(
            20.0 * np.log10(2.0), rel=1e-12
        )


class TestRgbToY:
    def test_coefficients_sum_to_one(self):
        assert metrics.rgb_to_y(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_channel_weights(self):
        assert metrics.rgb_to_y(1.0, 0.0, 0.0) == pytest.approx(0.299)
        assert metrics.rgb_to_y(0.0, 1.0, 0.0) == pytest.approx(0.587)
        assert metrics.rgb_to_y(0.0, 0.0, 1.0) == pytest.approx(0.114)

    def test_vectorized(self):
        rng = np.random.default_rng(4)
        r, g, b = rng.random((3, 4, 4))
        np.testing.assert_allclose(
            metrics.rgb_to_y(r, g, b), 0.299 * r + 0.587 * g + 0.114 * b, rtol=1e-12
        )


def _ssim_dense(a, b):
    """SSIM with the 2-D Gaussian window applied as one dense sum per pixel."""
    size = min(11, *a.shape)
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * 1.5 * 1.5))
    win = np.outer(g, g) / np.outer(g, g).sum()

    def local(img):
        return np.einsum("ijkl,kl->ij", sliding_window_view(img, (size, size)), win)

    mu_a, mu_b = local(a), local(b)
    s_aa = local(a * a) - mu_a * mu_a
    s_bb = local(b * b) - mu_b * mu_b
    s_ab = local(a * b) - mu_a * mu_b
    c1, c2 = 0.01**2, 0.03**2
    num = (2 * mu_a * mu_b + c1) * (2 * s_ab + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (s_aa + s_bb + c2)
    return float(np.mean(num / den))


class TestSsim:
    def test_identity_is_one(self):
        a = np.random.default_rng(5).random((20, 20))
        assert metrics.ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        a, b = rng.random((16, 16)), rng.random((16, 16))
        assert metrics.ssim(a, b) == pytest.approx(metrics.ssim(b, a), rel=1e-12)

    def test_constant_images_closed_form(self):
        """Zero variance: SSIM reduces to the luminance term only."""
        m1, m2 = 0.3, 0.5
        a = np.full((16, 16), m1)
        b = np.full((16, 16), m2)
        c1 = 0.01**2
        expect = (2 * m1 * m2 + c1) / (m1 * m1 + m2 * m2 + c1)
        assert metrics.ssim(a, b) == pytest.approx(expect, rel=1e-9)

    def test_noise_lowers_ssim(self):
        rng = np.random.default_rng(7)
        a = rng.random((24, 24))
        noisy = a + 0.2 * rng.standard_normal((24, 24))
        assert metrics.ssim(a, noisy) < 0.95

    def test_small_image_shrinks_window(self):
        a = np.random.default_rng(8).random((5, 5))
        assert metrics.ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dims", [(32, 32), (24, 17), (11, 11), (9, 13), (5, 5), (1, 6)])
    def test_separable_window_matches_dense_window(self, dims):
        """Two 1-D passes against the 121-tap 2-D window, including images
        smaller than 11 pixels where the window shrinks."""
        rng = np.random.default_rng(9)
        a = rng.random(dims)
        b = np.clip(a + 0.1 * rng.standard_normal(dims), 0.0, 1.0)
        assert metrics.ssim(a, b) == pytest.approx(_ssim_dense(a, b), rel=1e-12, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            metrics.ssim(np.zeros((4, 4)), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            metrics.ssim(np.zeros((4, 4, 1)), np.zeros((4, 4, 1)))


class TestLfMetrics:
    def _pair(self, rng, u=2, v=2, w=16, h=16):
        hr = LfTensor(rng.random((u, v, w, h, 1)))
        sr = LfTensor(np.clip(hr.data + 0.05 * rng.standard_normal(hr.data.shape), 0, 1))
        return sr, hr

    def test_grids_and_means(self):
        rng = np.random.default_rng(9)
        sr, hr = self._pair(rng)
        rep = metrics.lf_metrics(sr, hr)
        assert rep.psnr_grid.shape == (2, 2)
        assert rep.psnr_mean == pytest.approx(rep.psnr_grid.mean())
        assert rep.ssim_mean == pytest.approx(rep.ssim_grid.mean())
        # each grid cell matches a direct per-view computation
        assert rep.psnr_grid[1, 0] == pytest.approx(metrics.psnr(sr.data[1, 0], hr.data[1, 0]))
        assert rep.ssim_grid[0, 1] == pytest.approx(
            metrics.ssim(sr.data[0, 1, :, :, 0], hr.data[0, 1, :, :, 0])
        )

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        sr, hr = self._pair(rng)
        with pytest.raises(ValueError):
            metrics.lf_metrics(sr, LfTensor(hr.data[:, :, :8]))

    def test_report_formats(self):
        rng = np.random.default_rng(11)
        sr, hr = self._pair(rng)
        rep = metrics.lf_metrics(sr, hr)
        text = metrics.format_report(rep)
        assert "mean PSNR" in text
        grid_rows = text.splitlines()[1:3]
        assert all(row.count("/") == 2 for row in grid_rows)
        lines = metrics.report_lines(rep)
        assert lines[0].startswith("psnr_mean=")
        assert any(l.startswith("ssim_u1_v1=") for l in lines)
        # values round-trip through the 6-significant-digit format
        got = float(lines[0].split("=")[1])
        assert got == pytest.approx(rep.psnr_mean, rel=1e-5)
