"""Tests for the 5-D light-field container and its six subspace views.

Every view must be a bijection (round-trip bit-exact) and must place each
element exactly where the flattened index formulas say it goes.
"""

import numpy as np
import pytest

from m2mtnet import lftensor as lft
from m2mtnet.lftensor import LfTensor


def _arange_lf(u, v, w, h, c, dtype=np.float64):
    n = u * v * w * h * c
    return LfTensor(np.arange(n, dtype=dtype).reshape(u, v, w, h, c))


VIEWS = ("spatial", "angular", "epi_h", "epi_v", "merged", "macpi")


class TestContainer:
    def test_dims_properties(self):
        lf = _arange_lf(2, 3, 4, 5, 6)
        assert (lf.u, lf.v, lf.w, lf.h, lf.c) == (2, 3, 4, 5, 6)
        assert lf.dims == (2, 3, 4, 5, 6)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            LfTensor(np.zeros((2, 2, 4, 4)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            LfTensor(np.zeros((2, 0, 4, 4, 1)))


class TestViewShapes:
    """Each view's 3-D shape as a function of (U, V, W, H, C)."""

    def test_shapes(self):
        lf = _arange_lf(2, 3, 4, 5, 6)
        u, v, w, h, c = lf.dims
        assert lft.to_layout("spatial", lf).shape == (u * v, w * h, c)
        assert lft.to_layout("angular", lf).shape == (w * h, u * v, c)
        assert lft.to_layout("epi_h", lf).shape == (v * h, u * w, c)
        assert lft.to_layout("epi_v", lf).shape == (u * w, v * h, c)
        assert lft.to_layout("merged", lf).shape == (1, w * h, u * v * c)
        assert lft.to_layout("macpi", lf).shape == (h * u, w * v, c)


class TestRoundTrips:
    def test_random_dims_bit_exact(self):
        """All six views invert exactly over randomized small dims."""
        rng = np.random.default_rng(0)
        sizes = (1, 2, 3, 5)
        for _ in range(60):
            u, v, w, h, c = (int(rng.choice(sizes)) for _ in range(5))
            lf = LfTensor(rng.standard_normal((u, v, w, h, c)))
            for name in VIEWS:
                back = lft.from_layout(name, lft.to_layout(name, lf), u, v, w, h)
                np.testing.assert_array_equal(back.data, lf.data)

    def test_views_are_permutations(self):
        # every view must contain each element exactly once
        lf = _arange_lf(2, 2, 3, 3, 2)
        flat = np.sort(lf.data, axis=None)
        for name in VIEWS:
            np.testing.assert_array_equal(np.sort(lft.to_layout(name, lf), axis=None), flat)


class TestElementPlacement:
    """Element-identity checks against the flattened index formulas."""

    def _each_index(self, dims):
        for idx in np.ndindex(*dims):
            yield idx

    def test_spatial_placement(self):
        lf = _arange_lf(2, 2, 2, 2, 2)
        t = lft.to_layout("spatial", lf)
        for u, v, x, y, ch in self._each_index(lf.dims):
            assert t[u * lf.v + v, x * lf.h + y, ch] == lf.data[u, v, x, y, ch]

    def test_angular_placement(self):
        lf = _arange_lf(2, 2, 2, 2, 2)
        t = lft.to_layout("angular", lf)
        for u, v, x, y, ch in self._each_index(lf.dims):
            assert t[x * lf.h + y, u * lf.v + v, ch] == lf.data[u, v, x, y, ch]

    def test_epi_h_placement(self):
        lf = _arange_lf(2, 2, 2, 2, 2)
        t = lft.to_layout("epi_h", lf)
        for u, v, x, y, ch in self._each_index(lf.dims):
            assert t[v * lf.h + y, u * lf.w + x, ch] == lf.data[u, v, x, y, ch]

    def test_epi_v_placement(self):
        lf = _arange_lf(2, 2, 2, 2, 2)
        t = lft.to_layout("epi_v", lf)
        for u, v, x, y, ch in self._each_index(lf.dims):
            assert t[u * lf.w + x, v * lf.h + y, ch] == lf.data[u, v, x, y, ch]

    def test_merged_placement(self):
        lf = _arange_lf(2, 2, 2, 2, 2)
        t = lft.to_layout("merged", lf)
        for u, v, x, y, ch in self._each_index(lf.dims):
            assert t[0, x * lf.h + y, (u * lf.v + v) * lf.c + ch] == lf.data[u, v, x, y, ch]

    def test_macpi_placement(self):
        """Macro-pixel at (y, x) holds the full U x V angular patch."""
        lf = _arange_lf(2, 2, 2, 2, 2)
        t = lft.to_layout("macpi", lf)
        for u, v, x, y, ch in self._each_index(lf.dims):
            assert t[y * lf.u + u, x * lf.v + v, ch] == lf.data[u, v, x, y, ch]

    def test_merged_rejects_indivisible_channels(self):
        with pytest.raises(ValueError, match=r"from_layout\('merged'\)"):
            lft.from_layout("merged", np.zeros((1, 4, 7)), 2, 2, 2, 2)
