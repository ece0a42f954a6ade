"""Tests for the 5-D light-field container and its six subspace views.

Every view must be a bijection (round-trip bit-exact) and must place each
element exactly where the flattened index formulas say it goes.
"""

import struct

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


class TestTensorFile:
    def test_round_trip_f32_f64(self, tmp_path):
        rng = np.random.default_rng(5)
        for dt in (np.float32, np.float64):
            arr = rng.standard_normal((2, 3, 4)).astype(dt)
            p = tmp_path / f"t_{np.dtype(dt).name}.lft"
            lft.write_lft1(p, arr)
            back = lft.read_lft1(p)
            assert back.dtype == np.dtype(dt)
            np.testing.assert_array_equal(back, arr)

    def test_scalar_and_1d(self, tmp_path):
        p = tmp_path / "s.lft"
        lft.write_lft1(p, np.float64(3.5).reshape(()))
        assert lft.read_lft1(p).shape == ()
        lft.write_lft1(p, np.arange(4.0))
        np.testing.assert_array_equal(lft.read_lft1(p), np.arange(4.0))

    def test_rejects_int_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="float32/float64"):
            lft.write_lft1(tmp_path / "x.lft", np.arange(4))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.lft"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="magic"):
            lft.read_lft1(p)

    def test_bad_dtype_code(self, tmp_path):
        p = tmp_path / "bad.lft"
        p.write_bytes(b"LFT1" + bytes([9, 0, 0, 0]))
        with pytest.raises(ValueError, match="dtype code"):
            lft.read_lft1(p)

    def test_nonzero_reserved(self, tmp_path):
        p = tmp_path / "bad.lft"
        p.write_bytes(b"LFT1" + bytes([0, 0, 1, 0]))
        with pytest.raises(ValueError, match="reserved"):
            lft.read_lft1(p)

    @pytest.mark.parametrize("keep", [5, 8, 19])
    def test_truncated_header(self, tmp_path, keep):
        """Cut inside the flag bytes, before the dims, or inside them."""
        p = tmp_path / "t.lft"
        lft.write_lft1(p, np.zeros((4, 4), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated LFT1 header"):
            lft.read_lft1(p)

    def test_dims_past_int64_are_a_truncated_payload(self, tmp_path):
        """2**32 * 2**32 elements wrap to 0 in int64; the size check must not."""
        p = tmp_path / "t.lft"
        p.write_bytes(b"LFT1" + bytes([0, 2, 0, 0]) + struct.pack("<2Q", 2**32, 2**32))
        with pytest.raises(ValueError, match="truncated LFT1 payload"):
            lft.read_lft1(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.lft"
        lft.write_lft1(p, np.zeros((4, 4), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            lft.read_lft1(p)
