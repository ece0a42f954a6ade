"""Tests for the dihedral self-ensemble over light-field symmetries.

Each transform must act jointly on the angular and spatial axes, the eight
elements must close under composition, and averaging an equivariant
function must change nothing — bit for bit where the math allows it.
"""

import numpy as np
import pytest

from m2mtnet import ensemble, network, ops
from m2mtnet.autodiff import Var
from m2mtnet.ensemble import LfTransform, all_transforms, apply_transform, invert, self_ensemble
from m2mtnet.lftensor import LfTensor


def _rand_lf(rng, u=3, v=3, w=4, h=4, c=1):
    return LfTensor(rng.standard_normal((u, v, w, h, c)))


def _label_lf(u=2, v=2, w=3, h=3):
    # distinct values let us track exactly where each element lands
    n = u * v * w * h
    return LfTensor(np.arange(n, dtype=np.float64).reshape(u, v, w, h, 1))


class TestTransforms:
    def test_eight_unique_identity_first(self):
        ts = all_transforms()
        assert len(ts) == 8
        assert len(set(ts)) == 8
        assert ts[0] == LfTransform()

    def test_identity_leaves_data_alone(self):
        rng = np.random.default_rng(0)
        lf = _rand_lf(rng)
        np.testing.assert_array_equal(apply_transform(LfTransform(), lf).data, lf.data)

    def test_flip_x_acts_on_u_and_x_jointly(self):
        lf = _label_lf()
        out = apply_transform(LfTransform(flip_x=True), lf).data
        np.testing.assert_array_equal(out, lf.data[::-1, :, ::-1, :, :])

    def test_flip_y_acts_on_v_and_y_jointly(self):
        lf = _label_lf()
        out = apply_transform(LfTransform(flip_y=True), lf).data
        np.testing.assert_array_equal(out, lf.data[:, ::-1, :, ::-1, :])

    def test_transpose_swaps_axis_pairs(self):
        lf = _label_lf()
        out = apply_transform(LfTransform(transpose=True), lf).data
        np.testing.assert_array_equal(out, lf.data.transpose(1, 0, 3, 2, 4))

    def test_transpose_requires_square(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            apply_transform(LfTransform(transpose=True), _rand_lf(rng, u=2, v=3))
        with pytest.raises(ValueError):
            apply_transform(LfTransform(transpose=True), _rand_lf(rng, w=4, h=5))

    def test_every_inverse_exact(self):
        rng = np.random.default_rng(2)
        lf = _rand_lf(rng)
        for t in all_transforms():
            back = apply_transform(invert(t), apply_transform(t, lf))
            np.testing.assert_array_equal(back.data, lf.data)

    def test_group_closure_by_enumeration(self):
        """Composing any two transforms equals some third one."""
        lf = _label_lf(2, 2, 2, 2)
        table = {t: apply_transform(t, lf).data.tobytes() for t in all_transforms()}
        for a in all_transforms():
            for b in all_transforms():
                composed = apply_transform(a, apply_transform(b, lf)).data.tobytes()
                matches = [t for t, img in table.items() if img == composed]
                assert len(matches) == 1, (a, b)


class TestPairwiseSum:
    def test_power_of_two_identical_averages_exactly(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4))
        total = ensemble._pairwise_sum([x.copy() for _ in range(8)])
        np.testing.assert_array_equal(total / 8, x)


class TestSelfEnsemble:
    def test_identity_function_bit_exact(self):
        rng = np.random.default_rng(4)
        lf = _rand_lf(rng)
        out = self_ensemble(lambda a: LfTensor(a.data.copy()), lf)
        np.testing.assert_array_equal(out.data, lf.data)

    def test_equivariant_linear_function_unchanged(self):
        # x -> 2x commutes with every transform, so the ensemble is a no-op
        rng = np.random.default_rng(5)
        lf = _rand_lf(rng)
        out = self_ensemble(lambda a: LfTensor(2.0 * a.data), lf)
        np.testing.assert_array_equal(out.data, 2.0 * lf.data)

    def test_breaks_symmetry_only_where_the_function_does(self):
        """A non-equivariant function must average to something new."""
        rng = np.random.default_rng(8)
        lf = _rand_lf(rng)

        def lopsided(a):
            d = a.data.copy()
            d[:, :, 0] += 1.0  # favors one spatial edge
            return LfTensor(d)

        out = self_ensemble(lopsided, lf)
        assert np.abs(out.data - lopsided(lf).data).max() > 0.1

    def test_zero_weight_network_matches_plain_forward_bitwise(self):
        """All 8 members agree bit-for-bit on a bicubic-only network.

        The resampler commutes exactly with every dihedral action, so the
        ensemble mean of 8 identical arrays is the array itself.
        """
        rng = np.random.default_rng(9)
        cfg = network.NetConfig(u=3, v=3, c=8, c_cor=12, n1=2, n2=1, r=2)
        net = network.build(cfg, dtype=np.float64)
        for k, p in net.params.items():
            p[...] = 1.0 if k.endswith("norm.g") else 0.0
        lf = LfTensor(rng.standard_normal((3, 3, 6, 6, 1)))
        single = net.forward(lf)
        averaged = self_ensemble(net.forward, lf)
        np.testing.assert_array_equal(averaged.data, single.data)

    def test_zero_weight_network_non_square_views_bitwise(self):
        """W != H has no transpose; the four flips still average bit-exactly."""
        rng = np.random.default_rng(10)
        cfg = network.NetConfig(u=3, v=3, c=8, c_cor=12, n1=2, n2=1, r=2)
        net = network.build(cfg, dtype=np.float64)
        for k, p in net.params.items():
            p[...] = 1.0 if k.endswith("norm.g") else 0.0
        lf = LfTensor(rng.standard_normal((3, 3, 6, 4, 1)))
        single = net.forward(lf)
        averaged = self_ensemble(net.forward, lf)
        np.testing.assert_array_equal(averaged.data, single.data)

    @pytest.mark.parametrize(
        "dims, members",
        [((3, 3, 4, 4), 8), ((3, 3, 6, 4), 4), ((2, 3, 4, 4), 4)],
    )
    def test_default_group_follows_the_field_shape(self, dims, members):
        rng = np.random.default_rng(11)
        lf = _rand_lf(rng, *dims)
        seen = []

        def record(a):
            seen.append(a.dims)
            return LfTensor(a.data.copy())

        out = self_ensemble(record, lf)
        assert len(seen) == members
        np.testing.assert_array_equal(out.data, lf.data)
