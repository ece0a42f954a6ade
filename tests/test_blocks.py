"""Tests for the correlation / angular / per-view sub-blocks.

The load-bearing facts: the many-to-many path routes every input view into
every output view, the per-view baseline keeps views independent, the
angular path mixes views only within one spatial location, and every
sub-block degenerates to the identity at zero weights.
"""

from dataclasses import replace

import numpy as np
import pytest

from m2mtnet import blocks, lftensor, network, ops
from m2mtnet.autodiff import Tape, Var
from m2mtnet.network import NetConfig

DIMS = (2, 2, 3, 3, 4)  # (u, v, w, h, c)
SKEW = (2, 3, 4, 5, 6)  # no two axes alike, so a swap in the derived dims shows


def _rand_lf(rng, dims=DIMS):
    return rng.standard_normal(dims)


def _cfg(dims=DIMS, c_cor=6, seed=0):
    """A one-block NetConfig whose grid and channel count match a field of dims."""
    u, v, _, _, c = dims
    return NetConfig(u=u, v=v, c=c, c_cor=c_cor, n1=1, n2=1, seed=seed)


def _params(cfg, sub):
    """Block 0's `sub` ("m2mt", "ang" or "sp") parameters of build(cfg), float64."""
    arch = "o2o" if sub == "sp" else "m2m"
    net = network.build(replace(cfg, arch=arch), np.float64)
    return network._subview(net.params, f"block0.{sub}.")


def _zeroed(params):
    out = {}
    for k, v in params.items():
        if k.endswith("norm.g"):
            out[k] = np.ones_like(v)
        else:
            out[k] = np.zeros_like(v)
    return out


class TestInitializers:
    def test_m2mt_param_shapes(self):
        u, v, c, c_cor = 2, 2, 4, 6
        p = _params(NetConfig(u=u, v=v, c=c, c_cor=c_cor), "m2mt")
        assert p["pos1.w"].shape == (c, c, 3, 3)
        assert p["encode.w"].shape == (u * v * c, c_cor)
        assert p["q.w"].shape == (c_cor, c_cor)
        assert p["ffn1.w"].shape == (c_cor, 2 * c_cor)
        assert p["decode.w"].shape == (c_cor, u * v * c)
        assert all(p[f"{n}.b"].shape == (c_cor,) for n in ("q", "k", "v", "proj"))

    def test_angular_ffn_off_by_default(self):
        p = _params(_cfg(), "ang")
        assert "pos_embed" in p and p["pos_embed"].shape == (4, 4)
        assert not any(k.startswith("ffn") for k in p)

    def test_fixed_transformer_keys(self):
        # one design: pre-norm q/k/v + projection, FFN of width 2*d except angular
        attn = ["att_norm.g", "att_norm.b", "q.w", "q.b", "k.w", "k.b", "v.w", "v.b", "proj.w", "proj.b"]
        ffn = ["ffn_norm.g", "ffn_norm.b", "ffn1.w", "ffn1.b", "ffn2.w", "ffn2.b"]
        cfg = _cfg()
        m2mt = _params(cfg, "m2mt")
        assert list(m2mt) == ["pos1.w", "pos1.b", "pos2.w", "pos2.b", "encode.w", "encode.b",
                              *attn, *ffn, "decode.w", "decode.b"]
        assert list(_params(cfg, "ang")) == ["pos_embed", *attn]
        o2o = _params(cfg, "sp")
        assert list(o2o) == [*attn, *ffn]
        assert o2o["ffn1.w"].shape == (4, 8) and o2o["ffn2.w"].shape == (8, 4)

    def test_glorot_bounds_and_zero_biases(self):
        p = _params(_cfg(c_cor=8), "m2mt")
        bound = np.sqrt(6.0 / (16 + 8))
        assert np.all(np.abs(p["encode.w"]) <= bound)
        np.testing.assert_array_equal(p["encode.b"], 0.0)
        np.testing.assert_array_equal(p["att_norm.g"], 1.0)
        np.testing.assert_array_equal(p["att_norm.b"], 0.0)

    def test_deterministic_given_seed(self):
        p1 = _params(_cfg(seed=7), "m2mt")
        p2 = _params(_cfg(seed=7), "m2mt")
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])


class TestLayoutHelpers:
    def test_merged_matches_container_view(self):
        rng = np.random.default_rng(5)
        x = _rand_lf(rng)
        m = blocks.lf_to_merged(Var(x)).value
        ref = lftensor.to_layout("merged", lftensor.LfTensor(x))
        np.testing.assert_array_equal(m, ref[0])

    def test_merged_round_trip(self):
        rng = np.random.default_rng(6)
        x = _rand_lf(rng)
        back = blocks.merged_to_lf(blocks.lf_to_merged(Var(x)), DIMS).value
        np.testing.assert_array_equal(back, x)

    def test_images_layout_and_round_trip(self):
        rng = np.random.default_rng(7)
        x = _rand_lf(rng)
        u, v, w, h, c = DIMS
        img = blocks.lf_to_images(Var(x)).value
        assert img.shape == (u * v, c, h, w)
        # view (u,v), channel ch, row y, col x
        assert img[1 * v + 1, 2, 1, 0] == x[1, 1, 0, 1, 2]
        back = blocks.images_to_lf(Var(img), DIMS).value
        np.testing.assert_array_equal(back, x)


class TestZeroWeightIdentities:
    """Residual wiring: a zeroed sub-block must pass its input through."""

    def test_m2mt_identity(self):
        rng = np.random.default_rng(8)
        for dims in (DIMS, SKEW):
            x = _rand_lf(rng, dims)
            cfg = _cfg(dims)
            p = _zeroed(_params(cfg, "m2mt"))
            out = blocks.m2mt_forward(Var(x), p).value
            np.testing.assert_array_equal(out, x)

    def test_angular_identity(self):
        rng = np.random.default_rng(9)
        for dims in (DIMS, SKEW):
            x = _rand_lf(rng, dims)
            cfg = _cfg(dims)
            p = _zeroed(_params(cfg, "ang"))
            out = blocks.angular_forward(Var(x), p).value
            np.testing.assert_array_equal(out, x)

    def test_o2o_identity(self):
        rng = np.random.default_rng(10)
        for dims in (DIMS, SKEW):
            x = _rand_lf(rng, dims)
            cfg = _cfg(dims)
            p = _zeroed(_params(cfg, "sp"))
            out = blocks.o2o_spatial_forward(Var(x), p).value
            np.testing.assert_array_equal(out, x)


class TestReceptiveField:
    """Who sees whom: the defining difference between the two schemes."""

    def _perturb_delta(self, forward, x, bump_idx):
        base = forward(Var(x)).value
        xp = x.copy()
        xp[bump_idx] += 1.0
        return np.abs(forward(Var(xp)).value - base)

    def test_m2mt_reaches_every_view(self):
        rng = np.random.default_rng(11)
        for dims in (DIMS, SKEW):
            x = _rand_lf(rng, dims)
            cfg = _cfg(dims)
            p = _params(cfg, "m2mt")
            delta = self._perturb_delta(
                lambda v: blocks.m2mt_forward(v, p), x, (0, 0, 1, 1, 0)
            )
            per_view = delta.max(axis=(2, 3, 4))
            assert np.all(per_view > 1e-9)

    def test_o2o_confined_to_one_view(self):
        rng = np.random.default_rng(12)
        for dims in (DIMS, SKEW):
            x = _rand_lf(rng, dims)
            cfg = _cfg(dims)
            p = _params(cfg, "sp")
            delta = self._perturb_delta(
                lambda v: blocks.o2o_spatial_forward(v, p), x, (0, 0, 1, 1, 0)
            )
            per_view = delta.max(axis=(2, 3, 4))
            assert per_view[0, 0] > 1e-9
            assert np.all(per_view.ravel()[1:] == 0.0)

    def test_angular_confined_to_one_pixel(self):
        # angular attention mixes views but never spatial locations
        rng = np.random.default_rng(13)
        for dims in (DIMS, SKEW):
            x = _rand_lf(rng, dims)
            cfg = _cfg(dims)
            p = _params(cfg, "ang")
            delta = self._perturb_delta(
                lambda v: blocks.angular_forward(v, p), x, (0, 0, 1, 2, 0)
            )
            per_pixel = delta.max(axis=(0, 1, 4))
            assert per_pixel[1, 2] > 1e-9
            mask = np.ones(dims[2:4], dtype=bool)
            mask[1, 2] = False
            assert np.all(per_pixel[mask] == 0.0)


class TestWiring:
    def test_attention_residual_structure(self):
        """out - in == (projected) attention of the normalized stream."""
        rng = np.random.default_rng(14)
        cfg = _cfg()
        p = _params(cfg, "m2mt")
        x = rng.standard_normal((9, 6))
        got = blocks.spatial_self_attention(Var(x), p).value - x
        normed = ops.layer_norm(Var(x), Var(p["att_norm.g"]), Var(p["att_norm.b"]))
        att = ops.attention(
            ops.linear(normed, Var(p["q.w"]), Var(p["q.b"])),
            ops.linear(normed, Var(p["k.w"]), Var(p["k.b"])),
            ops.linear(normed, Var(p["v.w"]), Var(p["v.b"])),
        )
        expect = ops.linear(att, Var(p["proj.w"]), Var(p["proj.b"])).value
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_correlation_block_composition(self):
        rng = np.random.default_rng(15)
        cfg = _cfg()
        pm = _params(cfg, "m2mt")
        pa = _params(cfg, "ang")
        x = _rand_lf(rng)
        got = blocks.correlation_block_forward(Var(x), pm, pa).value
        inner = blocks.angular_forward(blocks.m2mt_forward(Var(x), pm), pa).value
        np.testing.assert_array_equal(got, inner + x)

    def test_gradients_flow_through_block(self):
        rng = np.random.default_rng(17)
        cfg = _cfg()
        pm = _params(cfg, "m2mt")
        pa = _params(cfg, "ang")
        t = Tape()
        x = Var(_rand_lf(rng), t)
        pmv = {k: Var(v, t) for k, v in pm.items()}
        pav = {k: Var(v, t) for k, v in pa.items()}
        out = blocks.correlation_block_forward(x, pmv, pav)
        t.backward(ops.vsum(ops.square(out)), 1.0)
        assert np.abs(x.grad).max() > 0
        for pv in (pmv, pav):
            for k, v in pv.items():
                assert np.all(np.isfinite(v.grad)), k
                if not k.endswith(".b"):
                    assert np.abs(v.grad).max() > 0, k


class TestLayoutTable:
    """The Var layouts in blocks and the NumPy views in lftensor are one table."""

    DIMS5 = (2, 3, 4, 5, 2)  # no two axes alike, so a wrong order shows

    @pytest.mark.parametrize("name", sorted(lftensor.LAYOUTS))
    def test_var_path_matches_numpy_path(self, name):
        x = np.random.default_rng(8).standard_normal(self.DIMS5)
        got = blocks._to(Var(x), name).value
        ref = lftensor.to_layout(name, lftensor.LfTensor(x))
        _, groups = lftensor.LAYOUTS[name]
        assert got.shape == tuple(s for s, g in zip(ref.shape, groups) if g)
        np.testing.assert_array_equal(got, ref.reshape(got.shape))

    @pytest.mark.parametrize("name", sorted(lftensor.LAYOUTS))
    def test_round_trips_are_exact(self, name):
        x = np.random.default_rng(9).standard_normal(self.DIMS5)
        back = blocks._from(blocks._to(Var(x), name), name, self.DIMS5).value
        np.testing.assert_array_equal(back, x)
        u, v, w, h, _ = self.DIMS5
        lf = lftensor.LfTensor(x)
        again = lftensor.from_layout(name, lftensor.to_layout(name, lf), u, v, w, h)
        np.testing.assert_array_equal(again.data, x)

    @pytest.mark.parametrize("name", sorted(lftensor.LAYOUTS))
    def test_backward_applies_the_inverse_permutation(self, name):
        tape = Tape()
        x = Var(np.zeros(self.DIMS5), tape)
        y = blocks._to(x, name)
        seed = np.arange(y.value.size, dtype=np.float64).reshape(y.value.shape)
        tape.backward(y, seed)
        u, v, w, h, _ = self.DIMS5
        shape = lftensor.layout_shape(name, self.DIMS5)
        want = lftensor.from_layout(name, seed.reshape(shape), u, v, w, h).data
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("name", sorted(lftensor.LAYOUTS))
    def test_only_a_reordering_layout_records_a_transpose(self, name, monkeypatch):
        calls = []
        transpose = ops.transpose
        monkeypatch.setattr(ops, "transpose", lambda a, axes: calls.append(axes) or transpose(a, axes))
        tape = Tape()
        x = Var(np.zeros(self.DIMS5), tape)
        blocks._from(blocks._to(x, name), name, self.DIMS5)
        reorders = lftensor.LAYOUTS[name][0] != (0, 1, 2, 3, 4)
        assert len(calls) == (2 if reorders else 0)
        assert len(tape) == (4 if reorders else 2)
        assert reorders == (name != "spatial")
