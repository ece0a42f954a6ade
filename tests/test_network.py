"""Tests for network assembly, the analytic cost model, and weight files.

Small configurations are used throughout; the full-size parameter and flop
totals are pinned separately in the acceptance tests.
"""

import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from m2mtnet import blocks, network, ops
from m2mtnet.autodiff import Tape, Var
from m2mtnet.lftensor import LfTensor
from m2mtnet.network import NetConfig

SMALL = NetConfig(u=2, v=2, c=4, c_cor=6, n1=2, n2=2, r=2, seed=3)


def _rand_lf(rng, cfg, w=4, h=4):
    return LfTensor(rng.standard_normal((cfg.u, cfg.v, w, h, 1)))


class TestConfig:
    BAD = [("n1", 0), ("n2", 0), ("r", 3), ("arch", "both"), ("seed", -1), ("u", 0), ("c_cor", 0)]

    def test_defaults_validate(self):
        NetConfig()

    @pytest.mark.parametrize("field,value", BAD)
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            NetConfig(**{**SMALL.__dict__, field: value})

    @pytest.mark.parametrize("field,value", BAD)
    def test_replace_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            replace(SMALL, **{field: value})

    def test_replace_keeps_the_message(self):
        with pytest.raises(ValueError, match="upscale factor must be 2 or 4, got 3"):
            replace(NetConfig(), r=3)


class TestBuild:
    def test_deterministic(self):
        a = network.build(SMALL, np.float64)
        b = network.build(SMALL, np.float64)
        assert list(a.params) == list(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_seed_changes_weights(self):
        a = network.build(SMALL, np.float64)
        b = network.build(NetConfig(**{**SMALL.__dict__, "seed": 4}), np.float64)
        assert np.abs(a.params["head.0.w"] - b.params["head.0.w"]).max() > 0

    def test_registry_layout(self):
        net = network.build(SMALL)
        names = list(net.params)
        assert names[0] == "head.0.w"
        assert "block0.m2mt.encode.w" in names
        assert "block1.ang.pos_embed" in names
        assert names[-1] == "tail.squeeze.b"
        o2o = network.build_o2o(SMALL)
        assert "block0.sp.q.w" in o2o.params
        assert not any(".m2mt." in n for n in o2o.params)

    def test_num_params_matches_arrays(self):
        for cfg in (SMALL, replace(SMALL, arch="o2o")):
            net = network.build(cfg)
            rows, total = network.count_params(cfg)
            assert rows == [(n, a.size) for n, a in net.params.items()]
            assert total == sum(a.size for a in net.params.values())

    def test_param_subtotal_partition(self):
        rows, total = network.count_params(SMALL)
        blocks_total = sum(s for n, s in rows if n.startswith("block"))
        head_tail = sum(s for n, s in rows if n.startswith(("head.", "tail.")))
        assert blocks_total + head_tail == total


class TestForward:
    def test_output_dims_scale_by_r(self):
        rng = np.random.default_rng(0)
        net = network.build(SMALL, np.float64)
        lf = _rand_lf(rng, SMALL, 4, 6)
        out = net.forward(lf)
        assert out.dims == (2, 2, 8, 12, 1)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(1)
        net = network.build(SMALL, np.float64)
        lf = _rand_lf(rng, SMALL)
        np.testing.assert_array_equal(net.forward(lf).data, net.forward(lf).data)

    def test_rejects_wrong_grid_or_channels(self):
        rng = np.random.default_rng(2)
        net = network.build(SMALL, np.float64)
        with pytest.raises(ValueError):
            net.forward(LfTensor(rng.standard_normal((3, 2, 4, 4, 1))))
        with pytest.raises(ValueError):
            net.forward(LfTensor(rng.standard_normal((2, 2, 4, 4, 2))))

    def test_zero_weights_reduce_to_bicubic(self):
        """With a zeroed net, only the global bicubic skip survives."""
        rng = np.random.default_rng(3)
        skew = replace(SMALL, u=3, v=2, c=6)  # 3x2 views of 5x4 pixels: no two axes alike
        for cfg, w, h in ((SMALL, 4, 4), (skew, 5, 4), (replace(skew, arch="o2o"), 5, 4)):
            net = network.build(cfg, np.float64)
            for k, p in net.params.items():
                p[...] = 1.0 if k.endswith("norm.g") else 0.0
            lf = _rand_lf(rng, cfg, w, h)
            got = net.forward(lf).data
            expect = ops.resize_bicubic(Var(lf.data.transpose(0, 1, 4, 2, 3)), 2.0).value
            np.testing.assert_array_equal(got, expect.transpose(0, 1, 3, 4, 2))

    def test_o2o_views_stay_independent(self):
        rng = np.random.default_rng(4)
        net = network.build_o2o(SMALL, np.float64)
        lf = _rand_lf(rng, SMALL)
        base = net.forward(lf).data
        bumped = lf.data.copy()
        bumped[1, 0, 2, 2, 0] += 1.0
        out = net.forward(LfTensor(bumped)).data
        delta = np.abs(out - base).max(axis=(2, 3, 4))
        assert delta[1, 0] > 1e-9
        mask = np.ones((2, 2), dtype=bool)
        mask[1, 0] = False
        assert np.all(delta[mask] == 0.0)

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_one_view_forward_equals_its_view_of_the_full_output(self, arch):
        """forward_var's view returns that view of the full output, bit for
        bit, on a 3x2 grid of 5x4 views, so the flat index is su*V + sv."""
        cfg = replace(SMALL, u=3, v=2, arch=arch)
        net = network.build(cfg, np.float64)
        x = Var(_rand_lf(np.random.default_rng(6), cfg, 5, 4).data)
        full = net.forward_var(x, net.param_vars(None)).value
        for su, sv in ((0, 0), (2, 1), (1, 0)):
            one = net.forward_var(x, net.param_vars(None), view=(su, sv)).value
            np.testing.assert_array_equal(one, full[su : su + 1, sv : sv + 1])

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_input_leaves_the_field_layout_once(self, arch, monkeypatch):
        """The head and the bicubic residual share one image batch of the
        input, and the output returns to the field layout once."""
        cfg = replace(SMALL, u=3, v=2, arch=arch)
        net = network.build(cfg, np.float64)
        x = Var(_rand_lf(np.random.default_rng(5), cfg, 5, 4).data)
        to_images, to_lf = [], []
        lf_to_images, images_to_lf = blocks.lf_to_images, blocks.images_to_lf

        def spy_to_images(v):
            to_images.append(v)
            return lf_to_images(v)

        def spy_to_lf(v, dims):
            to_lf.append(dims)
            return images_to_lf(v, dims)

        monkeypatch.setattr(blocks, "lf_to_images", spy_to_images)
        monkeypatch.setattr(blocks, "images_to_lf", spy_to_lf)
        out = net.forward_var(x, net.param_vars(None))
        assert sum(v is x for v in to_images) == 1
        assert to_lf.count(out.shape) == 1 and out.shape == (3, 2, 10, 8, 1)

    def test_default_width_forward_peak_memory(self):
        """An f32 forward of the default widths with one block on 5x5 views
        of 32x32: convs run per chunk of images and the tail per view group,
        so it peaks under 80 MB; whole-batch im2col and tail need ~160 MB."""
        net = network.build(NetConfig(n2=1))
        lf = LfTensor(np.random.default_rng(7).random((5, 5, 32, 32, 1)).astype(np.float32))
        tracemalloc.start()
        try:
            net.forward(lf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6, f"peak {peak / 1e6:.1f} MB"

    def test_small_forward_live_peak(self):
        """One untaped f32 SMALL m2m forward on 2x2x32x32 views.  Its
        tracemalloc live peak was 1,560,149 B while names held the head
        output, the m2m output, the normed tokens and the sub-block's pos
        convs past their last reader and attention scaled a copy of q; it
        is 1,386,111 B now.  Pinning any one of them again adds 24-66 kB."""
        net = network.build(SMALL, np.float32)
        lf = LfTensor(np.random.default_rng(0).random((2, 2, 32, 32, 1)))
        net.forward(lf)  # no first-call cache counts
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            net.forward(lf)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 0.9 * 1_560_149, f"peak {peak} B"

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_block_input_freed_before_the_next_block(self, arch, monkeypatch):
        """forward_var rebinds one name per stage: the head output, block
        0's input, is freed before block 1 starts, and so on."""
        net = network.build(replace(SMALL, arch=arch, n2=3), np.float64)
        inputs, alive_at_entry, block = [], [], type(net)._block

        def spy(self, x, pv, j):
            alive_at_entry.append([r() is not None for r in inputs])
            inputs.append(weakref.ref(_root(x.value)))
            return block(self, x, pv, j)

        monkeypatch.setattr(type(net), "_block", spy)
        net.forward(_rand_lf(np.random.default_rng(2), net.cfg, 6, 5))
        assert alive_at_entry == [[], [False], [False, False]]

    def test_astype_round_trip(self):
        net = network.build(SMALL, np.float32)
        d = net.astype(np.float64)
        assert d.params["head.0.w"].dtype == np.float64
        assert d.cfg == net.cfg


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


class TestTailGroups:
    """The tail runs per group of views whose expand output fits the ops
    chunk budget; the groups, one when every view fits, are sliced by
    ops.getitem and joined by ops.concat, and change no value."""

    CFG = NetConfig(u=2, v=3, c=4, c_cor=6, n1=2, n2=1, r=2, seed=3)
    _BUDGET, _SCORE_BLOCKS = ops._CHUNK_BYTES, staticmethod(ops._score_blocks)
    _COLUMN_CHUNKS = staticmethod(blocks._column_chunks)

    def _taped(self, net, x, views, monkeypatch):
        """Output, input gradient and parameter gradients with the tail in
        groups of `views` views, plus the sizes of the groups joined.

        Attention and the angular sub-block's column chunks are tiled as
        under the default budget in every run: a budget small enough to
        split the tail also splits the attention rows and the columns,
        which sums dk and the angular linear gradients in another order,
        and the gradient of a key bias, zero but for rounding, then differs
        by its whole magnitude."""
        w, h = x.shape[2:4]
        tail_bytes = net.cfg.r ** 2 * net.cfg.c * w * h * x.itemsize

        def at_default_budget(f):
            def call(*args):
                with monkeypatch.context() as m:
                    m.setattr(ops, "_CHUNK_BYTES", self._BUDGET)
                    return f(*args)
            return call

        monkeypatch.setattr(ops, "_score_blocks", at_default_budget(self._SCORE_BLOCKS))
        monkeypatch.setattr(blocks, "_column_chunks", at_default_budget(self._COLUMN_CHUNKS))
        monkeypatch.setattr(ops, "_CHUNK_BYTES", views * tail_bytes)
        joined, concat = [], ops.concat

        def recording_concat(xs, axis=0):
            # the tail joins (n, 1, rH, rW) images; the angular sub-block's
            # column chunks are 5-D fields
            out = concat(xs, axis)
            if out.value.ndim == 4:
                joined.extend(len(p.value) for p in xs)
            return out

        monkeypatch.setattr(ops, "concat", recording_concat)
        t = Tape()
        xv, pv = Var(x, t), net.param_vars(t)
        out = net.forward_var(xv, pv)
        t.backward(out, np.random.default_rng(6).standard_normal(out.shape))
        return out.value, xv.grad, [p.grad for p in pv.values()], joined

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_groups_change_no_value(self, arch, dtype, monkeypatch):
        net = network.build(replace(self.CFG, arch=arch), dtype)
        x = np.random.default_rng(5).standard_normal((2, 3, 5, 4, 1)).astype(dtype)
        ref_out, ref_gx, ref_gp, joined = self._taped(net, x, 6, monkeypatch)
        assert joined == [6]
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        for views, groups in ((4, [4, 2]), (2, [2, 2, 2]), (1, [1] * 6)):
            out, gx, gp, joined = self._taped(net, x, views, monkeypatch)
            assert joined == groups
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(net.forward(LfTensor(x)).data, ref_out)
            for got, ref in zip([gx] + gp, [ref_gx] + ref_gp):
                assert got.dtype == dtype
                assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestCostModel:
    def test_flops_scale_with_patch_area_head(self):
        rows, _ = network.count_flops(SMALL, 8)
        rows2, _ = network.count_flops(SMALL, 16)
        head = dict(rows)["head.0"]
        head2 = dict(rows2)["head.0"]
        assert head2 == 4 * head

    def test_head_conv_flops_formula(self):
        cfg = SMALL
        rows, _ = network.count_flops(cfg, 8)
        # first conv: 2 flops/mac * Cout*Cin*3*3 * pixels * views
        expect = 2 * cfg.c * 1 * 9 * 64 * (cfg.u * cfg.v)
        assert dict(rows)["head.0"] == expect

    def test_attention_quadratic_in_tokens(self):
        base = dict(network.count_flops(SMALL, 8)[0])["block0.m2mt.attention"]
        big = dict(network.count_flops(SMALL, 16)[0])["block0.m2mt.attention"]
        # token count grows 4x, so the T^2 terms grow 16x
        assert big == pytest.approx(16 * base, rel=0.01)

    def test_per_block_increment_constant(self):
        cfgs = [NetConfig(**{**SMALL.__dict__, "n2": n}) for n in (1, 2, 3)]
        totals = [network.count_flops(c, 8)[1] for c in cfgs]
        assert totals[2] - totals[1] == totals[1] - totals[0]

    def test_param_count_closed_form_small(self):
        """Cross-check counted params against an independent closed form."""
        cfg = SMALL
        net = network.build(cfg)
        c, d, uv = cfg.c, cfg.c_cor, cfg.u * cfg.v
        head = (c * 1 * 9 + c) + (c * c * 9 + c)
        pos = 2 * (c * c * 9 + c)
        enc_dec = 2 * (uv * c * d + max(d, uv * c))  # w + b each way
        enc_dec = (uv * c * d + d) + (d * uv * c + uv * c)
        qkv_proj = 4 * (d * d + d)
        norms = 2 * 2 * d
        ffnp = (d * 2 * d + 2 * d) + (2 * d * d + d)
        m2mt = pos + enc_dec + qkv_proj + norms + ffnp
        ang = (uv * c) + 2 * c + 4 * (c * c + c)
        tail = (4 * c * c + 4 * c) + (1 * c * 9 + 1)
        expect = head + cfg.n2 * (m2mt + ang) + tail
        assert network.count_params(cfg)[1] == expect
        assert sum(a.size for a in net.params.values()) == expect


def _m2mw1_payload(net):
    """The payload an M2MW1 file held: every tensor, in order, little-endian."""
    return b"".join(np.ascontiguousarray(a, a.dtype.newbyteorder("<")).tobytes() for a in net.params.values())


class TestWeightFiles:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("r", [2, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_round_trip_keeps_the_config_and_every_tensor(self, tmp_path, arch, dtype, r, seed):
        net = network.build(replace(SMALL, arch=arch, r=r, seed=seed), dtype)
        p = tmp_path / "w.m2mw"
        network.save_weights(p, net)
        for want in (np.float32, np.float64):
            again = network.net_from_file(p, SMALL.u, SMALL.v, want)
            assert again.cfg == net.cfg and type(again) is type(net)
            assert list(again.params) == list(net.params)
            for n, a in net.params.items():
                assert again.params[n].dtype == want
                assert np.array_equal(again.params[n], a.astype(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layout_is_header_then_the_m2mw1_payload(self, tmp_path, dtype):
        net = network.build(replace(SMALL, arch="o2o", seed=7), dtype)
        p = tmp_path / "w.m2mw"
        network.save_weights(p, net)
        header = (
            f"dtype={np.dtype(dtype).newbyteorder('<').str}\n"
            "u=2\nv=2\nc=4\nc_cor=6\nn1=2\nn2=2\nr=2\nseed=7\narch=o2o\n"
        ).encode()
        assert p.read_bytes() == b"M2MW2" + len(header).to_bytes(4, "little") + header + _m2mw1_payload(net)

    def test_net_from_file_forward_matches(self, tmp_path):
        rng = np.random.default_rng(5)
        net = network.build(SMALL, np.float64)
        p = tmp_path / "w.m2mw"
        network.save_weights(p, net)
        again = network.net_from_file(p, SMALL.u, SMALL.v, np.float64)
        lf = _rand_lf(rng, SMALL)
        np.testing.assert_array_equal(again.forward(lf).data, net.forward(lf).data)

    def test_o2o_file_loads_on_any_grid(self, tmp_path):
        net = network.build(replace(SMALL, arch="o2o"))
        p = tmp_path / "w.m2mw"
        network.save_weights(p, net)
        again = network.net_from_file(p, 3, 1)
        assert again.cfg == replace(net.cfg, u=3, v=1)

    def test_wrong_grid_fails_loudly(self, tmp_path):
        net = network.build(SMALL)
        p = tmp_path / "w.m2mw"
        network.save_weights(p, net)
        with pytest.raises(ValueError) as e:
            network.net_from_file(p, 3, 3)
        assert str(e.value) == f"{p}: weights for a 2x2 grid, input grid is 3x3; wrong --central or grid?"


class TestFlatBuffer:
    """A net is its config plus one buffer: every parameter is a view into
    net.flat, in param_specs order, and the name -> view map is read-only."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_params_are_views_of_flat(self, arch, dtype):
        net = network.build(replace(SMALL, arch=arch), dtype)
        assert net.flat.dtype == dtype and net.flat.shape == (network.count_params(net.cfg)[1],)
        assert np.array_equal(np.concatenate([a.ravel() for a in net.params.values()]), net.flat)
        for name, a in net.params.items():
            assert np.shares_memory(a, net.flat), name
            a[...] = 7.0
            assert np.all(net.params[name] == 7.0)
        assert np.all(net.flat == 7.0)

    def test_params_map_is_read_only(self):
        net = network.build(SMALL)
        with pytest.raises(TypeError):
            net.params["head.0.b"] = np.zeros(4, np.float32)
        with pytest.raises(TypeError):
            del net.params["head.0.b"]

    def test_astype_and_file_give_a_fresh_buffer(self, tmp_path):
        net = network.build(SMALL, np.float64)
        network.save_weights(tmp_path / "w.m2mw", net)
        for again in (net.astype(np.float64), network.net_from_file(tmp_path / "w.m2mw", SMALL.u, SMALL.v, np.float64)):
            assert np.array_equal(again.flat, net.flat) and not np.shares_memory(again.flat, net.flat)
            assert again.flat.flags.writeable

    @pytest.mark.parametrize("fault", ["short", "long", "2-D", "float16", "int64", "mapping"])
    def test_constructor_refuses_a_buffer_that_does_not_fit(self, fault):
        count = network.count_params(SMALL)[1]
        flat = {
            "short": np.zeros(count - 1),
            "long": np.zeros(count + 1),
            "2-D": np.zeros((1, count)),
            "float16": np.zeros(count, np.float16),
            "int64": np.zeros(count, np.int64),
            "mapping": network.build(SMALL).params,
        }[fault]
        with pytest.raises(ValueError, match=rf"^a m2m net needs a 1-D float32 or float64 buffer of {count} values, got "):
            network.Network(SMALL, flat)

    def test_build_refuses_a_dtype_a_file_cannot_hold(self):
        with pytest.raises(ValueError, match="1-D float32 or float64 buffer"):
            network.build(SMALL, np.float16)


TOY = NetConfig(u=2, v=2, c=3, c_cor=5, n1=2, n2=1, r=2)


def _digest(net):
    """SHA-256 over the name, dtype, dims and bytes of every parameter, in order."""
    h = hashlib.sha256()
    for n, a in net.params.items():
        h.update(f"{n} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# _digest of build(replace(cfg, arch=arch), dtype), as drawn by the per-block
# initializers that param_specs replaced; a changed draw order, bound or
# registry order shows here.
DIGESTS = {
    ("SMALL", "m2m", "f64"): "423e530810c70d2548459348d98f7827a932e8aa27cad53781c2e9fd1c9fb15c",
    ("SMALL", "o2o", "f64"): "633788545d241ecb0b9156d3ee8abf4d8efc5eb0d08203df6a75fb8302aa5309",
    ("TOY", "m2m", "f32"): "758250937416fde3d380ad4812c617a8061bc5a9229ad1d66e7ee96916557645",
    ("TOY", "m2m", "f64"): "93d3f0ee08664162e13bfc3b2a5848111f14385f1ee1abde1f49487fb31e7a94",
    ("TOY", "o2o", "f32"): "efabc0690feead47bb6938d9d6bb89b6758fb43962266f2424101af0cf63a5cd",
    ("TOY", "o2o", "f64"): "2363e81fe04785e654100c6855494d36d3ed6752f709c749acd93a849b0cfeb5",
}


class TestArchDispatch:
    def test_build_follows_cfg_arch(self):
        m2m = network.build(SMALL, np.float64)
        assert type(m2m) is network.Network and m2m.cfg.arch == "m2m"
        assert _digest(m2m) == DIGESTS["SMALL", "m2m", "f64"]
        o2o = network.build(replace(SMALL, arch="o2o"), np.float64)
        assert type(o2o) is network.O2OBaseline and o2o.cfg.arch == "o2o"
        assert _digest(o2o) == DIGESTS["SMALL", "o2o", "f64"]

    def test_build_o2o_records_its_arch(self):
        net = network.build_o2o(TOY, np.float64)
        assert type(net) is network.O2OBaseline and net.cfg.arch == "o2o"
        assert _digest(net) == DIGESTS["TOY", "o2o", "f64"]
        # the cost model of the built baseline is the baseline's
        assert network.count_flops(net.cfg, 8)[1] == 444416
        assert network.count_flops(TOY, 8)[1] == 391168

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_build_bytes_pinned(self, arch, dtype):
        net = network.build(replace(TOY, arch=arch), {"f32": np.float32, "f64": np.float64}[dtype])
        assert _digest(net) == DIGESTS["TOY", arch, dtype]


class TestParamSpecs:
    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_names_and_dims_are_the_built_nets(self, arch):
        cfg = replace(SMALL, arch=arch)
        net = network.build(cfg)
        assert [(n, d) for n, d, _ in network.param_specs(cfg)] == [(n, a.shape) for n, a in net.params.items()]
        for name, _, init in network.param_specs(cfg):
            if not isinstance(init, tuple):
                np.testing.assert_array_equal(net.params[name], init)

    def test_o2o_params_do_not_depend_on_the_grid(self):
        """What lets lam run the per-view baseline on one view: its
        parameters fit a net of any grid.  The m2m encoder's do not."""
        grids = ((1, 1), (3, 2), (5, 5))
        o2o = [network.param_specs(replace(SMALL, u=u, v=v, arch="o2o")) for u, v in grids]
        assert o2o[0] == o2o[1] == o2o[2]
        m2m = [network.param_specs(replace(SMALL, u=u, v=v)) for u, v in grids]
        assert m2m[0] != m2m[1] != m2m[2]

    def test_only_the_per_view_baseline_keeps_views_apart(self):
        assert {cls: cls.mixes_views for cls in network._NETS.values()} == {
            network.Network: True,
            network.O2OBaseline: False,
        }

    def test_net_from_file_reads_once_and_draws_nothing(self, tmp_path, monkeypatch):
        net = network.build(SMALL, np.float64)
        p = tmp_path / "w.m2mw"
        network.save_weights(p, net)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        def no_draw(*args, **kwargs):
            raise AssertionError("net_from_file drew from an RNG")

        monkeypatch.setattr(network, "open", counting_open, raising=False)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        again = network.net_from_file(p, SMALL.u, SMALL.v, np.float64)
        assert opened == [p]
        assert type(again) is network.Network and again.cfg == SMALL
        assert list(again.params) == list(net.params)
        for n, a in net.params.items():
            assert again.params[n].dtype == a.dtype
            np.testing.assert_array_equal(again.params[n], a)


class TestCostModelMatchesForward:
    """count_flops against FLOPs counted at every conv2d, linear and attention
    call of a real forward: a conv2d or linear call is attributed to its
    weight's name without ".w", an attention call to "<pre>.attention" of
    the transformer whose v projection ran just before it."""

    def _counted(self, net, patch, monkeypatch):
        fpm = net.cfg.flops_per_mac
        pv = net.param_vars(None)
        layer_of = {id(var): n.removesuffix(".w") for n, var in pv.items()}
        counted: dict[str, int] = {}
        last = []

        def count(layer, flops):
            last[:] = [layer]
            counted[layer] = counted.get(layer, 0) + flops

        conv2d, linear, attention = ops.conv2d, ops.linear, ops.attention

        def counting_conv2d(x, kernel, bias):
            out = conv2d(x, kernel, bias)
            cout, cin, kh, kw = kernel.value.shape
            hout, wout = out.value.shape[-2:]
            views = out.value.shape[0] if out.value.ndim == 4 else 1
            count(layer_of[id(kernel)], fpm * cout * cin * kh * kw * hout * wout * views)
            return out

        def counting_linear(x, w, b):
            out = linear(x, w, b)
            din, dout = w.value.shape
            count(layer_of[id(w)], fpm * din * dout * (x.value.size // din))
            return out

        def counting_attention(q, k, v):
            out = attention(q, k, v)
            tq, d = q.value.shape[-2:]
            tk, dv = k.value.shape[-2], v.value.shape[-1]
            assert (tq, dv) == (tk, d)  # the count_flops formula assumes both
            per = fpm * tq * tq * d * 2 + 5 * tq * tq
            pre, proj = last[0].rsplit(".", 1)
            assert proj == "v"
            count(f"{pre}.attention", per * (q.value.size // (tq * d)))
            return out

        monkeypatch.setattr(ops, "conv2d", counting_conv2d)
        monkeypatch.setattr(ops, "linear", counting_linear)
        monkeypatch.setattr(ops, "attention", counting_attention)
        x = np.random.default_rng(0).standard_normal((net.cfg.u, net.cfg.v, patch, patch, 1))
        net.forward_var(Var(x), pv)
        return counted

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    @pytest.mark.parametrize(
        "switches",
        [{}, {"n1": 1}, {"r": 4}, {"n1": 1, "r": 4}],
    )
    def test_per_layer_and_total(self, arch, switches, monkeypatch):
        cfg = replace(NetConfig(u=2, v=3, c=4, c_cor=6, n1=2, n2=2, r=2), arch=arch, **switches)
        self._check(cfg, monkeypatch)

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_tail_in_one_view_groups(self, arch, monkeypatch):
        # a 1-byte budget: one view per tail group, one image per conv chunk
        monkeypatch.setattr(ops, "_CHUNK_BYTES", 1)
        self._check(replace(NetConfig(u=2, v=3, c=4, c_cor=6, n1=2, n2=1, r=2), arch=arch), monkeypatch)

    def _check(self, cfg, monkeypatch):
        patch = 3
        counted = self._counted(network.build(cfg, np.float64), patch, monkeypatch)
        rows, total = network.count_flops(cfg, patch)
        assert counted == dict(rows)
        # one row per layer, in the order the forward first runs them
        assert list(counted.items()) == rows
        assert sum(counted.values()) == total


class TestReadOnlyInputs:
    """No op writes into an array it was given: with the input and every
    parameter read-only, forwards and backwards run and change no value.
    Op outputs may be views of their inputs (see ops), so a write into one
    would reach the input or a parameter and fail here."""

    @staticmethod
    def _net_and_input(arch, writable):
        rng = np.random.default_rng(17)
        net = network.build(replace(TOY, arch=arch), np.float64)
        # random weights everywhere, so no branch is skipped by a zero
        for a in net.params.values():
            a[...] = rng.standard_normal(a.shape) * 0.3
        x = rng.standard_normal((TOY.u, TOY.v, 4, 4, 1))
        for a in [x, net.flat, *net.params.values()]:
            a.setflags(write=writable)
        return net, x

    @staticmethod
    def _run(net, x):
        plain = net.forward_var(Var(x), net.param_vars(None)).value
        t = Tape()
        xv, pv = Var(x, t), net.param_vars(t)
        out = net.forward_var(xv, pv)
        t.backward(out, np.cos(out.value))
        return plain, out.value, xv.grad, {n: v.grad for n, v in pv.items()}

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_forward_and_backward_on_read_only_arrays(self, arch):
        net, x = self._net_and_input(arch, writable=False)
        before = [a.copy() for a in (x, *net.params.values())]
        got = self._run(net, x)
        for a, b in zip((x, *net.params.values()), before):
            assert not a.flags.writeable
            np.testing.assert_array_equal(a, b)
        ref = self._run(*self._net_and_input(arch, writable=True))
        for g, r in zip(got[:3], ref[:3]):
            np.testing.assert_array_equal(g, r)
        assert got[3].keys() == ref[3].keys()
        for name in ref[3]:
            np.testing.assert_array_equal(got[3][name], ref[3][name], err_msg=name)
