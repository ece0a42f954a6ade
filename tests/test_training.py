"""Tests for pair construction, losses, Adam, and the overfit loop."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from m2mtnet import network, ops, training
from m2mtnet.autodiff import Tape, Var
from m2mtnet.lftensor import LfTensor, from_layout, to_layout
from m2mtnet.training import AdamState, TrainConfig


def _plaid_hr(u=2, v=2, w=8, h=8):
    """Smooth per-view pattern with a small angular shift."""
    xs = np.arange(w) / w
    ys = np.arange(h) / h
    data = np.empty((u, v, w, h, 1))
    for uu in range(u):
        for vv in range(v):
            img = 0.5 + 0.25 * np.sin(2 * np.pi * (xs[:, None] + 0.3 * uu)) \
                + 0.2 * np.cos(2 * np.pi * (ys[None, :] + 0.3 * vv))
            data[uu, vv, :, :, 0] = img
    return LfTensor(data)


class TestConfig:
    BAD = [("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")), ("iters", 0)]

    def test_defaults_validate(self):
        TrainConfig()

    @pytest.mark.parametrize("field,value", BAD)
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", BAD)
    def test_replace_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            replace(TrainConfig(), **{field: value})


class TestMakePair:
    def test_dims_divide_by_r(self):
        lr, hr = training.make_pair(_plaid_hr(w=8, h=12), 4)
        assert lr.dims == (2, 2, 2, 3, 1)
        assert hr.dims == (2, 2, 8, 12, 1)

    def test_each_view_is_the_bicubic_downsample(self):
        hr = _plaid_hr()
        lr, _ = training.make_pair(hr, 2)
        for uu in range(2):
            for vv in range(2):
                img = hr.data[uu, vv, :, :, 0].T  # view as (H, W)
                ref = ops.resize_bicubic(Var(img), 0.5).value
                np.testing.assert_allclose(lr.data[uu, vv, :, :, 0].T, ref, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("r", [2, 4])
    @pytest.mark.parametrize("dims", [(3, 2, 12, 8, 1), (2, 3, 16, 12, 1), (1, 1, 8, 20, 1), (2, 1, 8, 4, 2)])
    def test_equals_the_image_layout_route(self, dims, r, dtype):
        """Resampling the stored (W, H) axes gives the bits of a resample
        of the (U*V, C, H, W) image batch, mapped back to the field."""
        hr = LfTensor(np.random.default_rng(0).random(dims).astype(dtype))
        lr, same = training.make_pair(hr, r)
        img = ops.resize_bicubic(to_layout("images", hr), 1.0 / r).value
        ref = from_layout("images", img, hr.u, hr.v, hr.w // r, hr.h // r)
        assert same is hr and lr.data.dtype == dtype
        np.testing.assert_array_equal(lr.data, ref.data)

    def test_rejects_indivisible_dims(self):
        with pytest.raises(ValueError):
            training.make_pair(_plaid_hr(w=9), 2)


class TestLosses:
    def test_l1_value(self):
        pred = Var(np.array([1.0, 2.0, 5.0]))
        got = training.l1_loss(pred, np.array([1.0, 4.0, 1.0]))
        assert float(got.value) == pytest.approx(2.0)

    def test_l1_gradient(self):
        t = Tape()
        x = Var(np.array([2.0, -1.0, 0.5, -3.0]), t)
        loss = training.l1_loss(x, np.ones(4))
        t.backward(loss, 1.0)
        np.testing.assert_allclose(x.grad, [0.25, -0.25, -0.25, -0.25])  # sign(x - y)/n


class TestAdam:
    def test_first_step_matches_hand_formula(self):
        cfg = TrainConfig(lr=0.1)
        p = {"w": np.array([1.0, 1.0])}
        g = {"w": np.array([0.5, -2.0])}
        state = AdamState()
        training.adam_step(p, g, state, cfg)
        # bias correction makes step 1 equal lr * g/(|g| + eps)
        expect = 1.0 - 0.1 * np.sign(g["w"]) * np.abs(g["w"]) / (np.abs(g["w"]) + 1e-8)
        np.testing.assert_allclose(p["w"], expect, rtol=1e-9)

    def test_two_steps_track_reference_loop(self):
        cfg = TrainConfig(lr=0.05)
        rng = np.random.default_rng(0)
        p = {"w": rng.standard_normal(4)}
        gs = [rng.standard_normal(4) for _ in range(3)]
        got = {k: v.copy() for k, v in p.items()}
        state = AdamState()
        for g in gs:
            training.adam_step(got, {"w": g}, state, cfg)
        # independent reference implementation
        w = p["w"].copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(gs, start=1):
            m = training.ADAM_BETA1 * m + (1 - training.ADAM_BETA1) * g
            v = training.ADAM_BETA2 * v + (1 - training.ADAM_BETA2) * g * g
            mhat = m / (1 - training.ADAM_BETA1**t)
            vhat = v / (1 - training.ADAM_BETA2**t)
            w -= cfg.lr * mhat / (np.sqrt(vhat) + training.ADAM_EPS)
        np.testing.assert_allclose(got["w"], w, rtol=1e-12)

    def test_zero_gradient_keeps_params(self):
        cfg = TrainConfig()
        p = {"w": np.array([1.0, 2.0])}
        state = AdamState()
        training.adam_step(p, {"w": np.zeros(2)}, state, cfg)
        np.testing.assert_array_equal(p["w"], [1.0, 2.0])

    def test_updates_in_place(self):
        cfg = TrainConfig(lr=0.1)
        arr = np.array([1.0])
        training.adam_step({"w": arr}, {"w": np.array([1.0])}, AdamState(), cfg)
        assert arr[0] != 1.0

    def test_updates_a_nets_buffer_through_its_views(self):
        net = network.build(network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=1, n2=1, r=2), np.float64)
        before = net.flat.copy()
        grads = {n: np.ones_like(p) for n, p in net.params.items()}
        training.adam_step(net.params, grads, AdamState(), TrainConfig(lr=0.1))
        # step 1 moves every parameter by lr * g / (|g| + eps)
        np.testing.assert_allclose(net.flat, before - 0.1 / (1 + 1e-8), rtol=0, atol=1e-15)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            training.adam_step(
                {"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState(), TrainConfig()
            )


class TestTrainToy:
    def _setup(self, iters, seed=0):
        cfg = network.NetConfig(u=2, v=2, c=6, c_cor=10, n1=2, n2=1, r=2, seed=seed)
        net = network.build(cfg, np.float64)
        pair = training.make_pair(_plaid_hr(), 2)
        curve = training.train_toy(net, pair, TrainConfig(iters=iters))
        return net, curve

    def test_loss_goes_down(self):
        _, curve = self._setup(iters=60)
        assert len(curve) == 60
        assert curve[-1] < 0.5 * curve[0]

    def test_float64_net_trains_its_own_buffer(self):
        net = network.build(network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=1, n2=1, r=2), np.float64)
        flat, start = net.flat, net.flat.copy()
        training.train_toy(net, training.make_pair(_plaid_hr(), 2), TrainConfig(iters=2))
        assert net.flat is flat and not np.array_equal(flat, start)

    def test_deterministic_under_fixed_seed(self):
        _, c1 = self._setup(iters=10)
        _, c2 = self._setup(iters=10)
        assert c1 == c2

    def test_nonfinite_input_raises(self):
        cfg = network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=1, n2=1, r=2)
        net = network.build(cfg, np.float64)
        hr = _plaid_hr()
        bad = hr.data.copy()
        bad[0, 0, 0, 0, 0] = np.nan
        pair = (training.make_pair(hr, 2)[0], LfTensor(bad))
        with pytest.raises(FloatingPointError, match="diverged"):
            training.train_toy(net, pair, TrainConfig(iters=3))

    @pytest.mark.parametrize(
        "lr_dims, hr_dims, message",
        [
            ((3, 2, 4, 4, 1), (3, 2, 8, 8, 1), r"^input grid 3x2 != configured 2x2$"),
            ((2, 2, 4, 4, 2), (2, 2, 8, 8, 2), r"^network expects 1 input channel, got 2$"),
            ((2, 2, 4, 4, 1), (2, 2, 16, 16, 1), r"^HR field dims \(2, 2, 16, 16, 1\) != \(2, 2, 8, 8, 1\)"),
            ((2, 2, 4, 4, 1), (2, 2, 8, 6, 1), r"^HR field dims \(2, 2, 8, 6, 1\) != \(2, 2, 8, 8, 1\)"),
            ((2, 2, 4, 4, 1), (2, 1, 8, 8, 1), r"^HR field dims \(2, 1, 8, 8, 1\) != \(2, 2, 8, 8, 1\)"),
        ],
        ids=["lr-grid", "lr-channels", "hr-scale", "hr-height", "hr-grid"],
    )
    def test_bad_pair_leaves_the_net_unchanged(self, lr_dims, hr_dims, message):
        cfg = network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=1, n2=1, r=2)
        net = network.build(cfg, np.float32)
        before = {n: a.copy() for n, a in net.params.items()}
        pair = (LfTensor(np.zeros(lr_dims)), LfTensor(np.zeros(hr_dims)))
        with pytest.raises(ValueError, match=message):
            training.train_toy(net, pair, TrainConfig(iters=2))
        assert list(net.params) == list(before)
        for name, a in net.params.items():
            assert a.dtype == np.float32, name
            np.testing.assert_array_equal(a, before[name], err_msg=name)

    # SHA-256 of the f32 net's 3-step loss curve below, pinned while
    # train_toy cast the parameters in its own loop; the cast must not move it
    F32_CURVE_DIGEST = "d15fc334d79e8f9dcb6d66897e55897c04dace4d0f04e731ef1d78530329528e"

    def test_params_promoted_to_f64(self):
        cfg = network.NetConfig(u=2, v=2, c=4, c_cor=6, n1=1, n2=1, r=2)
        net = network.build(cfg, np.float32)
        params, names = net.params, list(net.params)
        start = net.flat.astype(np.float64)
        pair = training.make_pair(_plaid_hr(), 2)
        curve = training.train_toy(net, pair, TrainConfig(iters=3))
        # the caller's net, and the map it held, show the trained float64 buffer
        assert net.params is params and list(params) == names
        assert net.flat.dtype == np.float64
        assert all(p.dtype == np.float64 and np.shares_memory(p, net.flat) for p in net.params.values())
        assert not np.array_equal(net.flat, start)
        assert hashlib.sha256(np.array(curve).tobytes()).hexdigest() == self.F32_CURVE_DIGEST


class TestLossCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "curve.csv"
        training.write_loss_csv(p, [0.5, 0.25, 0.125])
        lines = p.read_text().splitlines()
        assert lines[0] == "iter,loss"
        assert lines[1] == "0,0.5"
        assert len(lines) == 4
