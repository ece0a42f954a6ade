"""Tests for the reverse-mode tape: recording, replay, and gradcheck.

The tape replays vjps in reverse execution order and accumulates into
.grad, so shared subexpressions sum their contributions (product rule).
Constants, Vars without a tape, get no gradient.
"""

import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from m2mtnet import attribution, network, ops, training
from m2mtnet.autodiff import Tape, Var, _Region, gradcheck, rel_error
from m2mtnet.lftensor import LfTensor

TOY = network.NetConfig(u=2, v=2, c=3, c_cor=5, n1=2, n2=1, r=2)

# SHA-256 of x.grad in test_constant_parameters_get_no_gradient, computed
# while constants still received (and the vjps still computed) gradients
INPUT_GRAD_DIGESTS = {
    "m2m": "84997599f6cdca93abc128d9b91f77b88e91c2c36fb7c63818ff56e30e64f226",
    "o2o": "09d6321a78484dc0d06e20841b689903d36da6365e786d1db0935e3760578721",
}


class TestVar:
    def test_grad_lazy_zeros(self):
        v = Var(np.ones((2, 3)))
        g = v.grad
        assert g.shape == (2, 3)
        np.testing.assert_array_equal(g, 0.0)

    def test_grad_setter_validates_dims(self):
        v = Var(np.ones((2, 3)))
        with pytest.raises(ValueError):
            v.grad = np.zeros((3, 2))

    def test_constant_has_no_tape(self):
        assert Var(np.ones(2)).tape is None

    def test_tape_var_is_owned(self):
        t = Tape()
        assert Var(np.ones(2), t).tape is t


class TestTape:
    def test_records_appended_per_op(self):
        t = Tape()
        x = Var(np.ones(3), t)
        y = ops.add(x, x)
        z = ops.vsum(y)
        assert len(t) == 2
        assert z.tape is t

    def test_backward_simple_chain(self):
        t = Tape()
        x = Var(np.array([1.0, 2.0, 3.0]), t)
        y = ops.vsum(ops.square(x))
        t.backward(y, 1.0)
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_shared_subexpression_accumulates(self):
        # z = x*x + x*x -> dz/dx = 4x via two vjp contributions
        t = Tape()
        x = Var(np.array([3.0]), t)
        sq = ops.square(x)
        z = ops.vsum(ops.add(sq, sq))
        t.backward(z, 1.0)
        np.testing.assert_allclose(x.grad, [12.0])

    def test_later_contribution_leaves_the_shared_array_alone(self):
        # add's vjp hands one array to a and b; square(a) is recorded before
        # add, so its contribution to a arrives after that array is stored
        t = Tape()
        a = Var(np.array([1.0, 2.0]), t)
        b = Var(np.array([3.0, 4.0]), t)
        sq = ops.square(a)
        s = ops.add(a, b)
        t.backward(ops.add(s, sq), np.array([5.0, 6.0]))
        assert b.grad is s.grad
        np.testing.assert_array_equal(b.grad, [5.0, 6.0])
        np.testing.assert_array_equal(a.grad, [5.0 + 5.0 * 2.0, 6.0 + 6.0 * 4.0])

    def test_later_region_leaves_the_shared_array_alone(self):
        # concat hands s a view of the seed and add hands that view to a
        # and b; the getitem of a, recorded first, then adds a region to a
        t = Tape()
        a = Var(np.array([1.0, 2.0]), t)
        b = Var(np.array([3.0, 4.0]), t)
        first = ops.getitem(a, slice(0, 1))
        s = ops.add(a, b)
        seed = np.array([5.0, 6.0, 7.0])
        t.backward(ops.concat([s, first]), seed)
        assert b.grad is s.grad and np.shares_memory(b.grad, seed)
        np.testing.assert_array_equal(seed, [5.0, 6.0, 7.0])
        np.testing.assert_array_equal(b.grad, [5.0, 6.0])
        np.testing.assert_array_equal(a.grad, [5.0 + 7.0, 6.0])
        assert not np.shares_memory(a.grad, seed)

    def test_region_then_shared_array(self):
        # the region lands in a buffer a's slot owns, so the shared array
        # that follows is added into it and itself left alone
        t = Tape()
        a = Var(np.array([1.0, 2.0]), t)
        b = Var(np.array([3.0, 4.0]), t)
        s = ops.add(a, b)
        last = ops.getitem(a, slice(1, 2))
        seed = np.array([5.0, 6.0, 7.0])
        t.backward(ops.concat([s, last]), seed)
        np.testing.assert_array_equal(seed, [5.0, 6.0, 7.0])
        np.testing.assert_array_equal(b.grad, [5.0, 6.0])
        np.testing.assert_array_equal(a.grad, [5.0, 6.0 + 7.0])

    def test_seed_scales_gradient(self):
        t = Tape()
        x = Var(np.array([2.0]), t)
        y = ops.vsum(ops.square(x))
        t.backward(y, 5.0)
        np.testing.assert_allclose(x.grad, [20.0])

    def test_constants_get_no_gradient(self):
        # tape-less Vars flow through ops but backward gives them nothing
        t = Tape()
        x = Var(np.full(2, 2.0), t)
        c = Var(np.full(2, 3.0))
        y = ops.vsum(ops.mul(x, c))
        t.backward(y, 1.0)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        np.testing.assert_array_equal(c.grad, [0.0, 0.0])

    @pytest.mark.parametrize("arch", ["m2m", "o2o"])
    def test_constant_parameters_get_no_gradient(self, arch):
        """A taped forward with constant parameters, as attribution runs it,
        leaves every parameter without a gradient, and the input gradient
        is the one the net gave when constants still took gradients."""
        net = network.build(replace(TOY, arch=arch), np.float64)
        rng = np.random.default_rng(5)
        t = Tape()
        x = Var(rng.random((2, 2, 4, 4, 1)), t)
        pv = net.param_vars(None)
        out = net.forward_var(x, pv)
        t.backward(out, rng.standard_normal(out.shape))
        assert [n for n, p in pv.items() if p._grad is not None] == []
        assert hashlib.sha256(x.grad.tobytes()).hexdigest() == INPUT_GRAD_DIGESTS[arch]

    def test_backward_rejects_foreign_output(self):
        t1, t2 = Tape(), Tape()
        x = Var(np.ones(2), t2)
        y = ops.vsum(ops.square(Var(np.ones(2), t1)))
        z = ops.vsum(ops.square(x))
        with pytest.raises(ValueError, match="belong"):
            t2.backward(y, 1.0)
        # rejected before anything is consumed: the tape still replays
        assert len(t2) == 2
        t2.backward(z, 1.0)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_backward_rejects_bad_seed_dims(self):
        t = Tape()
        x = Var(np.ones((2, 2)), t)
        y = ops.add(x, x)
        with pytest.raises(ValueError, match="seed dims"):
            t.backward(y, np.ones(3))
        assert len(t) == 1
        t.backward(y, np.ones((2, 2)))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_mixing_tapes_is_an_error(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ValueError):
            ops.add(Var(np.ones(2), t1), Var(np.ones(2), t2))

    def test_backward_spends_the_tape(self):
        t = Tape()
        x = Var(np.ones(2), t)
        y = ops.vsum(ops.square(x))
        assert len(t) == 2
        t.backward(y, 1.0)
        assert len(t) == 0
        with pytest.raises(ValueError, match="spent"):
            t.backward(y, 1.0)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_spent_tape_refuses_records(self):
        t = Tape()
        x = Var(np.ones(2), t)
        t.backward(ops.vsum(x), 1.0)
        with pytest.raises(ValueError, match="spent"):
            ops.add(x, 1.0)
        with pytest.raises(ValueError, match="spent"):
            t.record(Var(np.ones(2), t), (x,), lambda g: (g,))
        assert len(t) == 0

    def test_raising_vjp_leaves_the_tape_spent(self):
        t = Tape()
        x = Var(np.ones(2), t)
        y = ops.vsum(x)
        out = Var(y.value, t)

        def vjp(g):
            raise RuntimeError("vjp failed")

        t.record(out, (y,), vjp)
        with pytest.raises(RuntimeError, match="vjp failed"):
            t.backward(out, 1.0)
        assert len(t) == 0
        with pytest.raises(ValueError, match="spent"):
            t.backward(out, 1.0)

    def test_backward_peak_is_a_few_arrays(self):
        """Each record is dropped once replayed, so a chain's backward holds
        a couple of gradients at a time; keeping every record to the end
        would hold one per step."""
        n, depth = 250_000, 12
        t = Tape()
        y = Var(np.linspace(-1.0, 1.0, n), t)
        for _ in range(depth):
            y = ops.leaky_relu(ops.add(y, 1.0))
        seed = np.ones(n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            t.backward(y, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 3 * seed.nbytes


def _spy_records(t: Tape) -> list:
    """Wrap every record's vjp on t to log its output's gradient slot when
    it runs: a record holds slots, not Vars."""
    ran = []

    def spy(out, vjp):
        def run(g):
            ran.append(out)
            return vjp(g)

        return run

    t._records = [(out, parents, spy(out, vjp)) for out, parents, vjp in t._records]
    return ran


def _dense_backward(t: Tape, output: Var, seed) -> None:
    """Reference replay: every record's vjp runs, on zeros when no gradient
    reached its output."""
    records, t._records = t._records, None
    output.grad = seed
    for out, parents, vjp in reversed(records):
        for p, g in zip(parents, vjp(np.zeros(out.dims) if out._grad is None else out._grad)):
            if p is not None and g is not None:
                p.add(g)


class TestDeadRecords:
    """backward skips a record whose output received no gradient."""

    @staticmethod
    def _forward(t: Tape, kind: str):
        """A graph with a branch that never reaches the output, and two
        groups of which only the first does, as lam's tail groups."""
        rng = np.random.default_rng(9)
        leaves = {
            "x": Var(rng.standard_normal((2, 3, 4, 5)), t),
            "k": Var(rng.standard_normal((3, 3, 3, 3)), t),
            "w": Var(rng.standard_normal((5, 5)), t),
        }
        x = leaves["x"]
        h = ops.leaky_relu(x)
        unused = ops.linear(ops.transpose(x, (0, 2, 1, 3)), leaves["w"], np.zeros(5))
        groups = []
        for i in range(2):
            part = ops.getitem(h, slice(i, i + 1))
            if kind == "conv2d":
                groups.append(ops.conv2d(part, leaves["k"], np.zeros(3)))
            else:
                groups.append(ops.attention(part, part, part))
        y = ops.concat(groups)
        out = ops.add(ops.vsum(ops.square(ops.getitem(y, slice(0, 1)))), ops.vsum(x))
        return leaves, out, {"unused": unused, "dead group": groups[1]}

    @pytest.mark.parametrize("kind", ["conv2d", "attention"])
    def test_branches_without_gradient_never_run(self, kind):
        t = Tape()
        leaves, out, dead = self._forward(t, kind)
        ran = _spy_records(t)
        t.backward(out, 1.0)
        ran_ids = {id(s) for s in ran}
        for name, v in dead.items():
            # the dead group's own vjp runs on its zero slice of g, hands
            # its parents None, and so the getitem that feeds it never runs
            assert (id(v._slot) in ran_ids) == (name == "dead group"), name
        assert len(ran) == len(ran_ids)  # each at most once
        assert leaves["w"]._grad is None  # read below as zeros all the same
        ref = Tape()
        ref_leaves, ref_out, _ = self._forward(ref, kind)
        _dense_backward(ref, ref_out, np.float64(1.0))
        for name, v in leaves.items():
            r = ref_leaves[name]
            assert v.grad.dtype == r.grad.dtype, name
            np.testing.assert_array_equal(v.grad, r.grad, err_msg=name)
        np.testing.assert_array_equal(leaves["w"].grad, 0)

    def test_getitem_feeding_a_dead_group_is_skipped(self):
        t = Tape()
        _, out, dead = self._forward(t, "conv2d")
        n_before = len(t)
        ran = _spy_records(t)
        t.backward(out, 1.0)
        # the unused linear and transpose, and the dead group's getitem
        assert n_before - len(ran) == 3


def _scatter_backward(t: Tape, output: Var, seed) -> None:
    """Reference replay: each region gradient becomes zeros of its parent's
    full dims with the part scattered in, and the tape adds those."""
    records, t._records = t._records, None
    output.grad = seed
    for out, parents, vjp in reversed(records):
        if out._grad is None:
            continue
        for p, g in zip(parents, vjp(out._grad)):
            if p is not None and g is not None:
                if isinstance(g, _Region):
                    full = np.zeros(p.dims, g.part.dtype)
                    full[g.index] = g.part
                    g = full
                p.add(g)


class TestRegionGradients:
    """A getitem's gradient is a region of its parent: the parent's slot
    adds it into one full-dims buffer of its own."""

    G = 8

    def _groups(self, t, x0):
        """The tail-groups pattern: x sliced into G groups along axis 0,
        each group through its own ops, and the groups joined."""
        x = Var(x0, t)
        n = len(x0) // self.G
        parts = [ops.leaky_relu(ops.scale(ops.getitem(x, slice(i * n, (i + 1) * n)), 1.5 + i)) for i in range(self.G)]
        return x, ops.concat(parts)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_dense_scatter(self, dtype):
        x0 = np.random.default_rng(0).standard_normal((self.G * 3, 4, 5)).astype(dtype)
        seed = np.random.default_rng(1).standard_normal(x0.shape).astype(dtype)
        t = Tape()
        x, out = self._groups(t, x0)
        t.backward(out, seed)
        ref = Tape()
        rx, rout = self._groups(ref, x0)
        _scatter_backward(ref, rout, seed)
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad, rx.grad)

    def test_backward_holds_one_parent_sized_gradient(self):
        """Scattering each group into zeros of the parent and adding the G
        arrays held three parent-sized arrays at a time; the regions land
        in one, beside group-sized temporaries."""
        x0 = np.random.default_rng(0).standard_normal((self.G * 64, 32, 32))
        seed = np.ones_like(x0)
        t = Tape()
        _, out = self._groups(t, x0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            t.backward(out, seed)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= x0.nbytes + 3 * x0.nbytes // self.G, f"peak {peak / x0.nbytes:.2f}x the parent"

    def test_region_dims_are_checked(self):
        t = Tape()
        x = Var(np.zeros((4, 3)), t)
        y = ops.getitem(x, slice(0, 2))
        x._slot.add(_Region(slice(0, 2), np.ones((2, 3))))
        with pytest.raises(ValueError, match="region of dims"):
            x._slot.add(_Region(slice(0, 1), np.ones((2, 3))))
        assert y.shape == (2, 3)


def _alive(fn, *arrays) -> list[bool]:
    """Whether each of fn's taped inputs still has its value once its last
    name is gone, while fn's output and the tape live on; the backward then
    runs.  Each input is a fresh array, the output of a scale record, so
    only fn's records and vjps could keep it."""
    t = Tape()
    xs = [ops.scale(Var(a, t), 1.0) for a in arrays]
    refs = [weakref.ref(x.value) for x in xs]
    out = fn(*xs)
    del xs
    alive = [r() is not None for r in refs]
    t.backward(out, np.ones(out.shape))
    return alive


_RNG = np.random.default_rng(4)
_IMG, _TOK = _RNG.standard_normal((2, 3, 4, 4)), _RNG.standard_normal((2, 5, 3))
_K, _W, _GAIN = _RNG.standard_normal((3, 3, 3, 3)), _RNG.standard_normal((3, 2)), _RNG.standard_normal(3)


class TestRecordsKeepOnlyWhatVjpsRead:
    """A record holds gradient slots, not Vars, and a vjp keeps only the
    arrays its math reads: any other activation is freed as soon as its
    last name goes, before the backward."""

    # (fn, its inputs, which inputs stay alive); a view op's output feeds a
    # scale, so that no live output is a view of its input
    CASES = {
        "conv2d, constant kernel": (lambda x: ops.conv2d(x, _K, np.zeros(3)), (_IMG,), [False]),
        "conv2d, taped kernel": (lambda x, k: ops.conv2d(x, k, np.zeros(3)), (_IMG, _K), [True, True]),
        "linear, constant weight": (lambda x: ops.linear(x, _W, np.zeros(2)), (_TOK,), [False]),
        "linear, taped weight": (lambda x, w: ops.linear(x, w, np.zeros(2)), (_TOK, _W), [True, True]),
        "add": (ops.add, (_TOK, _TOK), [False, False]),
        "reshape": (lambda a: ops.scale(ops.reshape(a, (-1,)), 2.0), (_TOK,), [False]),
        "transpose": (lambda a: ops.scale(ops.transpose(a, (2, 0, 1)), 2.0), (_TOK,), [False]),
        "getitem": (lambda a: ops.scale(ops.getitem(a, (slice(1), slice(1, 4))), 2.0), (_TOK,), [False]),
        "concat": (lambda a, b: ops.concat([a, b], axis=1), (_TOK, _TOK), [False, False]),
        "resize_bicubic": (lambda a: ops.resize_bicubic(a, 2.0), (_IMG,), [False]),
        "leaky_relu": (ops.leaky_relu, (_TOK,), [False]),
        # attention keeps q, k and v (it scales q one block at a time), and
        # the output
        "attention": (ops.attention, (_TOK, _TOK, _TOK), [True, True, True]),
        # layer_norm keeps xhat, inv and the gain
        "layer_norm": (lambda x, g: ops.layer_norm(x, g, np.zeros(3)), (_TOK, _GAIN), [False, True]),
        "gelu": (ops.gelu, (_TOK,), [True]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_inputs_kept_alive(self, name):
        fn, arrays, kept = self.CASES[name]
        assert _alive(fn, *(a.copy() for a in arrays)) == kept

    @staticmethod
    def _live_peak(fn) -> int:
        """tracemalloc peak of fn() above the memory traced when it starts,
        in bytes; fn runs once before, so no first-call cache counts."""
        fn()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    SMALL = network.NetConfig(u=3, v=3, c=4, c_cor=6, n1=2, n2=1, r=2)

    def test_lam_step_live_peak(self):
        """One m2m lam step on 3x3x8x8 views.  The peak was 923,560 B when
        every record kept its parents; with records keeping no value, it is
        541,695 B.  A vjp that keeps a Var again shows here."""
        net = network.build(self.SMALL, np.float64)
        lf = LfTensor(np.random.default_rng(0).random((3, 3, 8, 8, 1)))
        cfg = attribution.LamConfig(window=(2, 2, 4), steps=1, sigma=2.0)
        assert self._live_peak(lambda: attribution.lam(net, lf, cfg)) <= 0.65 * 923_560

    def test_training_step_live_peak(self):
        """One Adam step on 3x3x16x16 HR views.  Taped weights keep the conv
        and linear inputs, so the saving is smaller: 1,490,524 B when every
        record kept its parents, 1,201,011 B now."""
        net = network.build(self.SMALL, np.float64)
        hr = LfTensor(np.random.default_rng(0).random((3, 3, 16, 16, 1)))
        pair = training.make_pair(hr, self.SMALL.r)
        one = training.TrainConfig(iters=1)
        assert self._live_peak(lambda: training.train_toy(net, pair, one)) <= 0.85 * 1_490_524


class TestRelError:
    def test_exact_match_is_zero(self):
        assert rel_error(1.2345, 1.2345) == 0.0

    def test_symmetric(self):
        assert rel_error(1.0, 2.0) == rel_error(2.0, 1.0)

    def test_tiny_denominator_floor(self):
        # both near zero: the 1e-8 floor keeps the ratio finite
        assert rel_error(0.0, 1e-12) == pytest.approx(1e-4)


class TestGradcheck:
    def test_polynomial_is_tight(self):
        rng = np.random.default_rng(1)
        err = gradcheck(lambda x: ops.vsum(ops.square(x)), rng.standard_normal((3, 3)))
        assert err < 1e-8

    def test_catches_wrong_gradient(self):
        def bad(x):
            t = x.tape
            out = Var(np.sum(x.value**2), t)
            if t is not None:
                # deliberately wrong by 2x
                t.record(out, (x,), lambda g: (g * 4.0 * x.value,))
            return out

        err = gradcheck(bad, np.array([1.0, 2.0]))
        assert err > 0.4

    def test_rejects_nonscalar(self):
        with pytest.raises(ValueError, match="scalar"):
            gradcheck(lambda x: ops.square(x), np.ones(3))

    def test_nonfinite_analytic_raises(self):
        def blows_up(x):
            t = x.tape
            out = Var(np.sum(x.value), t)
            if t is not None:
                t.record(out, (x,), lambda g: (np.full_like(x.value, np.nan),))
            return out

        with pytest.raises(FloatingPointError, match="analytic"):
            gradcheck(blows_up, np.ones(2))
