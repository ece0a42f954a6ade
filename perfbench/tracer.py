"""Outside-in span tracer for m2mtnet.

The tracer records a span around each call into a public function of the
program's modules.  It does so from outside: `install()` replaces module
attributes (``ops.conv2d``, ``blocks.m2mt_forward``, ...) and two methods
(``_SrNet.forward_var``, ``Tape.backward``) with timing wrappers, and wraps
each vjp closure handed to ``Tape.record`` so that backward work is timed
and counted per op kind.  The program calls these through module and class
attributes, so every call is seen.  `uninstall()` puts every original back.

A span is (name, start, end, parent span, request id, work).  `work` is the
FLOP count of a conv2d, linear or attention call (``count_flops``
convention), the bytes copied by a transpose, or the FLOPs that
``count_flops`` predicts for a forward pass.  Spans stay in memory until
`save()` writes them out.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

# Public ops grouped under one metric name; the rest keep their own name.
_ELEMENTWISE = ("add", "sub", "mul", "neg", "scale", "vabs", "square", "vsum", "vmean", "leaky_relu")
_PLAIN_OPS = ("matmul", "softmax", "layer_norm", "gelu", "resize_bicubic")
_LAYOUT = ("lf_to_merged", "merged_to_lf", "lf_to_images", "images_to_lf")
_BLOCKS = ("m2mt_forward", "angular_forward", "o2o_spatial_forward")
_VJP_KINDS = {"ops.linear": "linear", "ops.matmul": "matmul", "ops.softmax": "softmax"}

# Spans whose work is FLOPs that count toward a forward pass.
FLOP_SPANS = ("ops.conv2d.3x3", "ops.conv2d.1x1", "ops.conv2d.cout1", "ops.linear", "ops.attention")


def _shape(a) -> tuple[int, ...]:
    return np.shape(getattr(a, "value", a))


def _prod(dims) -> int:
    n = 1
    for d in dims:
        n *= int(d)
    return n


class Tracer:
    """Records spans for calls into m2mtnet while installed.

    flops_per_mac must match the traced networks' NetConfig.flops_per_mac,
    so that per-call FLOPs follow the ``count_flops`` convention.
    """

    def __init__(self, flops_per_mac: int = 2):
        self.fpm = flops_per_mac
        self.request = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start, end, parent, request, work, outermost]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._flop_cache: dict = {}
        self.counters = {"records": {}, "grads_computed": {}, "grads_to_constants": {}}

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, name: str, work: float, fn, args, kwargs):
        nid = self._name_id(name)
        sid = len(self.spans)
        depth = self._depth.get(nid, 0)
        row = [nid, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, work, depth == 0]
        self.spans.append(row)
        self._stack.append(sid)
        self._depth[nid] = depth + 1
        row[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._depth[nid] = depth
            self._stack.pop()

    def _count(self, key: str) -> None:
        c = self.counters[key]
        c[self.request] = c.get(self.request, 0) + 1

    def _wrap(self, fn, namer):
        """namer(args) -> (name, work); a str means a fixed name, zero work."""
        if isinstance(namer, str):
            fixed = namer

            def wrapper(*args, **kwargs):
                return self._call(fixed, 0.0, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                name, work = namer(args)
                return self._call(name, work, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- FLOPs per call, count_flops convention -----------------------------

    def _conv_name(self, args):
        xs, ks = _shape(args[0]), _shape(args[1])
        cout, cin, kh, kw = ks
        views = 1 if len(xs) == 3 else xs[0]
        kind = "cout1" if cout == 1 else f"{kh}x{kw}"
        return f"ops.conv2d.{kind}", self.fpm * cout * cin * kh * kw * xs[-2] * xs[-1] * views

    def _linear_name(self, args):
        xs, ws = _shape(args[0]), _shape(args[1])
        return "ops.linear", self.fpm * ws[0] * ws[1] * _prod(xs[:-1])

    def _attention_name(self, args):
        qs, ks, vs = (_shape(a) for a in args[:3])
        tq, d = qs[-2], qs[-1]
        tk, dv = ks[-2], vs[-1]
        per = self.fpm * tq * tk * d + self.fpm * tq * tk * dv + 5 * tq * tk
        return "ops.attention", per * _prod(qs[:-2])

    def _transpose_name(self, args):
        return "ops.transpose", float(getattr(args[0], "value", np.asarray(args[0])).nbytes)

    def _forward_name(self, args):
        from m2mtnet import network

        net, x = args[0], args[1]
        w, h = _shape(x)[2:4]
        arch = "o2o" if type(net).__name__ == "O2OBaseline" else "m2m"
        key = (net.cfg, arch, w, h)
        flops = self._flop_cache.get(key)
        if flops is None:
            flops = -1.0  # non-square views have no count_flops prediction
            if w == h:
                flops = float(network.count_flops(replace(net.cfg, arch=arch), w)[1])
            self._flop_cache[key] = flops
        return "network.forward", flops

    # -- autodiff hooks -----------------------------------------------------

    def _vjp_kind(self) -> str:
        if not self._stack:
            return "other"
        name = self.names[self.spans[self._stack[-1]][0]]
        if name.startswith("ops.conv2d"):
            return "conv2d"
        return _VJP_KINDS.get(name, "other")

    def _record(self, orig):
        tracer = self

        def record(tape, out, parents, vjp):
            parents = tuple(parents)
            constant = [p is not None and p.tape is None for p in parents]
            name = f"autodiff.vjp.{tracer._vjp_kind()}"
            tracer._count("records")

            def traced_vjp(g):
                grads = tuple(tracer._call(name, 0.0, vjp, (g,), {}))
                for p, gr, const in zip(parents, grads, constant):
                    if p is not None and gr is not None:
                        tracer._count("grads_computed")
                        if const:
                            tracer._count("grads_to_constants")
                return grads

            return orig(tape, out, parents, traced_vjp)

        record.__wrapped__ = orig
        return record

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr with make(original), remembering the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def targets(self):
        """(owner, attribute, namer) for every patched callable."""
        from m2mtnet import attribution, autodiff, blocks, lfio, metrics, network, ops, training

        t = [
            (ops, "conv2d", self._conv_name),
            (ops, "linear", self._linear_name),
            (ops, "attention", self._attention_name),
            (ops, "transpose", self._transpose_name),
        ]
        t += [(ops, n, f"ops.{n}") for n in _PLAIN_OPS]
        t += [(ops, n, "ops.elementwise") for n in _ELEMENTWISE]
        t += [(blocks, n, f"blocks.{n}") for n in _BLOCKS]
        t += [(blocks, n, "blocks.layout") for n in _LAYOUT]
        t += [
            (network, "net_from_file", "network.net_from_file"),
            (network._SrNet, "forward_var", self._forward_name),
            (lfio, "load_lf_dir", "lfio.load_lf_dir"),
            (lfio, "save_lf_dir", "lfio.save_lf_dir"),
            (metrics, "lf_metrics", "metrics.lf_metrics"),
            (attribution, "lam", "attribution.lam"),
            (training, "adam_step", "training.adam_step"),
            (training, "l1_loss", "training.l1_loss"),
            (autodiff.Tape, "backward", "autodiff.backward"),
        ]
        return t, autodiff.Tape

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets, tape_cls = self.targets()
        try:
            for owner, attr, namer in targets:
                self._patch(owner, attr, lambda fn, namer=namer: self._wrap(fn, namer))
            self._patch(tape_cls, "record", self._record)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per request and span name: inclusive seconds of outermost calls,
        self seconds (duration minus the time direct children cover), call
        count and work of outermost calls."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i, s in enumerate(self.spans):
            per = out.setdefault(s[4], {})
            agg = per.setdefault(self.names[s[0]], {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0.0})
            dur = s[2] - s[1]
            agg["self_s"] += dur - covered[i]
            agg["calls"] += 1
            if s[6]:
                agg["s"] += dur
                agg["work"] += s[5]
        return out

    def forward_flops(self) -> dict[int, list[tuple[float, float]]]:
        """Per request, (predicted, seen) FLOPs of each forward span.

        Seen FLOPs sum the conv2d, linear and attention calls inside the
        forward; attention's own matmuls are not counted again.
        """
        fwd_id = self._name_ids.get("network.forward")
        flop_ids = {self._name_ids[n] for n in FLOP_SPANS if n in self._name_ids}
        seen: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s[0] == fwd_id:
                seen.setdefault(i, 0.0)
            elif s[0] in flop_ids and s[6]:
                p = s[3]
                while p >= 0 and self.spans[p][0] != fwd_id:
                    p = self.spans[p][3]
                if p >= 0:
                    seen[p] = seen.get(p, 0.0) + s[5]
        out: dict[int, list[tuple[float, float]]] = {}
        for i, f in sorted(seen.items()):
            out.setdefault(self.spans[i][4], []).append((self.spans[i][5], f))
        return out

    def counter(self, key: str, request: int) -> int:
        return self.counters[key].get(request, 0)

    def save(self, path) -> None:
        """Write every span as columns of a compressed .npz file."""
        cols = np.array([s[:6] for s in self.spans], dtype=np.float64).reshape(-1, 6)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=cols[:, 0].astype(np.int32),
            start=cols[:, 1],
            end=cols[:, 2],
            parent=cols[:, 3].astype(np.int64),
            request=cols[:, 4].astype(np.int32),
            work=cols[:, 5],
        )
