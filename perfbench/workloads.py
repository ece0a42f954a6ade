"""The benchmark workloads: inputs from a seed, set-up, one request, checks.

Each workload has a full size, which the benchmark measures, and a tiny
size, which the benchmark's own tests run.  Inputs depend on the seed only
through `variant = seed % VARIANTS`; the expected outputs of every variant
are stored in ``references/<workload>.json`` (see make_references.py), so
every request's output is checked against values computed by the code the
benchmark was defined on.

`prepare` needs NumPy only and writes the inputs to the work directory.
`setup` builds the model and writes its weight file; the session times it
together with importing the program.  `load` reads the inputs back,
`request` runs one request and `check` returns the list of its failures.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

VARIANTS = 16
REFERENCES = Path(__file__).resolve().parent / "references"


def write_pgm8(path: Path, img01: np.ndarray) -> None:
    """8-bit binary PGM of an (H, W) image in [0, 1]."""
    q = np.rint(np.clip(img01, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{q.shape[1]} {q.shape[0]}\n255\n".encode())
        f.write(q.tobytes())


def write_lf_dir(path: Path, data: np.ndarray) -> None:
    """(U, V, W, H) field in [0, 1] -> view_u*_v*.pgm files plus meta.txt."""
    path.mkdir(parents=True, exist_ok=True)
    u, v = data.shape[:2]
    for uu in range(u):
        for vv in range(v):
            write_pgm8(path / f"view_u{uu}_v{vv}.pgm", data[uu, vv].T)
    (path / "meta.txt").write_text(f"u={u}\nv={v}\nbitdepth=8\n")


def plaid(u, v, w, h, ampx=0.25, ampy=0.2, shift=0.5, phase=(0.0, 0.0)) -> np.ndarray:
    """Smooth (U, V, W, H, 1) field with per-view disparity-like shifts."""
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    data = np.empty((u, v, w, h, 1))
    for uu in range(u):
        for vv in range(v):
            data[uu, vv, :, :, 0] = (
                0.5
                + ampx * np.sin(2 * np.pi * (xs[:, None] + shift * (uu - u // 2)) / w + phase[0])
                + ampy * np.cos(2 * np.pi * (ys[None, :] + shift * (vv - v // 2)) / h + phase[1])
            )
    return data


def plaid_params(variant: int) -> dict:
    """Variant 0 is the acceptance-test plaid; the others perturb it."""
    if variant == 0:
        return {"ampx": 0.25, "ampy": 0.2, "phase": (0.0, 0.0)}
    rng = np.random.default_rng(7000 + variant)
    return {
        "ampx": float(rng.uniform(0.15, 0.3)),
        "ampy": float(rng.uniform(0.12, 0.25)),
        "phase": (float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, 2 * np.pi))),
    }


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    """Base: the seed, the size and the stored reference of one variant."""

    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, tiny: bool = False):
        self.size = "tiny" if tiny else "full"
        self.variant = seed % VARIANTS
        self.p = self.sizes[self.size]
        self.work: Path | None = None

    def reference(self) -> dict | None:
        path = REFERENCES / f"{self.name}.json"
        if not path.is_file():
            return None
        refs = json.loads(path.read_text())
        return refs.get(self.size, {}).get(str(self.variant))

    def flops_per_request(self) -> int:
        """Forward FLOPs per request, as network.count_flops counts them."""
        from m2mtnet import network

        return sum(n * network.count_flops(cfg, patch)[1] for cfg, patch, n in self.forwards())

    def forwards_per_request(self) -> int:
        return sum(n for _, _, n in self.forwards())


class SrWorkload(Workload):
    """`m2mtnet sr --maxval 65535` then `m2mtnet metrics`, default 4x model."""

    name = "sr_4x_32"
    sizes = {
        "full": {"uv": 5, "lr": 32, "cfg": {}},
        "tiny": {"uv": 3, "lr": 8, "cfg": {"u": 3, "v": 3, "c": 8, "c_cor": 12, "n1": 2, "n2": 1}},
    }
    # pixels sampled per variant for the stored reference
    SAMPLES = 256

    def config(self):
        from m2mtnet import network

        return network.NetConfig(**self.p["cfg"])

    def forwards(self):
        return [(self.config(), self.p["lr"], 1)]

    def prepare(self, work: Path) -> None:
        """Textured, disparity-shifted HR views; LR = 4x4 box mean + noise."""
        uv, lr, r = self.p["uv"], self.p["lr"], 4
        hr = lr * r
        rng = np.random.default_rng(1000 + self.variant)
        n = 8
        freq = rng.uniform(1.0, 14.0, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2))
        phase = rng.uniform(0.0, 2 * np.pi, size=n)
        amp = rng.uniform(0.3, 1.0, size=n)
        disparity = rng.uniform(-1.0, 1.0) * r  # HR pixels per view step
        xs = np.arange(hr, dtype=np.float64)
        views = np.empty((uv, uv, hr, hr))
        for uu in range(uv):
            for vv in range(uv):
                x = (xs[:, None] + disparity * (uu - uv // 2)) / hr
                y = (xs[None, :] + disparity * (vv - uv // 2)) / hr
                img = sum(
                    a * np.sin(2 * np.pi * (f[0] * x + f[1] * y) + ph)
                    for a, f, ph in zip(amp, freq, phase)
                )
                views[uu, vv] = img
        views = 0.5 + 0.4 * views / np.abs(views).max()
        views = np.clip(views + rng.normal(0.0, 0.01, views.shape), 0.0, 1.0)
        low = views.reshape(uv, uv, lr, r, lr, r).mean(axis=(3, 5))
        low = np.clip(low + rng.normal(0.0, 0.01, low.shape), 0.0, 1.0)
        write_lf_dir(work / "hr", views)
        write_lf_dir(work / "lr", low)

    def setup(self, work: Path) -> None:
        from m2mtnet import network

        self.work = work
        network.save_weights(work / "net.m2mw", network.build(self.config()))

    def load(self) -> None:
        pass

    def request(self) -> dict:
        from m2mtnet import lfio, metrics, network

        work = self.work
        lf = lfio.load_lf_dir(str(work / "lr"))
        net = network.net_from_file(str(work / "net.m2mw"), lf.u, lf.v)
        out = net.forward(lf)
        lfio.save_lf_dir(out, str(work / "sr"), maxval=65535)
        rep = metrics.lf_metrics(lfio.load_lf_dir(str(work / "sr")), lfio.load_lf_dir(str(work / "hr")))
        return {"sr": out.data, "psnr": rep.psnr_mean, "ssim": rep.ssim_mean}

    @classmethod
    def sample_index(cls, shape) -> np.ndarray:
        rng = np.random.default_rng(99)
        return rng.choice(int(np.prod(shape)), size=min(cls.SAMPLES, int(np.prod(shape))), replace=False)

    def summarize(self, out: dict) -> dict:
        sr = np.asarray(out["sr"], dtype=np.float64)
        return {
            "shape": list(sr.shape),
            "view_means": [float(f"{x:.9g}") for x in sr.mean(axis=(2, 3, 4)).ravel()],
            "samples": [float(f"{x:.9g}") for x in sr.ravel()[self.sample_index(sr.shape)]],
            "psnr": float(out["psnr"]),
            "ssim": float(out["ssim"]),
        }

    def check(self, out: dict, ref: dict) -> list[str]:
        """The float32 output before quantization against the float64
        reference: every sampled pixel and view mean within `tol` times the
        reference's largest magnitude; PSNR and SSIM of the written views
        within 0.01 dB and 1e-4."""
        got = self.summarize(out)
        if got["shape"] != ref["shape"]:
            return [f"output dims {got['shape']} != {ref['shape']}"]
        problems = []
        scale = max(np.abs(ref["samples"]).max(), 1.0)
        tol = ref["tol"] * scale
        for key in ("samples", "view_means"):
            err = float(np.abs(np.subtract(got[key], ref[key])).max())
            if not err <= tol:
                problems.append(f"{key}: max error {err:.3g} > {tol:.3g}")
        if not abs(got["psnr"] - ref["psnr"]) <= 0.01:
            problems.append(f"psnr {got['psnr']:.6f} != {ref['psnr']:.6f}")
        if not abs(got["ssim"] - ref["ssim"]) <= 1e-4:
            problems.append(f"ssim {got['ssim']:.6f} != {ref['ssim']:.6f}")
        return problems


class LamWorkload(Workload):
    """attribution.lam with the acceptance-criterion-8 settings, m2m then o2o."""

    name = "lam_c8"
    sizes = {
        "full": {
            "uv": 5, "w": 32, "window": (28, 28, 8), "steps": 6, "min_support": 20,
            "cfg": {"u": 5, "v": 5, "c": 12, "c_cor": 24, "n1": 2, "n2": 1, "r": 2},
        },
        "tiny": {
            "uv": 3, "w": 8, "window": (6, 6, 4), "steps": 2, "min_support": 7,
            "cfg": {"u": 3, "v": 3, "c": 4, "c_cor": 6, "n1": 2, "n2": 1, "r": 2},
        },
    }
    RTOL = 1e-8

    def config(self, arch="m2m"):
        from m2mtnet import network

        return network.NetConfig(**self.p["cfg"], arch=arch)

    def forwards(self):
        s, w = self.p["steps"], self.p["w"]
        return [(self.config("m2m"), w, s), (self.config("o2o"), w, s)]

    def prepare(self, work: Path) -> None:
        uv, w = self.p["uv"], self.p["w"]
        np.save(work / "lf.npy", plaid(uv, uv, w, w, shift=0.5, **plaid_params(self.variant)))

    def setup(self, work: Path) -> None:
        from m2mtnet import network

        self.work = work
        cfg = self.config()
        self.m2m = network.build(cfg, np.float64)
        self.o2o = network.build_o2o(cfg, np.float64)
        network.save_weights(work / "m2m.m2mw", self.m2m)
        network.save_weights(work / "o2o.m2mw", self.o2o)

    def load(self) -> None:
        from m2mtnet.attribution import LamConfig
        from m2mtnet.lftensor import LfTensor

        self.lf = LfTensor(np.load(self.work / "lf.npy"))
        self.lam_cfg = LamConfig(window=self.p["window"], steps=self.p["steps"], sigma=4.0, literal=True)

    def request(self) -> dict:
        from m2mtnet import attribution

        m = attribution.lam(self.m2m, self.lf, self.lam_cfg)
        o = attribution.lam(self.o2o, self.lf, self.lam_cfg)
        return {"m2m_map": m.map, "o2o_map": o.map, "m2m_di": m.di, "o2o_di": o.di}

    def summarize(self, out: dict) -> dict:
        return {
            "m2m_support": int((out["m2m_map"].max(axis=(2, 3)) > 0).sum()),
            "m2m_di": float(out["m2m_di"]),
            "o2o_di": float(out["o2o_di"]),
            "m2m_sum": float(out["m2m_map"].sum()),
            "o2o_sum": float(out["o2o_map"].sum()),
        }

    def check(self, out: dict, ref: dict) -> list[str]:
        """The criterion-8 contrast, then DI and map sums against the
        reference within a relative 1e-8."""
        got = self.summarize(out)
        problems = []
        if got["m2m_support"] < self.p["min_support"]:
            problems.append(f"m2m support {got['m2m_support']} < {self.p['min_support']}")
        c = self.p["uv"] // 2
        outside = out["o2o_map"].copy()
        outside[c, c] = 0.0
        if not np.all(outside == 0.0) or not out["o2o_map"][c, c].max() > 0:
            problems.append("o2o attribution is not confined to its own view")
        if not got["m2m_di"] > got["o2o_di"]:
            problems.append(f"DI m2m {got['m2m_di']:.6f} !> o2o {got['o2o_di']:.6f}")
        if got["m2m_support"] != ref["m2m_support"]:
            problems.append(f"m2m support {got['m2m_support']} != reference {ref['m2m_support']}")
        for key in ("m2m_di", "o2o_di", "m2m_sum", "o2o_sum"):
            if not rel_close(got[key], ref[key], self.RTOL):
                problems.append(f"{key} {got[key]!r} != reference {ref[key]!r}")
        return problems


class TrainWorkload(Workload):
    """training.train_toy for 25 iterations from a fresh net, criterion 10."""

    name = "train_c10"
    sizes = {
        "full": {"uv": 5, "w": 8, "iters": 25, "cfg": {"u": 5, "v": 5, "c": 48, "c_cor": 128, "n1": 4, "n2": 1, "r": 2}},
        "tiny": {"uv": 3, "w": 8, "iters": 3, "cfg": {"u": 3, "v": 3, "c": 8, "c_cor": 12, "n1": 2, "n2": 1, "r": 2}},
    }
    RTOL = 1e-8

    def config(self):
        from m2mtnet import network

        return network.NetConfig(**self.p["cfg"])

    def forwards(self):
        cfg = self.config()
        return [(cfg, self.p["w"] // cfg.r, self.p["iters"])]

    def prepare(self, work: Path) -> None:
        uv, w = self.p["uv"], self.p["w"]
        np.save(work / "hr.npy", plaid(uv, uv, w, w, shift=0.3, **plaid_params(self.variant)))

    def setup(self, work: Path) -> None:
        from m2mtnet import network

        self.work = work
        network.save_weights(work / "net.m2mw", network.build(self.config(), np.float64))

    def load(self) -> None:
        from m2mtnet import training
        from m2mtnet.lftensor import LfTensor

        self.pair = training.make_pair(LfTensor(np.load(self.work / "hr.npy")), self.config().r)
        self.first_curve = None

    def request(self) -> dict:
        from m2mtnet import network, training

        net = network.build(self.config(), np.float64)
        curve = training.train_toy(net, self.pair, training.TrainConfig(iters=self.p["iters"]))
        return {"curve": np.array(curve)}

    def summarize(self, out: dict) -> dict:
        return {"curve": out["curve"].tolist()}

    def check(self, out: dict, ref: dict) -> list[str]:
        """Bit-identical to this process's first curve, within a relative
        1e-8 of the reference, and falling."""
        curve = out["curve"]
        problems = []
        if self.first_curve is None:
            self.first_curve = curve
        elif not np.array_equal(curve, self.first_curve):
            problems.append("loss curve differs from the first request's")
        refc = np.asarray(ref["curve"])
        if curve.shape != refc.shape or not np.all(np.abs(curve - refc) <= self.RTOL * np.abs(refc)):
            problems.append("loss curve differs from the reference")
        if not curve[-1] < curve[0]:
            problems.append("loss did not fall")
        return problems


WORKLOADS = {w.name: w for w in (SrWorkload, LamWorkload, TrainWorkload)}
