"""Regenerate perfbench/references/<workload>.json for every workload.

    python3 perfbench/make_references.py

For every input variant it runs the workload's request once with the
checked-out program and stores the summary that `check` compares against.
The sr reference is the float64 forward of the float32 weights, so the
float32 request is held to a tolerance (SR_TOL, relative to the largest
output magnitude) far above float32 rounding and far below any real error.
References define correct output: regenerate them only when a change of
output is intended, and say so.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import REFERENCES, VARIANTS, WORKLOADS, SrWorkload  # noqa: E402

SR_TOL = 1e-4


def sr_reference(w: SrWorkload) -> tuple[dict, float]:
    """float64 reference summary and the float32 request's relative error."""
    from m2mtnet import lfio, metrics, network

    got32 = w.summarize(w.request())
    lf = lfio.load_lf_dir(str(w.work / "lr"))
    net = network.net_from_file(str(w.work / "net.m2mw"), lf.u, lf.v, dtype=np.float64)
    out = net.forward(lf)
    lfio.save_lf_dir(out, str(w.work / "sr64"), maxval=65535)
    rep = metrics.lf_metrics(lfio.load_lf_dir(str(w.work / "sr64")), lfio.load_lf_dir(str(w.work / "hr")))
    ref = w.summarize({"sr": out.data, "psnr": rep.psnr_mean, "ssim": rep.ssim_mean})
    ref["tol"] = SR_TOL
    scale = max(np.abs(ref["samples"]).max(), 1.0)
    err = max(np.abs(np.subtract(got32[k], ref[k])).max() for k in ("samples", "view_means")) / scale
    return ref, float(err)


def main() -> int:
    REFERENCES.mkdir(exist_ok=True)
    for name in sorted(WORKLOADS):
        refs = {}
        for size in ("tiny", "full"):
            entries = {}
            for variant in range(VARIANTS):
                w = WORKLOADS[name](variant, tiny=(size == "tiny"))
                work = ROOT / ".perfbench" / "work" / f"ref-{name}-{size}-{variant}"
                work.mkdir(parents=True, exist_ok=True)
                try:
                    w.prepare(work)
                    w.setup(work)
                    w.load()
                    if isinstance(w, SrWorkload):
                        ref, err = sr_reference(w)
                        note = f"float32 rel err {err:.3g}"
                    else:
                        out = w.request()
                        ref, note = w.summarize(out), ""
                    problems = w.check(w.request(), ref)
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                if problems:
                    raise SystemExit(f"{name} {size} variant {variant}: {problems}")
                entries[str(variant)] = ref
                print(f"{name} {size} variant {variant} ok {note}", flush=True)
            refs[size] = entries
        (REFERENCES / f"{name}.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
