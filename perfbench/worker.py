"""One benchmark process.  run.py starts it once per mode, one at a time:

  prep     write the workload's inputs to the work directory
  setup    time importing the program plus building and writing the model
  session  set up, run the first (cold) request, then warm requests for
           --seconds, untraced; or, with --trace 1, alternate untraced and
           traced requests and report per-layer numbers

The last line of standard output is a JSON object for run.py.
"""
import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_WARM = 2


def import_program() -> float:
    """Import the program as its CLI does; returns the seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import m2mtnet.cli  # noqa: F401

    took = time.perf_counter() - t0
    if not Path(m2mtnet.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"m2mtnet imported from {m2mtnet.cli.__file__}, not {SRC}")
    return took


def make_workload(args):
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, tiny=args.tiny)


def blas_roof(dtype, n: int = 1024, reps: int = 9) -> float:
    """Median GFLOP/s of an n x n GEMM at the process's BLAS thread count."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    times.sort()
    return 2.0 * n**3 / times[len(times) // 2] / 1e9


def blas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_request(w, ref, log):
    """One request: (seconds, output or None, problems)."""
    t0 = time.perf_counter()
    try:
        out = w.request()
    except Exception:  # a failed request is counted, not fatal
        took = time.perf_counter() - t0
        log.append(traceback.format_exc(limit=4))
        return took, None, ["raised"]
    took = time.perf_counter() - t0
    if ref is None:
        return took, out, ["no stored reference for this variant"]
    return took, out, w.check(out, ref)


def tally(result: dict, problems: list[str]) -> None:
    """Count one attempted request and whether it failed."""
    result["attempted"] += 1
    result["failed"] += bool(problems)
    result["problems"] += problems


def session(args) -> dict:
    import_s = import_program()
    w = make_workload(args)
    t0 = time.perf_counter()
    w.setup(Path(args.work))
    setup_s = import_s + time.perf_counter() - t0
    if args.mode == "setup":
        return {"setup_s": setup_s}

    w.load()
    ref = w.reference()
    log: list[str] = []
    result = {"setup_s": setup_s, "attempted": 0, "failed": 0, "problems": [], "log": log}
    result["cold_s"], _, problems = run_request(w, ref, log)
    tally(result, problems)
    (traced_loop if args.trace else warm_loop)(w, ref, args, result)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.blas:
        import numpy as np
        import scipy

        result["blas"] = {"sgemm_gflops": blas_roof(np.float32), "dgemm_gflops": blas_roof(np.float64)}
        result["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_version()}
    result["forwards_per_request"] = w.forwards_per_request()
    result["flops_per_request"] = w.flops_per_request()
    return result


def warm_loop(w, ref, args, result) -> None:
    """Warm requests for --seconds, and at least MIN_WARM of them."""
    lat = []
    t0 = time.perf_counter()
    while len(lat) < MIN_WARM or time.perf_counter() - t0 < args.seconds:
        took, _, problems = run_request(w, ref, result["log"])
        lat.append(took)
        tally(result, problems)
    result["wall_s"] = time.perf_counter() - t0
    result["latencies"] = lat


def traced_loop(w, ref, args, result) -> None:
    """Alternate untraced and traced requests; traced outputs must equal the
    untraced ones bit for bit."""
    from perfbench.tracer import Tracer

    tracer = Tracer(flops_per_mac=w.forwards()[0][0].flops_per_mac)
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        took, base, problems = run_request(w, ref, result["log"])
        plain.append(took)
        tally(result, problems)
        tracer.request = len(traced)
        with tracer:
            took, out, problems = run_request(w, ref, result["log"])
        traced.append(took)
        if base is not None and out is not None and not outputs_equal(base, out):
            problems = problems + ["traced output differs from untraced output"]
        tally(result, problems)
    n = len(traced)
    totals, fwd = tracer.layer_totals(), tracer.forward_flops()
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"{args.workload}-seed{args.seed}-spans.npz")
    result.update(
        latencies=plain,
        traced_latencies=traced,
        layers=[totals.get(r, {}) for r in range(n)],
        forward_flops=[fwd.get(r, []) for r in range(n)],
        counters={k: [tracer.counter(k, r) for r in range(n)] for k in tracer.counters},
        span_count=len(tracer.spans),
    )


def outputs_equal(a: dict, b: dict) -> bool:
    import numpy as np

    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def prep(args) -> dict:
    w = make_workload(args)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    w.prepare(work)
    import_program()  # compiles the program's bytecode before any timed import
    return {"prepared": str(work)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("prep", "setup", "session"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--blas", action="store_true", help="also measure the GEMM roofs and versions")
    args = ap.parse_args(argv)
    result = prep(args) if args.mode == "prep" else session(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
