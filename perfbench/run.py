"""Benchmark entry point.

    python3 perfbench/run.py --workload sr_4x_32 --seed 0 --seconds 20 --trace 0

Runs one workload in a closed loop (one client, one request at a time) from
the root of a source checkout.  Every process it starts runs alone, with one
BLAS thread and glibc keeping freed memory for reuse.  With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run.  A table for
people comes before it, and the full results go to .perfbench/results/.
See perfbench/README.md for every metric and workload.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
# every process of one run must end within this many seconds of its start
RUN_BUDGET_S = 170
OP_TIMES = ("softmax", "matmul", "layer_norm", "gelu", "resize_bicubic", "elementwise")

# Fresh session processes per untraced run.  Each sets up, runs one cold
# request and then warm requests for its share of --seconds, so cold samples
# are spread over the run; more where a request is cheap.
SESSIONS = {"sr_4x_32": 3, "lam_c8": 1, "train_c10": 4}


class BenchError(RuntimeError):
    pass


def metric_units(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def worker_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    # one BLAS thread: on a few shared cores a GEMM split over two threads
    # waits for the more contended one, so its time swings with the host
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # fixed string hashing, so set orders repeat between runs
    # glibc keeps freed memory for reuse instead of unmapping it, so a warm
    # request does not fault its arrays in again at a cost that varies with
    # the host's memory state; the first request still pays for first touch
    env["MALLOC_MMAP_MAX_"] = "0"
    env["MALLOC_TRIM_THRESHOLD_"] = str(2**40)
    return env, nproc


def worker(mode: str, args, work: Path, env: dict, deadline: float, seconds: float = 0.0, blas: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed), "--work", str(work),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else []) + (["--blas"] if blas else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process did not end within the {RUN_BUDGET_S} s run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for entry in result.pop("log", []):
        print(entry, file=sys.stderr)
    return result


def tail_percentile(samples: list[float]):
    """Highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    n = len(samples)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = {"percentile": p, "value": statistics.quantiles(samples, n=1000)[int(p * 10) - 1], "samples": n}
    return best


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "m2mtnet").glob("*.py"))


def end_to_end(setups, sessions) -> dict:
    lat = [x for sess in sessions for x in sess["latencies"]]
    wall = sum(sess["wall_s"] for sess in sessions)
    return {
        "setup_s": statistics.median(setups),
        "cold_request_s": statistics.median(sess["cold_s"] for sess in sessions),
        "latency_p50_s": statistics.median(lat),
        "model_gflops_per_s": sessions[-1]["flops_per_request"] * len(lat) / wall / 1e9,
        "peak_rss_mb": statistics.median(sess["peak_rss_mb"] for sess in sessions),
    }


def per_layer(sess) -> tuple[dict, list[str]]:
    """Per-request means of the traced requests, plus failed checks."""
    layers, n = sess["layers"], len(sess["layers"])
    problems = []

    def total(name, field):
        return sum(r.get(name, {}).get(field, 0.0) for r in layers) / n

    m = {}
    for op in ("ops.conv2d.3x3", "ops.conv2d.1x1", "ops.conv2d.cout1", "ops.linear", "ops.attention"):
        s, work = total(op, "s"), total(op, "work")
        m[f"{op}.s"] = s
        m[f"{op}.gflops_per_s"] = work / s / 1e9 if s > 0 else 0.0
    for op in OP_TIMES:
        m[f"ops.{op}.s"] = total(f"ops.{op}", "s")
    m["ops.transpose.s"] = total("ops.transpose", "s")
    m["ops.transpose.bytes"] = total("ops.transpose", "work")
    m["autodiff.backward.self_s"] = total("autodiff.backward", "self_s")
    for k in ("conv2d", "linear", "matmul", "softmax", "other"):
        m[f"autodiff.vjp.{k}.s"] = total(f"autodiff.vjp.{k}", "s")
    for key, values in sess["counters"].items():
        if len(set(values)) != 1:
            problems.append(f"autodiff.{key} differs between requests: {values}")
        m[f"autodiff.{key}"] = values[0]
    computed = m["autodiff.grads_computed"]
    m["autodiff.grad_useful_ratio"] = 1.0 - m["autodiff.grads_to_constants"] / computed if computed else 0.0
    for b in ("m2mt_forward", "angular_forward", "o2o_spatial_forward"):
        m[f"blocks.{b}.self_s"] = total(f"blocks.{b}", "self_s")
    m["blocks.layout.s"] = total("blocks.layout", "s")
    m["network.net_from_file.s"] = total("network.net_from_file", "s")
    m["network.forward.s"] = total("network.forward", "s")
    m["network.forward.calls"] = total("network.forward", "calls")
    for name in ("lfio.load_lf_dir", "lfio.save_lf_dir", "metrics.lf_metrics", "training.adam_step", "training.l1_loss"):
        m[f"{name}.s"] = total(name, "s")
    m["attribution.lam.self_s"] = total("attribution.lam", "self_s")
    m["blas.sgemm_gflops"] = sess["blas"]["sgemm_gflops"]
    m["blas.dgemm_gflops"] = sess["blas"]["dgemm_gflops"]
    traced_p50 = statistics.median(sess["traced_latencies"])
    m["trace.latency_p50_s"] = traced_p50
    m["trace.overhead_s"] = traced_p50 - statistics.median(sess["latencies"])

    seen = [f for req in sess["forward_flops"] for f in req]
    m["network.forward.flops"] = sum(s for _, s in seen) / len(seen) if seen else 0.0
    for r, req in enumerate(sess["forward_flops"]):
        if len(req) != sess["forwards_per_request"]:
            problems.append(f"request {r}: {len(req)} forwards, expected {sess['forwards_per_request']}")
        for predicted, got in req:
            if predicted != got:
                problems.append(f"request {r}: forward FLOPs {got:.0f} != count_flops {predicted:.0f}")
    return m, problems


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")


def run(args) -> dict:
    env, nproc = worker_env()
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        worker("prep", args, work, env, deadline)
        if args.trace:
            sessions = [worker("session", args, work, env, deadline, args.seconds, blas=True)]
        else:
            n = SESSIONS[args.workload]
            sessions = [worker("session", args, work, env, deadline, args.seconds / n, blas=(i == n - 1)) for i in range(n)]
        setups = [sess["setup_s"] for sess in sessions]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(worker("setup", args, work, env, deadline)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    last = sessions[-1]
    attempted = sum(sess["attempted"] for sess in sessions)
    failed = sum(sess["failed"] for sess in sessions)
    problems = [p for sess in sessions for p in sess["problems"]]
    if args.trace:
        metrics, run_problems = per_layer(last)
        units = metric_units("per_layer")
    else:
        metrics, run_problems = end_to_end(setups, sessions), []
        units = metric_units("end_to_end")
    if metrics.keys() != units.keys():
        raise BenchError(f"metrics {sorted(metrics.keys() ^ units.keys())} are not both measured and listed in BENCHMARK.json")
    problems += run_problems
    lat = [x for sess in sessions for x in sess["latencies"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "warm_samples": len(lat),
        "latencies_s": lat,
        "cold_samples_s": [sess["cold_s"] for sess in sessions],
        "setup_samples_s": setups,
        "peak_rss_mb_samples": [sess["peak_rss_mb"] for sess in sessions],
        "tail_latency": tail_percentile(lat),
        "metadata": {
            "nproc": nproc,
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            "versions": last["versions"],
            "blas_roof_gflops": last["blas"],
            "src_m2mtnet_lines": src_lines(),
            "forwards_per_request": last["forwards_per_request"],
            "flops_per_request": last["flops_per_request"],
        },
    }
    if args.trace:
        record["traced_latencies_s"] = last["traced_latencies"]
        record["span_count"] = last["span_count"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print_table(f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'untraced'})", metrics, units)
    print(f"  requests: {attempted} attempted, {failed} failed, failed_ratio {failed / attempted:.6g}")
    print(f"  warm samples: {len(lat)}; tail: {record['tail_latency']}")
    meta = record["metadata"]
    print(f"  nproc {nproc}, BLAS threads {meta['blas_threads']}, {meta['versions']}, src/m2mtnet {meta['src_m2mtnet_lines']} lines")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="m2mtnet benchmark: one workload, closed loop")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "m2mtnet" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'm2mtnet'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
