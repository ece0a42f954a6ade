"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def ready(name, seed, tmp_path):
    w = WORKLOADS[name](seed, tiny=True)
    w.prepare(tmp_path)
    w.setup(tmp_path)
    w.load()
    return w


def attribute_snapshot():
    targets, tape = Tracer().targets()
    snap = {(owner, attr): (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) for owner, attr, _ in targets}
    snap[(tape, "record")] = tape.__dict__["record"]
    return snap


@pytest.mark.parametrize("name", NAMES)
def test_traced_output_bit_identical_and_flops_match(name, tmp_path):
    w = ready(name, 5, tmp_path)
    plain = w.request()
    tracer = Tracer()
    tracer.request = 0
    with tracer:
        traced = w.request()
    assert plain.keys() == traced.keys()
    for key in plain:
        assert np.array_equal(plain[key], traced[key]), key
    assert w.check(traced, w.reference()) == []
    fwd = tracer.forward_flops()[0]
    assert len(fwd) == w.forwards_per_request()
    assert all(predicted == seen > 0 for predicted, seen in fwd)
    assert sum(p for p, _ in fwd) == w.flops_per_request()


def sr_pixel_plus_one(w, out):
    sr = out["sr"].copy()
    sr.ravel()[w.sample_index(sr.shape)[0]] += 1.0
    return {**out, "sr": sr}


def o2o_off_view_nonzero(w, out):
    o2o = out["o2o_map"].copy()
    o2o[0, 0].flat[0] = 1e-3
    return {**out, "o2o_map": o2o}


def lam_di_nudged(w, out):
    return {**out, "m2m_di": out["m2m_di"] * (1 + 1e-6)}


def loss_value_nudged(w, out):
    curve = out["curve"].copy()
    curve[1] *= 1 + 1e-6
    return {"curve": curve}


@pytest.mark.parametrize(
    "name, perturb",
    [
        ("sr_4x_32", sr_pixel_plus_one),
        ("lam_c8", o2o_off_view_nonzero),
        ("lam_c8", lam_di_nudged),
        ("train_c10", loss_value_nudged),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_check_rejects_a_wrong_output(name, perturb, tmp_path):
    w = ready(name, 4, tmp_path)
    out = w.request()
    assert w.check(out, w.reference()) == []
    assert w.check(perturb(w, out), w.reference()) != []


def test_flops_match_count_flops_for_both_architectures(tmp_path):
    from m2mtnet import network

    w = ready("lam_c8", 2, tmp_path)
    tracer = Tracer()
    tracer.request = 0
    with tracer:
        w.request()
    fwd = tracer.forward_flops()[0]
    steps = w.p["steps"]
    expect = [network.count_flops(w.config(arch), w.p["w"])[1] for arch in ("m2m", "o2o")]
    assert expect[0] != expect[1]
    assert [s for _, s in fwd] == [expect[0]] * steps + [expect[1]] * steps


def test_default_sr_forward_flops_are_the_paper_count():
    from m2mtnet import network

    w = WORKLOADS["sr_4x_32"](0)
    assert w.flops_per_request() == network.count_flops(network.NetConfig(), 32)[1] == 38_736_502_784


def test_tracer_restores_every_attribute(tmp_path):
    before = attribute_snapshot()
    w = ready("train_c10", 1, tmp_path)
    tracer = Tracer()
    with tracer:
        assert any(attribute_snapshot()[k] is not v for k, v in before.items())
        w.request()
    assert attribute_snapshot() == before
    with pytest.raises(KeyError):
        with Tracer():
            raise KeyError("boom")
    after = attribute_snapshot()
    assert all(after[k] is v for k, v in before.items())


def test_counters_repeat_and_constants_are_counted(tmp_path):
    w = ready("lam_c8", 0, tmp_path)
    tracer = Tracer()
    for r in range(2):
        tracer.request = r
        with tracer:
            w.request()
    for key in ("records", "grads_computed", "grads_to_constants"):
        assert tracer.counter(key, 0) == tracer.counter(key, 1) > 0, key
    # lam differentiates w.r.t. the input only, so weight gradients go to constants
    assert tracer.counter("grads_to_constants", 0) < tracer.counter("grads_computed", 0)


def test_self_time_excludes_children(tmp_path):
    w = ready("sr_4x_32", 0, tmp_path)
    tracer = Tracer()
    tracer.request = 0
    with tracer:
        w.request()
    totals = tracer.layer_totals()[0]
    fwd = totals["network.forward"]
    assert 0 <= fwd["self_s"] < fwd["s"]
    assert totals["ops.conv2d.cout1"]["calls"] == 1


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_prints_every_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train_c10", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
