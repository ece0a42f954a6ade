"""The benchmark still runs on this program.

`perfbench.tracer.Tracer` replaces module attributes and methods of
m2mtnet by name, so renaming one of them in `src/` breaks traced benchmark
runs; and each workload calls the program's public names and checks its
output against stored references.  These guards fail fast in the main
suite when either breaks.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_and_uninstall_restores_every_target():
    tracer = Tracer()
    targets, tape_cls = tracer.targets()
    names = [(owner, attr) for owner, attr, _ in targets] + [(tape_cls, "record")]
    before = [_current(owner, attr) for owner, attr in names]
    tracer.install()
    try:
        for (owner, attr), orig in zip(names, before):
            now = _current(owner, attr)
            assert now is not orig, f"{attr} was not patched"
            assert now.__wrapped__ is orig, attr
    finally:
        tracer.uninstall()
    for (owner, attr), orig in zip(names, before):
        assert _current(owner, attr) is orig, f"{attr} was not restored"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_matches_its_reference(name, tmp_path):
    w = WORKLOADS[name](0, tiny=True)
    w.prepare(tmp_path)
    w.setup(tmp_path)
    w.load()
    assert w.check(w.request(), w.reference()) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tiny_workload_forwards_match_count_flops(name, tmp_path):
    """The per-forward gate of a traced benchmark run: every request makes
    forwards_per_request() forwards, and the conv2d, linear and attention
    FLOPs seen inside each equal count_flops' prediction."""
    w = WORKLOADS[name](0, tiny=True)
    w.prepare(tmp_path)
    w.setup(tmp_path)
    w.load()
    tracer = Tracer(flops_per_mac=w.forwards()[0][0].flops_per_mac)
    tracer.request = 0
    with tracer:
        w.request()
    fwd = tracer.forward_flops()[0]
    assert len(fwd) == w.forwards_per_request()
    assert all(predicted == seen > 0 for predicted, seen in fwd), fwd
