"""The benchmark tracer can patch and restore every program name it wraps.

`perfbench.tracer.Tracer` replaces module attributes and methods of
m2mtnet by name, so renaming one of them in `src/` breaks traced benchmark
runs.  This guard fails fast in the main suite when that happens.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer  # noqa: E402


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
