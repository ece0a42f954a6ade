"""Every name a module of the package exports exists.

A name deleted from a module but left in its __all__ makes
`from m2mtnet.<module> import *` raise; these tests catch such stale
exports in every module.
"""

import importlib
import pkgutil

import pytest

import m2mtnet

# __main__ is left out: importing it runs the command line
MODULES = ["m2mtnet"] + sorted(
    f"m2mtnet.{m.name}" for m in pkgutil.iter_modules(m2mtnet.__path__) if m.name != "__main__"
)


def test_every_module_is_listed():
    assert {"m2mtnet.lftensor", "m2mtnet.autodiff", "m2mtnet.ops", "m2mtnet.network"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    ns = {}
    exec(f"from {name} import *", ns)
    mod = importlib.import_module(name)
    if hasattr(mod, "__all__"):
        assert set(ns) - {"__builtins__"} == set(mod.__all__)
