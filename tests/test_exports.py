"""Every name a module of the package exports exists, and every public
function or class a module with __all__ defines is exported.

A name deleted from a module but left in its __all__ makes
`from m2mtnet.<module> import *` raise; these tests catch such stale
exports in every module.  A public definition left out of __all__ is
missing from the module's documented surface.
"""

import importlib
import inspect
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


@pytest.mark.parametrize("name", [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")])
def test_public_definitions_are_exported(name):
    mod = importlib.import_module(name)
    public = [
        n
        for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    unlisted = [n for n in public if n not in mod.__all__]
    assert not unlisted, f"{name} defines {unlisted} but leaves them out of __all__"
