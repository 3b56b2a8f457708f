"""Public-API quality gates.

Every subpackage must export exactly what its ``__all__`` promises, and
every public item must carry a docstring — the library's contract with
downstream users.
"""

import importlib
import inspect

import pytest

SUBPACKAGES = [
    "repro",
    "repro.geo",
    "repro.stats",
    "repro.datasets",
    "repro.energy",
    "repro.forecast",
    "repro.core",
    "repro.incentives",
    "repro.routing",
    "repro.sim",
    "repro.experiments",
    "repro.resilience",
    "repro.parallel",
    "repro.shard",
    "repro.loadgen",
    "repro.gauntlet",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", [m for m in SUBPACKAGES if m != "repro"])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} must declare __all__"
    for item in module.__all__:
        assert hasattr(module, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", [m for m in SUBPACKAGES if m != "repro"])
def test_public_items_documented(name):
    module = importlib.import_module(name)
    for item in module.__all__:
        obj = getattr(module, item)
        if inspect.ismodule(obj):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert (obj.__doc__ or "").strip(), f"{name}.{item} lacks a docstring"


@pytest.mark.parametrize("name", [m for m in SUBPACKAGES if m != "repro"])
def test_public_classes_have_documented_public_methods(name):
    module = importlib.import_module(name)
    for item in module.__all__:
        obj = getattr(module, item)
        if not inspect.isclass(obj):
            continue
        for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
            if meth_name.startswith("_"):
                continue
            if meth.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited
            assert (meth.__doc__ or "").strip(), (
                f"{name}.{item}.{meth_name} lacks a docstring"
            )


def test_version_exposed():
    import repro

    assert repro.__version__
