"""API-surface quality gates.

Every public name is importable, resolvable through ``__all__``, and
documented; the registry is consistent; the package version is sane.
"""

import importlib
import inspect

import pytest

import repro

MODULES = [
    "repro",
    "repro.core",
    "repro.core.metrics",
    "repro.core.partition",
    "repro.core.prefix",
    "repro.core.rectangle",
    "repro.core.registry",
    "repro.core.render",
    "repro.core.serialize",
    "repro.oned",
    "repro.oned.api",
    "repro.oned.bisect",
    "repro.oned.dp",
    "repro.oned.heuristics",
    "repro.oned.multicost",
    "repro.oned.nicol",
    "repro.oned.probe",
    "repro.rectilinear",
    "repro.jagged",
    "repro.hierarchical",
    "repro.spiral",
    "repro.volume",
    "repro.theory",
    "repro.instances",
    "repro.instances.pic",
    "repro.instances.mesh",
    "repro.runtime",
    "repro.dynamic",
    "repro.experiments",
]


@pytest.mark.parametrize("modname", MODULES)
def test_module_all_resolves(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__, f"{modname} lacks a module docstring"
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{modname}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("modname", MODULES)
def test_public_callables_documented(modname):
    mod = importlib.import_module(modname)
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{modname}.{name} lacks a docstring"


def test_version():
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_registry_values_callable():
    for name, fn in repro.ALGORITHMS.items():
        assert callable(fn), name


def test_algorithm_names_subset_of_registry():
    for name in repro.algorithm_names():
        assert name in repro.ALGORITHMS


def test_top_level_quickstart_surface():
    """The names the README quickstart uses must exist at top level."""
    for name in ("partition_2d", "partition_1d", "load_imbalance", "Partition", "Rect"):
        assert hasattr(repro, name)
