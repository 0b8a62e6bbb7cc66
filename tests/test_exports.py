"""Every name a dplab module exports must resolve, so star-imports keep
working after a name is removed."""

import importlib
import pkgutil

import pytest

import dplab

MODULES = sorted(m.name for m in pkgutil.iter_modules(dplab.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(f"dplab.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"dplab.{module_name}.__all__ names {missing}, which it does not define"


@pytest.mark.parametrize("module_name", MODULES)
def test_star_import(module_name):
    namespace: dict = {}
    exec(f"from dplab.{module_name} import *", namespace)


# test references that no training run calls; the benchmark tracer
# (perfbench/spans.py) still resolves them as dplab.<module>.<name>
REFERENCES = {
    "mechanism": ("aggregate_and_perturb", "aggregate_and_perturb_scalars",
                  "clip_alpha_vec", "clip_to_norm"),
    "decomposition": ("Decomposition", "decompose", "decompose_batch"),
    "models": ("per_sample_gradients", "evaluate"),
    "vectors": ("sub",),
}
REFERENCE_NAMES = [(m, n) for m, names in REFERENCES.items() for n in names]


@pytest.mark.parametrize(("module_name", "name"), REFERENCE_NAMES)
def test_references_are_not_exported(module_name, name):
    assert not hasattr(dplab, name), f"dplab.{name} is exported"
    for other in MODULES:
        exported = getattr(importlib.import_module(f"dplab.{other}"), "__all__", ())
        assert name not in exported, f"dplab.{other}.__all__ lists {name}"


@pytest.mark.parametrize(("module_name", "name"), REFERENCE_NAMES)
def test_references_resolve_by_module_path(module_name, name):
    assert callable(getattr(importlib.import_module(f"dplab.{module_name}"), name))
