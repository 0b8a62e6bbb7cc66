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
