"""The benchmark tracer wraps dplab functions by name; every name it lists
must still exist, or a traced run fails at start-up."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, qualname in spans.TRACED:
        target = importlib.import_module(f"dplab.{module_name}")
        for attr in qualname.split("."):
            assert hasattr(target, attr), f"dplab.{module_name}.{qualname} is gone"
            target = getattr(target, attr)
        assert callable(target), f"dplab.{module_name}.{qualname} is not callable"
