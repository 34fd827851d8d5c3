"""The benchmark tracer wraps package attributes by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_wrapped_attributes_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("gapcircuit.cli")
    missing = [
        (module, attribute)
        for module, attribute, _ in tracing.WRAPPED
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert missing == []
