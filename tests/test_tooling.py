"""The benchmark's tracer finds every name it wraps."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import tracing  # noqa: E402


@pytest.mark.parametrize("module, attr", [target[:2] for target in tracing._TARGETS])
def test_every_traced_name_resolves(module, attr):
    # tracing.install looks each name up where its caller does; a missing one
    # fails every traced benchmark call
    assert callable(getattr(importlib.import_module(f"intervalfusion.{module}"), attr))
