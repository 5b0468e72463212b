"""The benchmark's tracer finds every name it wraps; the package keeps no dead import."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "benchmarks"))

import tracing  # noqa: E402


@pytest.mark.parametrize("module, attr", [target[:2] for target in tracing._TARGETS])
def test_every_traced_name_resolves(module, attr):
    # tracing.install looks each name up where its caller does; a missing one
    # fails every traced benchmark call
    assert callable(getattr(importlib.import_module(f"intervalfusion.{module}"), attr))


_MODULES = sorted(p for p in (_ROOT / "src" / "intervalfusion").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_unread_import_is_traced(path):
    # a module may import a name it never reads only so that the tracer can
    # wrap it there; any other unread import is dead
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    traced = {attr for module, attr, *_ in tracing._TARGETS if module == path.stem}
    assert imported - read <= traced, sorted(imported - read - traced)
