"""The benchmark's tracer finds every name it wraps; the package keeps no dead import or definition."""

import ast
import functools
import importlib
import os
import subprocess
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


def _definitions(tree):
    """Top-level functions and classes, their methods and dataclass fields, by name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                yield f"{node.name}.{item.name}"
            elif dataclass and isinstance(item, ast.AnnAssign):
                yield f"{node.name}.{item.target.id}"


@functools.cache
def _loaded_names():
    # a Name or Attribute read anywhere in the project; an import alias is not
    # a read, so the package's re-exports in __init__.py keep nothing alive
    loaded = set()
    for path in (p for folder in ("src", "tests", "benchmarks") for p in (_ROOT / folder).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return frozenset(loaded)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_definition_is_read(path):
    # a function, class, method or dataclass field that nothing in src/,
    # tests/ or benchmarks/ reads is dead; dunder methods are called implicitly
    dead = [name for name in _definitions(ast.parse(path.read_text())) if name.split(".")[-1] not in _loaded_names()]
    assert not dead, dead


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency, but the test extra installs scipy,
    # so only a fresh interpreter shows a stray import of it
    code = ("import sys, intervalfusion, intervalfusion.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout
