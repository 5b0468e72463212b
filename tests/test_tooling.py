"""The benchmark's tracer finds every name it wraps; the package keeps no dead import or definition.

The package root exports exactly its modules' public names, and the package
imports without scipy, runs fit-linear without scipy, answers `python -m
intervalfusion.cli --help`, runs the README's quick start, and writes a
linear sweep's rows and fit-linear's whole JSON with the same bytes under
every OpenBLAS kernel and numpy SIMD level the CPU can run, each in a fresh
interpreter.
"""

import ast
import functools
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
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
_PROJECT = [p for folder in ("src", "tests", "benchmarks") for p in (_ROOT / folder).rglob("*.py")]


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
    for path in _PROJECT:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return frozenset(loaded)


@functools.cache
def _package():
    """The package's class names, its members, and what each annotated function, method or field gives.

    A function or method gives the class its return annotation names, a
    field the class of its annotation; `C[]` stands for a list or tuple of C.
    """
    trees = [ast.parse(path.read_text()) for path in _MODULES]
    classes = {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    members = [name for tree in trees for name in _definitions(tree) if "." in name]
    gives = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                gives[node.name] = _annotated(node.returns, classes)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    gives[f"{node.name}.{item.name}"] = _annotated(item.returns, classes)
                elif isinstance(item, ast.AnnAssign):
                    gives[f"{node.name}.{item.target.id}"] = _annotated(item.annotation, classes)
    return classes, members, {key: value for key, value in gives.items() if value}


def _annotated(annotation, classes):
    """The package class an annotation names (C, "C", C | None), C[] for list[C] or tuple[C, ...]; else None."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.BinOp):
        found = {_annotated(side, classes) for side in (annotation.left, annotation.right)} - {None}
        return found.pop() if len(found) == 1 else None
    if isinstance(annotation, ast.Subscript) and ast.unparse(annotation.value) in ("list", "tuple", "Sequence"):
        item = annotation.slice.elts[0] if isinstance(annotation.slice, ast.Tuple) else annotation.slice
        found = _annotated(item, classes)
        return f"{found}[]" if found and not found.endswith("[]") else None
    name = annotation.attr if isinstance(annotation, ast.Attribute) else getattr(annotation, "id", None)
    return name if name in classes else None


def _types(expr, env):
    """What expr may evaluate to, as far as names, calls, fields and subscripts tell: C or C[]."""
    classes, _, gives = _package()
    if isinstance(expr, ast.Name):
        return env.get(expr.id, set())
    if isinstance(expr, ast.Subscript):
        return {found[:-2] for found in _types(expr.value, env) if found.endswith("[]")}
    if isinstance(expr, ast.Attribute):
        return {gives[key] for c in _types(expr.value, env) if (key := f"{c}.{expr.attr}") in gives}
    if not isinstance(expr, ast.Call):
        return set()
    func = expr.func
    if isinstance(func, ast.Attribute):
        owners = _owners(func.value, env)
        if owners:
            return {gives[key] for c in owners if (key := f"{c}.{func.attr}") in gives}
        # module.C(...) or module.function(...)
        func = ast.Name(func.attr)
    if isinstance(func, ast.Name):
        return {func.id} if func.id in classes else {gives[func.id]} if func.id in gives else set()
    return set()


def _owners(expr, env):
    # the classes whose members expr.attr may read: a package class itself, or its instance's
    classes = _package()[0]
    if isinstance(expr, ast.Name) and expr.id in classes:
        return {expr.id}
    return {found for found in _types(expr, env) if not found.endswith("[]")}


def _scope(node):
    """node and the nodes inside it, yielding but not entering nested functions and classes."""
    yield node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
        for child in ast.iter_child_nodes(node):
            yield from _scope(child)


@functools.cache
def _resolved_reads():
    """Every Class.member read whose owner resolves to a package class.

    An owner resolves through self or cls in the class's own methods, the
    class's name, an annotated parameter, or a name bound to a constructor
    call, an annotated function's result, an annotated field or an element
    of an annotated list or tuple; names are bound per scope, not per line.
    """
    classes = _package()[0]
    reads = set()

    def visit(node, env, cls):
        env = dict(env)
        if not isinstance(node, ast.Module):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            for i, arg in enumerate(arguments):
                found = _annotated(arg.annotation, classes)
                if found or i == 0 and cls in classes:
                    env[arg.arg] = {found or cls}
        body = node.body if isinstance(node.body, list) else [node.body]
        scope = [inner for statement in body for inner in _scope(statement)]
        for inner in scope:
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1 and isinstance(inner.targets[0], ast.Name):
                bound, found = inner.targets[0].id, _types(inner.value, env)
            elif isinstance(inner, ast.AnnAssign) and isinstance(inner.target, ast.Name):
                bound, found = inner.target.id, {_annotated(inner.annotation, classes)} - {None}
            elif isinstance(inner, (ast.For, ast.comprehension)) and isinstance(inner.target, ast.Name):
                bound, found = inner.target.id, _types(ast.Subscript(inner.iter, ast.Constant(0)), env)
            else:
                continue
            env[bound] = env.get(bound, set()) | found
        for inner in scope:
            if isinstance(inner, ast.Attribute) and isinstance(inner.ctx, ast.Load):
                reads.update(f"{owner}.{inner.attr}" for owner in _owners(inner.value, env))
            elif isinstance(inner, ast.ClassDef):
                for item in inner.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit(item, env, inner.name)
            elif isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(inner, env, None)

    for path in _PROJECT:
        visit(ast.parse(path.read_text()), {}, None)
    return frozenset(reads)


@functools.cache
def _shared_names():
    # member names a read cannot attribute by name alone: two package classes
    # have them, or numpy arrays, dicts, lists or strings do
    members = [name.split(".")[1] for name in _package()[1]]
    return {name for name in members
            if members.count(name) > 1 or any(hasattr(t, name) for t in (np.ndarray, dict, list, str))}


# shared-name members read only where the resolver cannot name the owner
_UNRESOLVED_READS = {
    # tests read report.tau on elements of evaluate_taus' dict of lists
    "MetricsReport.tau",
}


def _read(definition):
    cls, _, member = definition.rpartition(".")
    if not cls:
        return definition in _loaded_names()
    if definition in _resolved_reads():
        return True
    return definition in _UNRESOLVED_READS if member in _shared_names() else member in _loaded_names()


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_definition_is_read(path):
    # a function, class, method or dataclass field that nothing in src/,
    # tests/ or benchmarks/ reads is dead; dunder methods are called
    # implicitly.  A member is read where a read's owner resolves to its
    # class; a read the resolver cannot place counts only for a member whose
    # name no other package class, numpy array, dict, list or str shares
    dead = [name for name in _definitions(ast.parse(path.read_text())) if not _read(name)]
    assert not dead, dead


def test_unresolved_reads_are_needed():
    # each entry names a member whose name is shared and whose reads the
    # resolver cannot place; one it places, or that is gone, leaves the list
    members = set(_package()[1])
    needed = {name for name in members if name.split(".")[1] in _shared_names()} - _resolved_reads()
    assert _UNRESOLVED_READS <= needed, sorted(_UNRESOLVED_READS - needed)


def test_package_root_is_the_union_of_the_module_lists():
    # each public name is declared once, in its module's __all__; the
    # package root re-exports every module's list and leaves cli out
    package = importlib.import_module("intervalfusion")
    modules = [importlib.import_module(f"intervalfusion.{path.stem}") for path in _MODULES if path.stem != "cli"]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), sorted({name for name in names if names.count(name) > 1})
    assert sorted(package.__all__) == sorted(names)
    assert all(getattr(package, name) is getattr(module, name) for module in modules for name in module.__all__)


def test_block_estimates_finds_kept_cells_once(monkeypatch):
    # BI and GBI read one kept-cell pass per tau; a refactor that forks the
    # path again fails here
    from intervalfusion import fusion, metrics
    from intervalfusion.scenario import ScenarioParams, draw_trials

    found = []
    real = fusion.TransitionProfile._kept

    def counted(profile, tau):
        cells = real(profile, tau)
        found.append((tau, cells))
        return cells

    monkeypatch.setattr(fusion.TransitionProfile, "_kept", counted)
    params = ScenarioParams(n=8, m=2, tau=1, x_max=5, seed=84)
    algos = [metrics.AlgorithmSpec(kind="bi"), metrics.AlgorithmSpec(kind="gbi_oneopt")]
    draw = draw_trials(params, 0, 256)
    for tau in (1, 3, 6):
        found.clear()
        _, degenerate = metrics._block_estimates(algos, draw.at(tau), tau)
        assert not degenerate.any()
        assert [t for t, _ in found] == [tau, tau]
        assert found[0][1] is found[1][1]


def _run_python(*args, **env):
    """Run `python *args` in a fresh interpreter with src/ on its path and env added; returns its stdout.

    A nonzero exit raises CalledProcessError.
    """
    path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency, but the test extra installs scipy,
    # so only a fresh interpreter shows a stray import of it
    out = _run_python("-c", "import sys, intervalfusion, intervalfusion.cli; "
                      "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert out.strip() == "[]", out


def _readme_block(anchor, language):
    """The first fenced `language` block of README.md after the text anchor."""
    readme = (_ROOT / "README.md").read_text()
    section = readme[readme.index(anchor):]
    start = section.index(f"```{language}\n") + len(f"```{language}\n")
    return section[start:section.index("```", start)]


def test_readme_quick_start_runs():
    # the README's library quick start, run as a reader would paste it
    code = _readme_block("## Library quick start", "python")
    assert "import intervalfusion" in code or "from intervalfusion import" in code
    assert _run_python("-c", code).strip()


def test_module_entry_point_runs():
    # the README names `python3 -m intervalfusion.cli` beside the console script
    assert "fit-linear" in _run_python("-m", "intervalfusion.cli", "--help")


def test_fit_linear_runs_without_scipy(tmp_path):
    # fit-linear is the one command that runs the two-agent recipe and its
    # local Nelder-Mead; on the README's study config it needs numpy alone
    config = tmp_path / "study.json"
    config.write_text(_readme_block("Example config reproducing", "json"))
    out = _run_python(
        "-c",
        "import sys\n"
        "from intervalfusion.cli import main\n"
        f"assert main(['fit-linear', '--config', {str(config)!r}, '--lambda', '0.5',"
        f" '--out', {str(tmp_path / 'fit.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    assert out.splitlines()[-1] == "[]", out
    assert len(json.loads((tmp_path / "fit.json").read_text())) == 7


# run in a fresh interpreter: tests/ and a scratch folder as arguments; prints
# the hash of the least-squares reference fit's bytes on a grid, the hash of a
# small linear sweep's CSV, fit-linear's whole JSON and the hashes of two
# small fuser sweeps' CSVs (the sorts and argsorts of the region kernels), as
# one JSON line
_KERNEL_PROBE = """
import hashlib, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from helpers import reference_fit_linear_lstsq
from intervalfusion import ScenarioParams
from intervalfusion.cli import main

folder = Path(sys.argv[2])
config = folder / "config.json"
config.write_text(json.dumps({"n": 6, "m": 2, "x_max": 5, "seed": 11, "taus": [1, 3],
                              "lambdas": [0.1, 0.5, 0.9], "algorithms": ["linear"], "trials": 200,
                              "output_path": str(folder / "rows.csv")}))
reference = hashlib.sha256()
for tau in range(10):
    for lam in (0.1, 0.5, 0.9):
        for c in reference_fit_linear_lstsq(ScenarioParams(n=10, m=2, tau=tau, x_max=5, seed=0), lam):
            reference.update(c.eps.tobytes() + c.delta.tobytes() + float(c.gamma).hex().encode())
assert main(["sweep", "--config", str(config)]) == 0
assert main(["fit-linear", "--config", str(config), "--lambda", "0.5", "--out", str(folder / "fit.json")]) == 0
fusers = []
for n, taus, algorithms in ((10, [1, 2, 3, 4, 5, 6, 7], ["marzullo", "bi", "gbi_oneopt"]),
                            (16, [4, 8, 12], ["gbi_oneopt", "marzullo"])):
    out = folder / f"fusers-{n}.csv"
    config.write_text(json.dumps({"n": n, "m": 2, "x_max": 5, "seed": 777, "taus": taus,
                                  "algorithms": algorithms, "trials": 200, "output_path": str(out)}))
    assert main(["sweep", "--config", str(config)]) == 0
    fusers.append(hashlib.sha256(out.read_bytes()).hexdigest())
print(json.dumps({"reference": reference.hexdigest(),
                  "rows": hashlib.sha256((folder / "rows.csv").read_bytes()).hexdigest(),
                  "fit": (folder / "fit.json").read_text(),
                  "fusers": fusers}))
"""


def _kernel_environments():
    """Settings that switch numpy's BLAS and SIMD kernels, each one this CPU can run.

    OPENBLAS_CORETYPE forces an OpenBLAS kernel; a kernel whose instructions
    the CPU lacks (SkylakeX needs avx512f, Haswell avx2) would stop the
    process with SIGILL, so it is forced only where /proc/cpuinfo lists the
    flag.  NPY_DISABLE_CPU_FEATURES turns off every SIMD extension numpy
    dispatches to and this CPU has, leaving numpy's baseline.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    flags = {flag for line in cpuinfo.splitlines() if line.startswith("flags") for flag in line.split(":", 1)[1].split()}
    environments = {"host default": {}}
    for coretype, needs in (("Prescott", None), ("Haswell", "avx2"), ("SkylakeX", "avx512f")):
        if needs is None or needs in flags:
            environments[coretype] = {"OPENBLAS_CORETYPE": coretype}
    dispatched = [feature for feature in umath.__cpu_dispatch__ if umath.__cpu_features__.get(feature)]
    if dispatched:
        environments["numpy baseline"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)}
    return environments


def test_linear_rows_and_fit_ignore_the_blas_and_simd_kernels(tmp_path):
    # the sweep's linear fit, the law's moments and the population scores are
    # formed from Python ints and floats, so the linear rows and fit-linear's
    # whole JSON (coefficients, both objectives, the selection and its error)
    # are the same bytes under every kernel, and so are the Marzullo, BI and
    # region GBI rows; the least-squares route the fit replaced is the
    # positive control that the settings take effect on this numpy build
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OPENBLAS_CORETYPE names x86-64 kernels; this host is {platform.machine()}")
    outputs = {}
    for name, env in _kernel_environments().items():
        folder = tmp_path / name.replace(" ", "-")
        folder.mkdir()
        stdout = _run_python("-c", _KERNEL_PROBE, str(_ROOT / "tests"), str(folder), **env)
        outputs[name] = json.loads(stdout.splitlines()[-1])
    references = {name: out["reference"] for name, out in outputs.items()}
    if len(set(references.values())) < 2:
        pytest.skip(f"the least-squares reference gave the same bytes under every setting ({sorted(references)}), "
                    "so this numpy build does not show that they switch its kernels")
    first = next(iter(outputs.values()))
    for name, out in outputs.items():
        assert out["rows"] == first["rows"], name
        assert out["fit"] == first["fit"], name
        assert out["fusers"] == first["fusers"], name
