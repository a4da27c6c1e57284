"""pyproject.toml names only files, directories and modules that exist, its
dependencies import, importing the package stays light, every kpzlab name
the benchmark reads exists, and every public name has a docstring."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
LAYERS = ("special", "exact", "fredholm", "simulate", "dpp", "continuum")


def test_named_paths_exist():
    meta = PROJECT["project"]
    tools = PROJECT.get("tool", {})
    setup = tools.get("setuptools", {})
    paths = [meta["readme"]] if "readme" in meta else []
    paths += setup.get("packages", {}).get("find", {}).get("where", [])
    paths += tools.get("pytest", {}).get("ini_options", {}).get("testpaths", [])
    for path in paths:
        assert (ROOT / path).exists(), path
    for where in setup.get("packages", {}).get("find", {}).get("where", []):
        for package, patterns in setup.get("package-data", {}).items():
            for pattern in patterns:
                assert list((ROOT / where / package).glob(pattern)), f"{package}: {pattern}"


def test_named_modules_exist():
    targets = {"build-backend": PROJECT["build-system"]["build-backend"]}
    targets.update(PROJECT["project"].get("scripts", {}))
    targets.update(PROJECT["project"].get("gui-scripts", {}))
    for name, target in targets.items():
        module = target.split(":")[0]
        assert importlib.util.find_spec(module) is not None, f"{name} -> {module}"


def test_declared_dependencies_import():
    # the test extras too: the tests need them
    test_extras = PROJECT["project"]["optional-dependencies"]["test"]
    for requirement in PROJECT["project"]["dependencies"] + test_extras:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group()
        importlib.import_module(name.replace("-", "_"))


def test_import_loads_only_scipy_special():
    # scipy.integrate alone would add about half the package's import time
    code = (
        "import sys, scipy.special; before = set(sys.modules); "
        "import kpzlab, kpzlab.continuum; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_names_resolve():
    # the benchmark under bench/ is frozen between its own changes: a name it
    # reads from a layer (exact.X, ``from kpzlab.fredholm import X``) must
    # survive every change to the library
    layers = {"exact", "fredholm", "special", "simulate"}
    read = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in layers:
                    read.add((path.name, node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kpzlab."):
                layer = node.module.split(".", 1)[1]
                read.update((path.name, layer, alias.name) for alias in node.names)
    assert {"workloads.py", "run.py", "test_bench.py"} <= {name for name, _, _ in read}
    missing = [
        f"{name}: {layer}.{attr}"
        for name, layer, attr in sorted(read)
        if not hasattr(importlib.import_module(f"kpzlab.{layer}"), attr)
    ]
    assert not missing, missing


def test_only_special_evaluates_airy():
    # one Airy evaluator: every other module takes Ai from special._airy
    banned = {"airy", "airye", "kv", "kve"}
    found = {}
    for path in sorted((ROOT / "src" / "kpzlab").glob("*.py")):
        found[path.name] = {
            alias.name
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.module == "scipy.special"
            for alias in node.names
            if alias.name in banned
        }
    assert found.pop("special.py") == {"airy"}
    assert not {name: names for name, names in found.items() if names}


def test_one_fredholm_determinant():
    # det_window is the one det(I - K): quadrature matrices go through it too
    def dets(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "det"
            or isinstance(node, ast.alias) and node.name == "det"
        ]

    def parse(name):
        path = ROOT / "src" / "kpzlab" / name
        return ast.parse(path.read_text(), str(path))

    fredholm = parse("fredholm.py")
    (det_window,) = (
        node
        for node in ast.walk(fredholm)
        if isinstance(node, ast.FunctionDef) and node.name == "det_window"
    )
    assert len(dets(fredholm)) == 1 and dets(fredholm) == dets(det_window)
    assert dets(parse("continuum.py")) == []


def test_one_extended_kernel_assembly():
    # _kernel_blocks builds every extended-kernel block: no other function
    # in exact.py takes an inverse flow or a first-passage transfer (the
    # 1 x 1 entries that check them live in tests/exact_oracles.py)
    path = ROOT / "src" / "kpzlab" / "exact.py"
    tree = ast.parse(path.read_text(), str(path))
    callers = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"_transfer_inverse_matrix", "epi_transfer_matrix"}
    }
    assert callers == {"_kernel_blocks"}


def test_exact_defines_only_what_the_library_calls_or_the_bench_reads():
    # one evaluation path per object: a public function or class of exact.py
    # that no library module calls and the benchmark does not read is a
    # second route, and lives with the tests (tests/exact_oracles.py)
    def parse(path):
        return ast.parse(path.read_text(), str(path))

    defined = {
        node.name
        for node in parse(ROOT / "src" / "kpzlab" / "exact.py").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for path in (ROOT / "src" / "kpzlab").glob("*.py")
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    read = set()
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "exact":
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "kpzlab.exact":
                read.update(alias.name for alias in node.names)
    assert defined and not defined - called - read, sorted(defined - called - read)


def test_no_library_module_imports_fractions():
    # exact rational arithmetic is an oracle's tool (tests/exact_oracles.py)
    found = [
        path.name
        for path in sorted((ROOT / "src" / "kpzlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions"
    ]
    assert not found, found


def test_one_charlier_run_per_first_passage_transfer(monkeypatch):
    # half-flat data stops walks at every step; all stops read their rows
    # from one array run, not one run each
    from kpzlab import exact
    from kpzlab.simulate import make_initial

    runs = []
    charlier = exact._poisson_charlier

    def counted(m, x, *args, **kwargs):
        runs.append(isinstance(x, np.ndarray))
        return charlier(m, x, *args, **kwargs)

    monkeypatch.setattr(exact, "_poisson_charlier", counted)
    exact.epi_transfer_matrix(make_initial("periodic", d=2), 50.0, 60, -70, 5, range(-40, 5))
    assert runs == [True]


def test_public_callables_are_plain_functions_or_classes():
    # bench/tracer.py times only plain functions: a public name bound to a
    # cached, partial or vectorised callable would read 0 s in its layer
    odd = []
    for layer in LAYERS:
        module = importlib.import_module(f"kpzlab.{layer}")
        tree = ast.parse(Path(module.__file__).read_text(), module.__file__)
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        for name, obj in vars(module).items():
            if name.startswith("_") or name in imported or not callable(obj):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                odd.append(f"{layer}.{name}: {type(obj).__name__}")
    assert not odd, odd


def test_public_names_have_their_own_docstrings():
    # every public function and class a layer defines says what it is; a
    # dataclass without a docstring gets its signature, which does not count
    bare = []
    for layer in LAYERS:
        module = importlib.import_module(f"kpzlab.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            doc = (obj.__doc__ or "").strip()
            if not doc or inspect.isclass(obj) and doc.startswith(f"{name}("):
                bare.append(f"{layer}.{name}")
    assert not bare, bare
