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
import warnings
from pathlib import Path

import numpy as np
import pytest

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


def test_tracer_span_names_resolve():
    # bench/tracer.py reads its per-layer metrics by "layer.name" strings,
    # passed to s, n and total or used as keys of _HOOKS: a renamed function
    # would silently read 0 s.  Three names are stale until the benchmark's
    # next change, and no other may join them
    path = ROOT / "bench" / "tracer.py"
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in {"s", "n", "total"}:
            named.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_HOOKS"]:
            named.update(key.value for key in node.value.keys)
    assert "dpp.conditional_l_to_k" in named
    stale = {
        name
        for name in named
        if not hasattr(importlib.import_module(f"kpzlab.{name.split('.')[0]}"), name.split(".", 1)[1])
    }
    assert stale == {"special.airy_ai", "special.circle_quadrature", "exact.hitting_profile"}, sorted(stale)



# One round of each benchmark workload at seed 1, in a fresh process at one
# BLAS thread, as the benchmark runs it: a sha256 per workload over every
# outcome's key, the bits of its value and its error.  A change that keeps
# the benchmark's outcomes keeps these digests; a change that moves a value
# re-pins them and says which.
_BENCH_OUTCOMES = """
import hashlib
import numpy as np
from workloads import WORKLOADS


def bits(v):
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
        return f"{v.dtype.str}{v.shape}{data}"
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(map(bits, v)) + ")"
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{bits(x)}" for k, x in sorted(v.items())) + "}"
    if hasattr(v, "__dict__"):  # a state or a height field
        return type(v).__name__ + bits(vars(v))
    return repr(v)


for name, cls in WORKLOADS.items():
    work = cls(1)
    work.warm_up()
    digest = hashlib.sha256()
    for op in work.ops:
        for o in work.run_op(op):
            digest.update(f"{bits(o.key)}|{bits(o.value)}|{o.error}\\n".encode())
    print(name, digest.hexdigest())
"""


def test_benchmark_outcomes_are_pinned():
    # OpenBLAS 0.3.31 at one thread on x86-64
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    run = subprocess.run(
        [sys.executable, "-c", _BENCH_OUTCOMES], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    assert dict(line.split() for line in run.stdout.splitlines()) == {
        "tasep-scaling": "0294434a111af9885228bcb0f2ef921c89c7976d8d8374e33f122be8838a2eb6",
        "tasep-finite": "2c925f37c44781a94765d5537bf2d806187933f0d80e3688b9a37b9f9da3a28f",
        "fixed-point": "28f120d1d9966436fa4bd9440c63246753585112a2ad2d320073d9c8f6285eaa",
        "monte-carlo": "6df6ca52afa78c5c5de91af9aedcaeabe3348b694ad13dbfd3b10497df81fd6a",
    }

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


def test_one_height_event_map():
    # simulate.height_events is the one map from rescaled-height events to
    # particle events: no other module under src/ or tests/ defines a
    # height_event function or an ANCHOR constant of its own
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        if path == ROOT / "src" / "kpzlab" / "simulate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.FunctionDef) and name.startswith("height_event") or (
                name == "ANCHOR" and isinstance(getattr(node, "ctx", None), ast.Store)
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not found, found


def test_only_the_simulator_builders_skip_a_check():
    # a state or height field built by <class>.__new__ skips __post_init__:
    # only simulate's one builder per class may, and only for what the
    # simulator built itself from checked input
    builders = {"_particle_state", "_height_field"}
    found, readers = set(), {name: set() for name in builders}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if isinstance(func, ast.Attribute) and func.attr == "__new__" and isinstance(func.value, ast.Name):
                    found.add(f"{where}: {func.value.id}")
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in builders:
                    readers[name].add(where)
    assert found == {"simulate._particle_state: object", "simulate._height_field: object"}
    assert readers == {
        "_particle_state": {"simulate.initial_state", "simulate._last_passage"},
        "_height_field": {"simulate.height"},
    }


def test_one_path_to_the_transition_determinant():
    # schuetz_transition is the one caller of _small_det, and schuetz_F's
    # memo is read only by schuetz_F, which checks its arguments, and by
    # schuetz_transition, which checks them once per determinant
    private = {"_small_det", "_schuetz_F"}
    readers = {name: set() for name in private}
    for path in sorted((ROOT / "src" / "kpzlab").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in private:
                    readers[name].add(where)
    assert readers == {
        "_small_det": {"exact.schuetz_transition"},
        "_schuetz_F": {"special.schuetz_F", "exact.schuetz_transition"},
    }


def test_only_special_names_the_exp_split_constants():
    # special._exp_split is the one split e^s = g 2^k: no other module under
    # src/ or tests/ names the two-part ln 2 or the bounds of its ranges
    constants = {"_LN2_HI", "_LN2_LO", "_SPLIT", "_K_EXACT", "_LN2_2_128"}
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        if path == ROOT / "src" / "kpzlab" / "special.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in constants:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not found, found


@pytest.mark.parametrize("layer", ["exact", "dpp"])
def test_layer_defines_only_what_the_library_calls_or_the_bench_reads(layer):
    # one evaluation path per object: a public function or class of the
    # layer that no library module calls and the benchmark does not read is
    # a second route, and lives with the tests (tests/exact_oracles.py,
    # tests/dpp_oracles.py)
    def parse(path):
        return ast.parse(path.read_text(), str(path))

    defined = {
        node.name
        for node in parse(ROOT / "src" / "kpzlab" / f"{layer}.py").body
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
                if node.value.id == layer:
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == f"kpzlab.{layer}":
                read.update(alias.name for alias in node.names)
    assert defined and not defined - called - read, sorted(defined - called - read)


def test_no_count_caps():
    # the formulas take any number of points: exact, continuum and fredholm
    # define no N_MAX_* count but two real limits, the array sum's on its
    # filling counts and the path route's on the digits its product keeps,
    # and compare no len(...) against a literal count past 1; an equality
    # dispatch on small sizes stays legal
    order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = []
    for layer in ("exact", "continuum", "fredholm"):
        path = ROOT / "src" / "kpzlab" / f"{layer}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id.startswith("N_MAX_") and node.id not in ("N_MAX_ARRAY_SUM", "N_MAX_PATH"):
                    found.append(f"{layer}.py:{node.lineno} {node.id}")
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, pair in zip(node.ops, zip(operands, operands[1:])):
                    counted = any(isinstance(e, ast.Call) and getattr(e.func, "id", None) == "len" for e in pair)
                    literal = any(
                        isinstance(e, ast.Constant) and type(e.value) is int and e.value > 1 for e in pair
                    )
                    if isinstance(op, order) and counted and literal:
                        found.append(f"{layer}.py:{node.lineno} {ast.unparse(node)}")
    assert not found, found


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


def _time_calls():
    """Each public function that takes a time, as a call on that time."""
    from kpzlab import continuum, exact, simulate, special

    step, flat = simulate.make_initial("step"), simulate.make_initial("periodic", d=2)
    pair = simulate.make_initial("explicit", entries=(30, -30))
    state = simulate.initial_state(flat, n_particles=6)
    full = simulate.initial_state(simulate.make_initial("explicit", entries=(4, 2, 0, -2)))
    return {
        "special.schuetz_F": lambda t: special.schuetz_F(2, 1, t),
        "exact.epi_transfer_matrix": lambda t: exact.epi_transfer_matrix(flat, t, 5, -8, 2, range(-6, 3)),
        "exact.schuetz_transition": lambda t: exact.schuetz_transition((3, 1), (2, 0), t),
        "exact.gt_pattern_sum": lambda t: exact.gt_pattern_sum((3, 1), (2, 0), t, pad=6),
        "exact.kt_kernel": lambda t: exact.kt_kernel(t, step, 2, 3, -1, 2),
        "exact.kt_step_closed": lambda t: exact.kt_step_closed(t, 2, 3, -1, 2),
        "exact.multipoint_probability": lambda t: exact.multipoint_probability(t, flat, [(20, -5)]),
        "exact.path_integral_probability": lambda t: exact.path_integral_probability(t, step, [(1, 0)]),
        "exact.bfps_l_verify": lambda t: exact.bfps_l_verify(pair, t, (-40, 45), trials=5),
        "continuum.s_kernel": lambda t: continuum.s_kernel(t, 0.3, 0.2),
        "simulate.jump_bound": simulate.jump_bound,
        "simulate.particles_needed": lambda t: simulate.particles_needed(flat, -20, t),
        "simulate.initial_state": lambda t: simulate.initial_state(flat, z_lo=-20, duration=t),
        "simulate.evolve": lambda t: simulate.evolve(simulate.evolve(state, t, 3), 1.9, 4),
        "simulate.evolve_events": lambda t: simulate.evolve_events(state, t, 3),
        "simulate.ParticleState": lambda t: simulate.ParticleState(np.array([0, -2]), 1, t, 2, False),
        "simulate.HeightField": lambda t: simulate.HeightField(0, np.array([0, 1]), t),
        "simulate.rescale_height": lambda t: simulate.rescale_height(
            simulate.height(simulate.evolve(full, 2 * t, 3), -4, 4), 1.0, t
        ),
    }


def _bits(value):
    """Everything a result holds, down to the bits and the Python types."""
    from kpzlab.fredholm import Certified

    if isinstance(value, Certified):
        return (float(value).hex(), value.error, value.order)
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tobytes())
    if hasattr(value, "__dataclass_fields__"):
        return _bits(list(vars(value).values()))
    return (type(value), float(value).hex() if isinstance(value, float) else value)


# at t = 50 the pair has left the sites that bfps_l_verify samples, so the
# check raises a WindowError rather than pass with no weight compared
_RAISES = {("exact.bfps_l_verify", 50.0)}


def _outcome(call, t):
    """What call(t) returns, down to the bits, or the error it raises."""
    try:
        return ("returns", _bits(call(t)))
    except ValueError as err:
        return ("raises", type(err), str(err))


@pytest.mark.parametrize("name", sorted(_time_calls()))
def test_numpy_float_times_run_as_python_floats(name):
    # a float32 time ran in single precision: multipoint_probability at
    # np.float32(50.0) on half-flat data was off by 1.2e-4 relative, with a
    # certificate error of 0.0, and float16 cast warnings overflowed
    call = _time_calls()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.5, 1.0, 2.0, 50.0):
            want = _outcome(call, t)
            assert (want[0] == "raises") == ((name, t) in _RAISES), (name, t, want)
            for dtype in (np.float32, np.float16):
                assert _outcome(call, dtype(t)) == want, (name, dtype, t)
