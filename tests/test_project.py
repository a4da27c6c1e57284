"""pyproject.toml names only files, directories and modules that exist."""

import importlib.util
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


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
    for requirement in PROJECT["project"]["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group()
        importlib.import_module(name.replace("-", "_"))
