"""Packaging: what ``pyproject.toml`` declares must exist, and the checker
imports only what it needs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src"


def test_script_entries_import_to_callables():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target!r} is not callable"


def test_every_exported_name_exists():
    # a deletion can leave its name behind in a module's __all__
    import hflcyc
    for info in pkgutil.iter_modules(hflcyc.__path__):
        module = importlib.import_module(f"hflcyc.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def test_checker_imports_leave_out_the_semantics_oracle():
    # what a benchmark worker imports: the bounded semantics is a test
    # oracle and must stay off the checker's start-up path
    code = ("import sys, hflcyc.gtc, hflcyc.proofio; "
            "print('hflcyc.semantics' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
