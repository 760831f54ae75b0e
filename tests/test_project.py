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


def _python(code: str) -> str:
    """What ``code`` prints, run by a fresh interpreter that imports from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_checker_imports_leave_out_the_semantics_oracle():
    # what a benchmark worker imports: the bounded semantics is a test
    # oracle and must stay off the checker's start-up path
    out = _python("import sys, hflcyc.gtc, hflcyc.proofio; "
                  "print('hflcyc.semantics' in sys.modules)")
    assert out.strip() == "False"


# Each @dataclass generates and execs its methods at import, most of the
# checker's start-up time; lower this ceiling when a change removes some.
DATACLASS_CEILING = 61


def test_checker_imports_process_few_dataclasses():
    code = """
import dataclasses
count = 0
process = dataclasses._process_class
def counted(*args, **kwargs):
    global count
    count += 1
    return process(*args, **kwargs)
dataclasses._process_class = counted
import hflcyc.gtc, hflcyc.proofio
print(count)
"""
    count = int(_python(code))
    assert 0 < count <= DATACLASS_CEILING
