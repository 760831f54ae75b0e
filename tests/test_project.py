"""Packaging: what ``pyproject.toml`` declares must exist, the checker
imports only what it needs, and its functions do not call themselves."""

import ast
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


def _python(code: str, hash_seed: str | None = None) -> str:
    """What ``code`` prints, run by a fresh interpreter that imports from src
    (with ``PYTHONHASHSEED`` set to ``hash_seed``, when given)."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_checker_imports_leave_out_the_semantics_oracle():
    # what a benchmark worker imports: the bounded semantics, the trace
    # oracles and the encodings serve tests and must stay off the checker's
    # start-up path
    out = _python("import sys, hflcyc.gtc, hflcyc.proofio; "
                  "print(sorted({'hflcyc.semantics', 'hflcyc.oracles', 'hflcyc.encodings'}"
                  " & set(sys.modules)))")
    assert out.strip() == "[]"


def test_trace_forwards_three_oracles_on_first_use():
    out = _python("import sys, hflcyc.trace; print('hflcyc.oracles' in sys.modules)")
    assert out.strip() == "False"
    import hflcyc.oracles
    import hflcyc.trace
    from hflcyc.trace import gtc_bruteforce
    assert gtc_bruteforce is hflcyc.oracles.gtc_bruteforce
    forwarded = {"enumerate_simple_lassos", "gtc_bruteforce", "lasso_good"}
    for name in forwarded:
        assert getattr(hflcyc.trace, name) is getattr(hflcyc.oracles, name)
    for name in set(hflcyc.oracles.__all__) - forwarded:
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(hflcyc.trace, name)


# bench/run.py checks each pass in a worker with its own PYTHONHASHSEED, so a
# verdict or report that followed the hash order of strings would vary
# between passes
CHECK_REPORTS = f"""
import random, sys
sys.path.insert(0, {str(ROOT / "bench")!r})
from families import figure_eight, long_cycle_mu
from hflcyc.gtc import check_cyclic_proof, counterexample_report
from hflcyc.kernel import DerivTree, OrL, PreProof
from hflcyc.proofio import loads_preproof
from hflcyc.syntax import parse_sequent

k0 = DerivTree("k0", parse_sequent("r, p |- s"), None)
k1 = DerivTree("k1", parse_sequent("r, q |- s"), None)
proofs = [PreProof(DerivTree("root", parse_sequent("r, p \\\\/ q |- s"), OrL(), (k0, k1)), {{}})]
for case in (long_cycle_mu(4, random.Random(1)), figure_eight(2, random.Random(1))):
    proofs.append(loads_preproof(case.text))
for pp in proofs:
    result = check_cyclic_proof(pp)
    print(repr(result))
    if getattr(result, "lasso", None) is not None:
        print(counterexample_report(pp, result.lasso))
"""


def test_verdicts_and_reports_do_not_depend_on_the_hash_seed():
    outs = [_python(CHECK_REPORTS, hash_seed) for hash_seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert "k0: open leaf without back edge; k1: open leaf without back edge" in outs[0]
    assert outs[0].count("counterexample path:") == 2


HYPOTHESIS_PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_by_name(tmp_path):
    # To report a failure, Hypothesis's plugin imports libcst, which warns on
    # import; under this project's warning filters that warning must not
    # become an error, which aborts the run with INTERNALERROR
    (tmp_path / "test_probe.py").write_text(HYPOTHESIS_PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED test_probe.py::test_fails" in run.stdout
    assert "1 failed, 1 passed" in run.stdout


# A class decorated with @dataclass generates and execs its methods at
# import, and the dataclasses module pulls in inspect, ast, dis and tokenize:
# together most of the checker's start-up time that the library controls.
# The checker's records are hand-written (syntax.Record), so a worker
# imports none of these.
START_UP_UNNEEDED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_checker_imports_load_neither_dataclasses_nor_inspect():
    out = _python("import sys, hflcyc.gtc, hflcyc.proofio; "
                  f"print(sorted(set({START_UP_UNNEEDED!r}) & set(sys.modules)))")
    assert out.strip() == "[]"


# The checker's walks, the parser's too, keep their work on explicit stacks,
# so a deep formula, type or proof costs memory, not Python frames.  Only
# this function calls itself:
SELF_CALLS_ALLOWED = {
    ("proofio", "_write_form"): "a proof file's forms are at most 3 lists deep",
}
# the checker's modules, and the oracles and encodings that tests run
WALKED_MODULES = ("syntax", "kernel", "trace", "gtc", "proofio", "oracles", "encodings")


def _self_calls(module: str) -> set[tuple[str, str]]:
    """(module, qualified name) of each function in the module that calls
    itself by name, directly or from a function nested in it."""
    tree = ast.parse((SRC / "hflcyc" / f"{module}.py").read_text())
    found = set()
    todo = [(node, "") for node in tree.body]
    while todo:
        node, prefix = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(kid, f"{prefix}{node.name}.") for kid in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                fn = call.func if isinstance(call, ast.Call) else None
                if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                        and fn.value.id in ("self", "cls"):
                    fn = ast.Name(fn.attr)  # a method calling itself
                if isinstance(fn, ast.Name) and fn.id == node.name:
                    found.add((module, prefix + node.name))
            todo += [(kid, f"{prefix}{node.name}.") for kid in node.body]
    return found


def test_no_checker_function_calls_itself():
    found = set().union(*map(_self_calls, WALKED_MODULES))
    assert found - set(SELF_CALLS_ALLOWED) == set()
    assert set(SELF_CALLS_ALLOWED) <= found  # each exception is still needed


def test_each_rule_states_its_premises_once():
    # a rule gives each premise formula with its trace link in premise_rows;
    # the base class derives the premises and the inference from that, so no
    # second table of links can disagree with the premises
    from hflcyc import kernel
    for cls in kernel.RULE_CLASSES:
        assert not hasattr(cls, "sources"), cls.tag
        for name in ("premises_of", "inference"):
            assert getattr(cls, name) is getattr(kernel.Rule, name), f"{cls.tag}.{name}"
        assert cls.premise_rows is not kernel.Rule.premise_rows, cls.tag
