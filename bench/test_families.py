"""Tests of the benchmark's proof families and verdict gate.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q bench``.
"""

import random
from pathlib import Path

import pytest

from hflcyc.gtc import Accepted, check_cyclic_proof
from hflcyc.kernel import validate_preproof
from hflcyc.proofio import dumps_preproof, load_preproof, loads_preproof
from hflcyc.syntax import sequent_alpha_eq
from hflcyc.trace import enumerate_simple_lassos, gtc_bruteforce, lasso_good

from families import FAMILIES, figure_eight, long_cycle
from run import WORKLOADS, Check, Gate, make_cases, run_worker

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

SMALLEST = {"rotation": 1, "branching": 1, "long_cycle": 1, "long_cycle_mu": 1,
            "figure_eight": 2, "mu_loop": 1, "sigma_free": 1}

WORKLOAD_CASES = [c for w in sorted(WORKLOADS) for c in make_cases(w, seed=7)]


def test_every_family_has_a_smallest_size():
    assert set(SMALLEST) == set(FAMILIES)


@pytest.mark.parametrize("case", WORKLOAD_CASES, ids=lambda c: c.name)
def test_workload_proofs_validate_and_round_trip(case):
    assert validate_preproof(case.pp) == []
    assert dumps_preproof(loads_preproof(case.text)) == case.text


@pytest.mark.parametrize("family", sorted(SMALLEST))
def test_smallest_size_gets_the_expected_verdict(family):
    case = FAMILIES[family](SMALLEST[family], random.Random(0))
    assert gtc_bruteforce(case.pp) is case.valid
    assert isinstance(check_cyclic_proof(case.pp), Accepted) is case.valid


@pytest.mark.parametrize("family", sorted(SMALLEST))
def test_seed_changes_names_only(family):
    a = FAMILIES[family](SMALLEST[family], random.Random(1)).pp
    b = FAMILIES[family](SMALLEST[family], random.Random(2)).pp
    assert a.nodes.keys() == b.nodes.keys()
    assert a.back_edges == b.back_edges
    assert all(sequent_alpha_eq(a.node(n).seq, b.node(n).seq) for n in a.nodes)


def test_one_lap_of_long_cycle_is_the_corpus_loop():
    corpus = load_preproof(CORPUS / "higher_order_loop.hflp")
    pp = long_cycle(1, random.Random(0)).pp
    assert pp.back_edges == corpus.back_edges
    assert all(sequent_alpha_eq(pp.node(n).seq, corpus.node(n).seq)
               for n in corpus.nodes)
    assert [pp.node(n).rule for n in sorted(pp.nodes)] == \
        [corpus.node(n).rule for n in sorted(corpus.nodes)]


def test_figure_eight_loops_are_each_good():
    pp = figure_eight(2, random.Random(0)).pp
    simple = enumerate_simple_lassos(pp)
    assert len(simple) == 2
    assert all(lasso_good(pp, lasso) for lasso in simple)


class TestGate:
    @pytest.fixture
    def gate(self):
        return Gate(make_cases("counterexamples", seed=3))

    @pytest.fixture
    def cases(self):
        return {c.name: c for c in make_cases("counterexamples", seed=3, rep=2)}

    def _admit(self, gate, case, verdict, lasso=None):
        return gate.admit(Check(case.name, False, 0.1, 0.1, verdict, 20.0, lasso), case)

    def test_smallest_sizes_agree_with_bruteforce(self, gate):
        assert gate.errors == []

    def test_true_witness_passes(self, gate, cases):
        assert self._admit(gate, cases["mu_loop(1)"], "rejected", [[], ["n0", "n1"]])
        assert gate.errors == []

    def test_wrong_verdict_fails(self, gate, cases):
        assert not self._admit(gate, cases["mu_loop(1)"], "accepted")
        assert len(gate.errors) == 1

    def test_witness_that_is_not_a_path_fails(self, gate, cases):
        assert not self._admit(gate, cases["mu_loop(1)"], "rejected", [[], ["n1"]])

    def test_witness_that_is_not_from_the_root_fails(self, gate, cases):
        assert not self._admit(gate, cases["mu_loop(1)"], "rejected", [[], ["n1", "n0"]])

    def test_good_witness_fails(self, gate, cases):
        # a weave of the two loops is bad; one loop alone carries a nu-trace
        case = cases["figure_eight(2)"]
        good = enumerate_simple_lassos(case.pp)[0]
        assert not self._admit(gate, case, "rejected", [list(good.prefix), list(good.cycle)])

    def test_undecided_is_not_wrong(self, gate, cases):
        assert self._admit(gate, cases["figure_eight(2)"], "timeout")
        assert self._admit(gate, cases["figure_eight(2)"], "unknown")
        assert gate.errors == []

    def test_crash_fails(self, gate, cases):
        assert not self._admit(gate, cases["sigma_free(1)"], "crashed")


def test_passes_rename_but_keep_the_proofs():
    a, b = make_cases("threads", seed=1, rep=0), make_cases("threads", seed=1, rep=1)
    assert [c.name for c in a] == [c.name for c in b]
    assert all(x.text != y.text for x, y in zip(a, b))
    assert [c.text for c in a] == [c.text for c in make_cases("threads", seed=1)]


def test_traced_worker_runs_the_same_check():
    case = make_cases("counterexamples", seed=5)[-2]  # mu_loop(1)
    plain = run_worker(case, traced=False, hash_seed=0)
    traced = run_worker(case, traced=True, hash_seed=0)
    assert (plain.verdict, plain.lasso) == (traced.verdict, traced.lasso) == \
        ("rejected", [[], ["n0", "n1"]])
    assert plain.spans == []
    assert [s["span"] for s in traced.spans][:5] == [
        "proofio.load", "kernel.validate", "gtc.path_automaton",
        "gtc.trace_automaton", "buchi.trim"]
    assert {"buchi.contains", "gtc.report"} <= {s["span"] for s in traced.spans}
    assert plain.peak_rss_mb > 0 and traced.peak_rss_mb > 0
