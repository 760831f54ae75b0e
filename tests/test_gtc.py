"""Path/trace automata and the decision of the global trace condition."""

import copy
import pickle
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hflcyc.gtc as gtc
from hflcyc.gtc import (
    Accepted,
    GtcError,
    GtcUnknown,
    Rejected,
    accepts_lasso,
    build_gtc_automaton,
    build_path_automaton,
    check_cyclic_proof,
    check_gtc,
    counterexample_report,
    render_lasso,
    trim,
)
import hflcyc.kernel as kernel
import hflcyc.syntax as syntax
import hflcyc.trace as trace
from hflcyc.kernel import (
    LEFT,
    RIGHT,
    AndR,
    Axiom,
    Cut,
    DerivTree,
    EqR,
    ExR,
    HeadStepRule,
    KernelError,
    MuL,
    MuR,
    NuL,
    NuR,
    OccurrenceRef,
    OrL,
    OrR,
    PreProof,
    Rule,
    WkL,
    WkR,
    validate_preproof,
)
from hflcyc.proofio import dumps_preproof, load_preproof, loads_preproof
from hflcyc.semantics import BoundedDomain, Invalid, Valid, check_validity_bounded
from hflcyc.syntax import (
    PROP, App, Eq, HflError, Lam, Mu, Nu, Or, Sequent, Succ, Var, Zero, numeral, sigma_paths,
    subexpr_at, to_str,
)
from hflcyc.oracles import (
    AnnotatedFormula,
    _tree_paths,
    annotate_root,
    annotate_step,
    enumerate_closed_walks,
    enumerate_simple_lassos,
    gtc_bruteforce,
    lasso_good,
    replay_annotations,
)
from hflcyc.trace import Lasso, TraceError, fresh_counter, node_steps, occurrence_steps

from test_kernel import built_loop, loop_proof, pe, ps, tree_preorder, unrolled_loop
from test_trace import (
    branching_loop_proof,
    figure_eight_proof,
    leaf,
    left_mu_loop_proof,
    node,
    self_loop_proof,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
BENCH = Path(__file__).resolve().parent.parent / "bench"

GOLDEN_CYCLE = ("n0", "n1", "n2", "n3", "n4")


@pytest.fixture(scope="module")
def golden() -> PreProof:
    pp = load_preproof(CORPUS / "higher_order_loop.hflp")
    assert validate_preproof(pp) == []
    return pp


def sigma_free_loop_proof() -> PreProof:
    """A structurally valid cycle that never unfolds a fixed point."""
    s = "|- 0 = 0, S 0 = S 0"
    swapped = "|- S 0 = S 0, 0 = 0"
    tree = node("r", s, ExR(0), node("m", swapped, ExR(0), leaf("b", s)))
    return PreProof(tree, {"b": "r"})


def cross_edge_proof(fix: str) -> PreProof:
    """``|- N, N`` cut on ``N = fix t:O. t``; each branch weakens, unfolds
    ``N`` and jumps into the other branch.

    The companion of each leaf is not its ancestor.  The ``nu`` variant is
    a proof; the ``mu`` one is not.
    """
    n = f"{fix} t:O. t"
    two, rule = f"|- {n}, {n}", NuR() if fix == "nu" else MuR()
    tree = node("r", two, Cut(pe(n)),
                node("u1", f"|- {n}, {n}, {n}", WkR(),
                     node("u2", two, rule, leaf("u3", two))),
                node("v1", f"{n} |- {n}, {n}", WkL(),
                     node("v2", two, rule, leaf("v3", two))))
    return PreProof(tree, {"u3": "v2", "v3": "u2"})


def rotation_proof(k: int) -> PreProof:
    """``|- nu t. t`` k times: one ``NuR``, then ``ExR`` moves it to the end.

    Valid: every occurrence is unfolded once every k laps.
    """
    rules = [NuR()] + [ExR(i) for i in range(k - 1)]
    seqs = [ps("|- " + ", ".join(["nu t:O. t"] * k))]
    for rule in rules:
        (premise,) = rule.premises_of(seqs[-1])
        seqs.append(premise)
    tree = DerivTree(f"n{k}", seqs[k], None)
    for i in reversed(range(k)):
        tree = DerivTree(f"n{i}", seqs[i], rules[i], (tree,))
    return PreProof(tree, {f"n{k}": "n0"})


def exr_chain_proof(n: int) -> PreProof:
    """n ``ExR`` nodes in a row on ``|- 0 = 0, 0 = 0``, then a back edge.

    Deeper than Python's default recursion limit for n over 1000; it has
    no fixed point, so it is structurally valid but fails the trace
    condition on its one cycle.
    """
    seq = ps("|- 0 = 0, 0 = 0")
    tree = DerivTree(f"c{n}", seq, None)
    for i in reversed(range(n)):
        tree = DerivTree(f"c{i}", seq, ExR(0), (tree,))
    return PreProof(tree, {f"c{n}": "c0"})


def closed_proof() -> PreProof:
    """No open leaves, hence no infinite paths at all."""
    tree = DerivTree("a0", ps("nu t:O. t |- nu t:O. t"), Axiom(), ())
    return PreProof(tree, {})


def all_fixtures():
    return [
        ("golden", load_preproof(CORPUS / "higher_order_loop.hflp")),
        ("nu_loop", self_loop_proof("nu")),
        ("mu_loop", self_loop_proof("mu")),
        ("left_mu", left_mu_loop_proof()),
        ("branching", branching_loop_proof()),
        ("sigma_free", sigma_free_loop_proof()),
        ("figure_eight", figure_eight_proof()),
        ("rotation3", rotation_proof(3)),
        ("cross_edge_nu", cross_edge_proof("nu")),
        ("cross_edge_mu", cross_edge_proof("mu")),
    ]


FIXTURES = all_fixtures()
FIXTURE_IDS = [name for name, _ in FIXTURES]


# ---------------------------------------------------------------------------
# alternating fixed points
# ---------------------------------------------------------------------------


def unfolding_loop(root: str, rules: list[Rule], target: str) -> PreProof:
    """Single-premise ``rules`` from ``root``, each premise computed by the
    kernel, then a back edge from the last premise to ``target``."""
    seqs = [ps(root)]
    for rule in rules:
        (premise,) = rule.premises_of(seqs[-1])
        seqs.append(premise)
    n = len(rules)
    tree = DerivTree(f"n{n}", seqs[n], None)
    for i in reversed(range(n)):
        tree = DerivTree(f"n{i}", seqs[i], rules[i], (tree,))
    return PreProof(tree, {f"n{n}": target})


def split_loop(root: str, outer: Rule, inner: Rule) -> PreProof:
    """``outer`` and ``inner`` unfold the left formula, then ``OrL`` splits the
    disjunction; its left premise goes back to the root and its right one
    back to the ``inner`` node."""
    s0 = ps(root)
    (s1,) = outer.premises_of(s0)
    (s2,) = inner.premises_of(s1)
    back_root, back_inner = OrL().premises_of(s2)
    tree = DerivTree("n0", s0, outer, (DerivTree("n1", s1, inner, (
        DerivTree("n2", s2, OrL(), (DerivTree("n3", back_root, None),
                                    DerivTree("n4", back_inner, None))),)),))
    return PreProof(tree, {"n3": "n0", "n4": "n1"})


def alternation_probes():
    """Each probe nests a fixed point in one of the other kind and unfolds
    both on a cycle: (name, pre-proof, accepted, root valid at K = 3, witness
    lasso)."""
    return [
        ("mu_nu_right", unfolding_loop("|- mu X:O. nu Y:O. X", [MuR(), NuR()], "n0"),
         False, False, Lasso((), ("n0", "n1", "n2"))),
        ("nu_mu_right", unfolding_loop("|- nu Y:O. mu X:O. Y", [NuR(), MuR()], "n0"),
         True, True, None),
        # following the inner mu across unfoldings of the outer nu would be unsound
        ("nu_mu_left", split_loop("nu Y:O. mu X:O. Y \\/ X |-", NuL(), MuL()),
         False, False, Lasso((), ("n0", "n1", "n2", "n3"))),
        ("mu_nu_left", split_loop("mu X:O. nu Y:O. X \\/ Y |-", MuL(), NuL()),
         False, False, Lasso(("n0",), ("n1", "n2", "n4"))),
        # a right mu loop, so not a proof, though its root is valid
        ("nu_mu_right_via_x", unfolding_loop("|- nu Y:O. mu X:O. Y \\/ X",
                                             [NuR(), MuR(), OrR(), WkR()], "n1"),
         False, True, Lasso(("n0",), ("n1", "n2", "n3", "n4"))),
        ("mu_nu_right_via_y", unfolding_loop("|- mu X:O. nu Y:O. X \\/ Y",
                                             [MuR(), NuR(), OrR(), WkR()], "n1"),
         True, True, None),
    ]


def rejected_fixtures():
    """(name, pre-proof) for each fixture the trace condition rejects."""
    return ([("mu_loop", self_loop_proof("mu")), ("sigma_free", sigma_free_loop_proof())]
            + [(name, pp) for name, pp, accepted, *_ in alternation_probes() if not accepted])


# the whole counterexample report of each rejected fixture
REPORTS = {
    "mu_loop": """\
counterexample path: (n0 n1)^ω
thread from n0 right:0:
  n0  right:0  mu t:O. t
  n1  right:0  mu{0} t:O. t
  n0  right:0  mu{0} t:O. t""",
    "sigma_free": """\
counterexample path: (r m b)^ω
thread from r right:0:
  r  right:0  Z = Z
  m  right:1  Z = Z
  b  right:0  Z = Z
  r  right:0  Z = Z
thread from r right:1:
  r  right:1  1 = 1
  m  right:0  1 = 1
  b  right:1  1 = 1
  r  right:1  1 = 1""",
    "mu_nu_right": """\
counterexample path: (n0 n1 n2)^ω
thread from n0 right:0:
  n0  right:0  mu X:O. nu Y:O. X
  n1  right:0  nu Y:O. mu{0} X:O. nu Y:O. X
  n2  right:0  mu{0} X:O. nu Y:O. X
  n0  right:0  mu{0} X:O. nu Y:O. X""",
    "nu_mu_left": """\
counterexample path: (n0 n1 n2 n3)^ω
thread from n0 left:0:
  n0  left:0  nu Y:O. mu X:O. Y \\/ X
  n1  left:0  mu X:O. (nu{0} Y:O. mu X:O. Y \\/ X) \\/ X
  n2  left:0  (nu{0} Y:O. mu X:O. Y \\/ X) \\/ (mu{1} X:O. (nu{0} Y:O. mu X:O. Y \\/ X) \\/ X)
  n3  left:0  nu{0} Y:O. mu X:O. Y \\/ X
  n0  left:0  nu{0} Y:O. mu X:O. Y \\/ X""",
    "mu_nu_left": """\
counterexample path: n0 (n1 n2 n4)^ω
thread from n1 left:0:
  n1  left:0  nu Y:O. (mu X:O. nu Y:O. X \\/ Y) \\/ Y
  n2  left:0  (mu X:O. nu Y:O. X \\/ Y) \\/ (nu{0} Y:O. (mu X:O. nu Y:O. X \\/ Y) \\/ Y)
  n4  left:0  nu{0} Y:O. (mu X:O. nu Y:O. X \\/ Y) \\/ Y
  n1  left:0  nu{0} Y:O. (mu X:O. nu Y:O. X \\/ Y) \\/ Y""",
    "nu_mu_right_via_x": """\
counterexample path: n0 (n1 n2 n3 n4)^ω
thread from n1 right:0:
  n1  right:0  mu X:O. (nu Y:O. mu X:O. Y \\/ X) \\/ X
  n2  right:0  (nu Y:O. mu X:O. Y \\/ X) \\/ (mu{0} X:O. (nu Y:O. mu X:O. Y \\/ X) \\/ X)
  n3  right:0  nu Y:O. mu X:O. Y \\/ X
  (thread ends: occurrence has no successor)""",
}


ALTERNATION = alternation_probes()
ALTERNATION_IDS = [name for name, *_ in ALTERNATION]


class TestAlternation:
    @pytest.mark.parametrize("name,pp,accepted,valid,lasso", ALTERNATION, ids=ALTERNATION_IDS)
    def test_verdict_and_witness(self, name, pp, accepted, valid, lasso):
        assert validate_preproof(pp) == []
        res = check_cyclic_proof(pp)
        if accepted:
            assert res == Accepted()
        else:
            assert isinstance(res, Rejected) and res.kind == "trace"
            assert res.lasso == lasso
            assert not lasso_good(pp, lasso)

    @pytest.mark.parametrize("name,pp,accepted,valid,lasso", ALTERNATION, ids=ALTERNATION_IDS)
    def test_agrees_with_brute_force(self, name, pp, accepted, valid, lasso):
        assert check_gtc(pp)[0] == gtc_bruteforce(pp) == accepted

    @pytest.mark.parametrize("name,pp,accepted,valid,lasso", ALTERNATION, ids=ALTERNATION_IDS)
    def test_bounded_semantics_never_refutes_an_accepted_root(self, name, pp, accepted, valid, lasso):
        verdict = check_validity_bounded(pp.tree.seq, BoundedDomain(3))
        assert isinstance(verdict, Valid if valid else Invalid)
        if accepted:
            assert not isinstance(verdict, Invalid)


# ---------------------------------------------------------------------------
# the path automaton
# ---------------------------------------------------------------------------


class TestPathAutomaton:
    def test_golden_shape(self, golden):
        a = build_path_automaton(golden)
        assert len(a.states) == 5
        assert a.alphabet == frozenset(GOLDEN_CYCLE)
        assert a.initial == frozenset({"n0"})
        assert a.accepting == a.transitions

    def test_golden_accepts_exactly_the_loop(self, golden):
        a = build_path_automaton(golden)
        assert accepts_lasso(a, Lasso((), GOLDEN_CYCLE))
        assert not accepts_lasso(a, Lasso((), ("n0", "n0")))
        assert not accepts_lasso(a, Lasso((), ("n1", "n0", "n2", "n3", "n4")))

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_every_simple_lasso_is_in_the_language(self, name, pp):
        a = build_path_automaton(pp)
        lassos = list(enumerate_simple_lassos(pp))
        assert lassos
        for lasso in lassos:
            assert accepts_lasso(a, lasso)

    def test_closed_proof_has_empty_path_language(self):
        # no state of the path automaton lies on an accepting run
        assert trim(build_path_automaton(closed_proof())).states == frozenset()

    def test_figure_eight_accepts_the_composite_alternation(self):
        pp = figure_eight_proof()
        a = build_path_automaton(pp)
        loop_a = ("r", "u1", "u2", "u3", "u4", "u5", "u6", "u7")
        loop_b = ("r", "v1", "v2", "v3", "v4", "v5", "v6", "v7")
        assert accepts_lasso(a, Lasso((), loop_a))
        assert accepts_lasso(a, Lasso((), loop_b))
        assert accepts_lasso(a, Lasso((), loop_a + loop_b))


# ---------------------------------------------------------------------------
# the trace automaton
# ---------------------------------------------------------------------------


GOOD_START = {LEFT: Mu, RIGHT: Nu}
"""The operator a good trace follows, by side: a run of the trace automaton
follows only these."""


def operator_at(pp: PreProof, node_id: str, side: str, index: int, mark) -> type:
    """The kind, Mu or Nu, of the operator at ``mark`` of an occurrence."""
    seq = pp.node(node_id).seq
    return type(subexpr_at((seq.left if side == LEFT else seq.right)[index], mark))


def reachable_state_bound(pp: PreProof) -> int:
    """One state per operator position of every occurrence."""
    total = 0
    for nid in pp.nodes:
        seq = pp.node(nid).seq
        for f in (*seq.left, *seq.right):
            total += len(sigma_paths(f))
    return total


class TestTraceAutomaton:
    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_state_count_within_bound(self, name, pp):
        a = build_gtc_automaton(pp)
        assert len(a.states) <= reachable_state_bound(pp)

    def test_golden_size_is_stable(self, golden):
        a = build_gtc_automaton(golden)
        assert len(a.states) == 5
        assert len(a.accepting) == 1

    @pytest.mark.parametrize("fix,states", [("nu", 257), ("mu", 0)])
    def test_long_loop_tracks_only_its_right_nu(self, fix, states):
        # 64 laps of the corpus loop: the right nu is followed around the
        # cycle, one state per node; the mu variant has nothing to follow
        assert len(build_gtc_automaton(built_loop(64, fix)).states) == states

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_star_ignores_every_symbol(self, name, pp):
        # no idle state reads every symbol: runs start at the companions'
        # left mu and right nu operators, and only there
        a, keys = gtc._trace_automaton(pp)
        companions = set(pp.back_edges.values())
        assert a.initial == {q for q, key in enumerate(keys) if key[0] in companions}
        assert {keys[q] for q in a.initial} == {
            (c, side, index, p) for c in companions
            for (side, index), paths in pp.positions(c).items() for p in paths
            if operator_at(pp, c, side, index, p) is GOOD_START[side]}

    def test_accepting_transitions_by_fixture(self):
        # only left-mu / right-nu unfoldings of the followed operator accept:
        # the right-mu loop has none, its nu twin and the left-mu loop
        # exactly one each
        assert len(build_gtc_automaton(self_loop_proof("mu")).accepting) == 0
        assert len(build_gtc_automaton(self_loop_proof("nu")).accepting) == 1
        assert len(build_gtc_automaton(left_mu_loop_proof()).accepting) == 1

    def test_sigma_free_proof_has_no_tracked_states(self):
        a, keys = gtc._trace_automaton(sigma_free_loop_proof())
        assert a.states == frozenset()
        assert keys == []
        assert not a.accepting

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_tracked_states_are_well_formed(self, name, pp):
        a, keys = gtc._trace_automaton(pp)
        assert a.states == frozenset(range(len(keys)))
        for node_id, side, index, mark in keys:
            seq = pp.node(node_id).seq
            row = seq.left if side == LEFT else seq.right
            assert mark in sigma_paths(row[index])
            assert operator_at(pp, node_id, side, index, mark) is GOOD_START[side]


# ---------------------------------------------------------------------------
# the bridge to the brute-force oracle
# ---------------------------------------------------------------------------


class TestBridge:
    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_closed_walks_agree_with_classification(self, name, pp):
        # the automaton's runs start at companions, so each walk is read
        # from its first companion on
        a = build_gtc_automaton(pp)
        trimmed = trim(a)
        companions = set(pp.back_edges.values())
        paths = _tree_paths(pp)
        for cycle in enumerate_closed_walks(pp, max_back_edges=3):
            lasso = Lasso(paths[cycle[0]][:-1], cycle)
            i = next(i for i, n in enumerate(cycle) if n in companions)
            walk = Lasso((), cycle[i:] + cycle[:i])
            good = lasso_good(pp, lasso)
            assert accepts_lasso(a, walk) == accepts_lasso(trimmed, walk) == good, lasso

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_verdict_agrees_with_brute_force(self, name, pp):
        ok, _lasso = check_gtc(pp)
        assert ok == gtc_bruteforce(pp)


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


class TestCheckGtc:
    def test_good_proofs(self, golden):
        for pp in (golden, self_loop_proof("nu"), left_mu_loop_proof(),
                   branching_loop_proof()):
            assert check_gtc(pp) == (True, None)

    def test_right_mu_loop_rejected_with_tight_witness(self):
        ok, lasso = check_gtc(self_loop_proof("mu"))
        assert not ok
        assert lasso == Lasso((), ("n0", "n1"))

    def test_sigma_free_loop_rejected(self):
        pp = sigma_free_loop_proof()
        ok, lasso = check_gtc(pp)
        assert not ok
        assert lasso == Lasso((), ("r", "m", "b"))
        assert not lasso_good(pp, lasso)

    def test_figure_eight_witness_alternates_good_cycles(self):
        pp = figure_eight_proof()
        ok, lasso = check_gtc(pp)
        assert not ok
        # the witness must weave both loops: each on its own is good; one
        # lap of each is the shortest weave
        loop_a = ("r", "u1", "u2", "u3", "u4", "u5", "u6", "u7")
        loop_b = ("r", "v1", "v2", "v3", "v4", "v5", "v6", "v7")
        assert lasso.prefix == ()
        assert sorted(lasso.cycle) == sorted(loop_a + loop_b)
        assert not lasso_good(pp, lasso)
        for simple in enumerate_simple_lassos(pp):
            assert lasso_good(pp, simple)

    @pytest.mark.parametrize(
        "pp", [self_loop_proof("mu"), sigma_free_loop_proof(),
               figure_eight_proof()],
        ids=["mu_loop", "sigma_free", "figure_eight"])
    def test_witness_prefix_carries_no_redundant_lap(self, pp):
        _ok, lasso = check_gtc(pp)
        k = len(lasso.cycle)
        assert not (len(lasso.prefix) >= k and lasso.prefix[-k:] == lasso.cycle)

    def test_unknown_on_tiny_state_cap(self, golden):
        with pytest.raises(GtcUnknown, match="state cap"):
            check_gtc(golden, max_states=4)

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_unknown_under_a_cap_of_one(self, name, pp):
        with pytest.raises(GtcUnknown, match="state cap"):
            check_gtc(pp, max_states=1)

    @pytest.mark.parametrize("fix", ["nu", "mu"])
    def test_thread_along_a_long_cycle(self, fix):
        # one thread along a 257-node cycle: one segment, a few rows moving
        pp = built_loop(64, fix)
        res = check_cyclic_proof(pp)
        if fix == "nu":
            assert res == Accepted()
        else:
            assert isinstance(res, Rejected) and res.kind == "trace"
            assert res.lasso == Lasso((), tuple(f"m{i}" for i in range(257)))

    @pytest.mark.parametrize("head,link", [("q (mu {}:O. {})", " Z"), ("(mu {}:O. {})", " \\\\/ p")],
                             ids=["application", "disjunction"])
    def test_long_chains_get_a_verdict_without_validation(self, head, link):
        # the operator positions of a 1,200-link chain are found without
        # recursion; only type-checking rejects these sequents
        r, l = (head.format(v, v) + link * 1200 for v in "xy")
        pp = loads_preproof(f'(node r (seq "|- {r}") (rule WkR) (children l))\n'
                            f'(node l (seq "|- {l}") open)\n(back l r)\n')
        assert check_gtc(pp) == (False, Lasso((), ("r", "l")))

    def test_cross_edges(self):
        # each leaf jumps into the other branch of the cut, not to an ancestor
        nu, mu = cross_edge_proof("nu"), cross_edge_proof("mu")
        assert validate_preproof(nu) == validate_preproof(mu) == []
        assert check_cyclic_proof(nu) == Accepted()
        res = check_cyclic_proof(mu)
        assert isinstance(res, Rejected) and res.kind == "trace"
        assert res.lasso == Lasso(("r", "u1"), ("u2", "u3", "v2", "v3"))
        assert not lasso_good(mu, res.lasso)

    def test_four_occurrence_rotation(self):
        pp = rotation_proof(4)
        assert check_cyclic_proof(pp) == Accepted()
        with pytest.raises(GtcUnknown, match="state cap"):
            check_gtc(pp, max_states=4)

    def test_open_leaf_without_back_edge_is_named(self, golden):
        with pytest.raises(GtcError, match="open leaf 'n4' has no back edge"):
            check_gtc(PreProof(golden.tree, {}))

    @pytest.mark.parametrize("build", [build_path_automaton, build_gtc_automaton])
    def test_builders_name_the_open_leaf(self, golden, build):
        with pytest.raises(GtcError, match="open leaf 'n4' has no back edge"):
            build(PreProof(golden.tree, {}))


class TestCheckCyclicProof:
    def test_golden_accepted(self, golden):
        assert check_cyclic_proof(golden) == Accepted()

    def test_missing_back_edge_is_structural(self, golden):
        broken = PreProof(golden.tree, {})
        res = check_cyclic_proof(broken)
        assert isinstance(res, Rejected)
        assert res.kind == "structural"
        assert res.issues and res.lasso is None

    def test_formula_too_deep_to_type_check_is_structural(self):
        # deeper than the recursion limit: the type checker walks it in a
        # loop, so the issue is the rule's own
        deep = Eq(Zero(), Zero())
        for _ in range(sys.getrecursionlimit()):
            deep = Or(Eq(Zero(), Zero()), deep)
        res = check_cyclic_proof(PreProof(DerivTree("n0", Sequent((), (deep,)), EqR())))
        assert isinstance(res, Rejected) and res.kind == "structural"
        assert [str(issue) for issue in res.issues] == [
            f"n0: EqR: conclusion: expected t = t, found {to_str(deep)}"]

    def test_deep_lambda_chain_is_ill_typed(self):
        # its type is a 3,000-deep arrow, resolved and printed in loops
        chain = Var("p")
        for k in range(3000):
            chain = Lam(f"x{k}", PROP, chain)
        res = check_cyclic_proof(PreProof(DerivTree("n0", Sequent((), (chain,)), WkR())))
        assert isinstance(res, Rejected) and res.kind == "structural"
        assert [str(issue) for issue in res.issues] == [
            f"n0: ill-typed sequent: ill-typed {to_str(chain)!r}: expected O, "
            f"found {'O -> ' * 3000}?"]

    def test_self_application_is_ill_typed(self):
        # without the occurs check, f's type would have to hold itself
        ff = App(Var("f"), Var("f"))
        res = check_cyclic_proof(PreProof(DerivTree("n0", Sequent((ff,), (ff,)), Axiom())))
        assert isinstance(res, Rejected) and res.kind == "structural"
        assert [str(issue) for issue in res.issues] == [
            "n0: ill-typed sequent: ill-typed 'f f': expected ?, found ? -> ?"]

    def test_shared_subformula_is_checked_once_per_node(self):
        # x \/ x, doubled 30 times: 2^30 leaves as a tree, 31 distinct nodes
        shared = Var("x")
        for _ in range(30):
            shared = Or(shared, shared)
        start = time.perf_counter()
        pp = PreProof(DerivTree("n0", Sequent((shared,), (shared,)), Axiom()))
        assert check_cyclic_proof(pp) == Accepted()
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("head,link", [("q (mu {}:O. {})", " Z"), ("(mu {}:O. {})", " \\\\/ p")],
                             ids=["application", "disjunction"])
    def test_back_edge_between_long_chains_is_structural(self, head, link):
        # the parser reads these chains in a loop; the type checker and the
        # back-edge check walk them without recursion too, so the one issue
        # is WkR's own: r's premise still holds the chain
        r, l = (head.format(v, v) + link * 1200 for v in "xy")
        pp = loads_preproof(f'(node r (seq "|- {r}") (rule WkR) (children l))\n'
                            f'(node l (seq "|- {l}") open)\n(back l r)\n')
        res = check_cyclic_proof(pp)
        assert isinstance(res, Rejected) and res.kind == "structural"
        assert [str(issue) for issue in res.issues] == [
            f"r: WkR: premise 0: expected |-, found {pp.node('l').seq}"]

    def test_large_numeral_is_accepted(self):
        # a numeral types in a loop, not one frame per S
        pp = loads_preproof('(node n0 (seq "|- 500 = 500") (rule EqR))')
        assert check_cyclic_proof(pp) == Accepted()

    def test_numeral_past_the_recursion_limit_loads_back(self):
        # the dump writes the numeral as 5000, which the parser reads back
        n = numeral(5000)
        pp = PreProof(DerivTree("n0", Sequent((), (Eq(n, n),)), EqR()))
        loaded = loads_preproof(dumps_preproof(pp))
        assert loaded.tree.seq is pp.tree.seq
        assert check_cyclic_proof(loaded) == check_cyclic_proof(pp) == Accepted()

    def test_long_successor_chain_loads_back(self):
        # the parser reads a run of S in a loop, not one frame per S
        chain = Var("x")
        for _ in range(5000):
            chain = Succ(chain)
        pp = PreProof(DerivTree("n0", Sequent((), (Eq(chain, chain),)), EqR()))
        loaded = loads_preproof(dumps_preproof(pp))
        assert loaded.tree.seq is pp.tree.seq
        assert check_cyclic_proof(loaded) == check_cyclic_proof(pp) == Accepted()

    def test_bad_trace_is_reported_with_lasso(self):
        res = check_cyclic_proof(self_loop_proof("mu"))
        assert isinstance(res, Rejected)
        assert res.kind == "trace"
        assert res.issues == ()
        assert res.lasso == Lasso((), ("n0", "n1"))
        assert "(n0 n1)^ω" in res.detail

    def test_chain_deeper_than_the_recursion_limit(self):
        pp = exr_chain_proof(1201)
        assert validate_preproof(pp) == []
        res = check_cyclic_proof(pp)
        assert isinstance(res, Rejected) and res.kind == "trace"
        assert res.lasso == Lasso((), tuple(f"c{i}" for i in range(1202)))
        text = dumps_preproof(pp)
        again = loads_preproof(text)
        assert len(again.nodes) == 1202
        assert dumps_preproof(again) == text

    def test_a_chain_compares_hashes_and_copies_without_recursion(self):
        pp, again = exr_chain_proof(5000), exr_chain_proof(5000)
        assert pp.tree is not again.tree
        assert pp == again
        assert pp != exr_chain_proof(4999)
        for copied in (pickle.loads(pickle.dumps(pp)), copy.deepcopy(pp)):
            assert copied == pp and copied.tree is not pp.tree
            assert copied.back_edges == pp.back_edges
            assert [n.id for n in copied.tree.walk()] == [f"c{i}" for i in range(5001)]
        assert loads_preproof(dumps_preproof(pp)) == pp

    @pytest.mark.parametrize("validate", [True, False])
    def test_each_head_step_is_taken_once(self, monkeypatch, validate):
        # validation and the trace automaton share each node's inference,
        # and check_gtc alone computes what it needs
        taken = []
        real = kernel.head_step
        monkeypatch.setattr(kernel, "head_step",
                            lambda e, kind: taken.append(e) or real(e, kind))
        pp = load_preproof(CORPUS / "higher_order_loop.hflp")
        if validate:
            assert check_cyclic_proof(pp) == Accepted()
        else:
            assert check_gtc(pp) == (True, None)
        assert len(taken) == sum(isinstance(n.rule, HeadStepRule) for n in pp.tree.walk()) == 4

    @pytest.mark.parametrize("loaded", [True, False])
    def test_each_distinct_head_step_is_taken_once(self, monkeypatch, loaded):
        # three laps of the corpus loop repeat its four sequents and rules
        taken = []
        real = kernel.head_step
        monkeypatch.setattr(kernel, "head_step",
                            lambda e, kind: taken.append(e) or real(e, kind))
        pp = unrolled_loop(3)
        if loaded:
            pp = loads_preproof(dumps_preproof(pp))
        assert check_cyclic_proof(pp) == Accepted()
        assert sum(isinstance(n.rule, HeadStepRule) for n in pp.tree.walk()) == 12
        assert len(taken) == 4

    def test_each_distinct_head_step_of_a_built_proof_is_taken_once(self, monkeypatch):
        # as above, with a new sequent object at every node until the
        # pre-proof is made
        pp = built_loop(3)
        taken = []
        real = kernel.head_step
        monkeypatch.setattr(kernel, "head_step",
                            lambda e, kind: taken.append(e) or real(e, kind))
        assert check_cyclic_proof(pp) == Accepted()
        assert len(taken) == 4

    def test_structural_check_runs_first(self):
        # an invalid proof with a bad trace still reports the structural issue
        pp = self_loop_proof("mu")
        broken = PreProof(pp.tree, {})
        res = check_cyclic_proof(broken)
        assert isinstance(res, Rejected) and res.kind == "structural"


# ---------------------------------------------------------------------------
# shared sequents: a loaded copy checks the same
# ---------------------------------------------------------------------------


# fresh pre-proofs, so no check of another test has filled their tables
DIFFERENTIAL = (all_fixtures()
                + [(f"rotation{k}", rotation_proof(k)) for k in (2, 4)]
                + [("exr_chain50", exr_chain_proof(50))]
                + [(f"built_loop3_{fix}", built_loop(3, fix)) for fix in ("nu", "mu")]
                + [(name, pp) for name, pp, *_ in alternation_probes()])


def outcome(pp: PreProof):
    """Verdict, trace automaton and counterexample report of one check."""
    res = check_cyclic_proof(pp)
    aut, keys = gtc._trace_automaton(pp)
    report = None
    if isinstance(res, Rejected) and res.lasso is not None:
        report = counterexample_report(pp, res.lasso)
    return res, aut.states, aut.transitions, aut.accepting, keys, report


@pytest.mark.parametrize("name,pp", DIFFERENTIAL, ids=[name for name, _ in DIFFERENTIAL])
def test_loaded_copy_checks_the_same(name, pp):
    # sequents and rules are interned, so the loaded copy holds the very
    # objects the built one holds and differs only in how it was made
    assert outcome(loads_preproof(dumps_preproof(pp))) == outcome(pp)


# the index every stage reads: nodes, successors and open leaves
INDEXED = ([("loop", loop_proof())]
           + [(f"built_loop64_{fix}", built_loop(64, fix)) for fix in ("nu", "mu")]
           + [("exr_chain1201", exr_chain_proof(1201))]
           + DIFFERENTIAL)


@pytest.mark.parametrize("loaded", [False, True], ids=["in-memory", "loaded"])
@pytest.mark.parametrize("name,pp", INDEXED, ids=[name for name, _ in INDEXED])
def test_the_index_matches_the_tree(name, pp, loaded):
    if loaded:
        pp = loads_preproof(dumps_preproof(pp))
    preorder = list(pp.tree.walk())
    assert list(pp.nodes) == [n.id for n in preorder]
    for n in preorder:
        assert pp.node(n.id) is n
        want = (pp.back_edges[n.id],) if n.rule is None else tuple(c.id for c in n.children)
        assert kernel.successors(pp, n.id) == want
    assert ([node_id for node_id, (_, rule, _) in pp.rows.items() if rule is None]
            == [n.id for n in preorder if n.rule is None])
    with pytest.raises(KernelError, match="no node 'zz' in the pre-proof"):
        kernel.successors(pp, "zz")


def test_a_check_of_a_loaded_proof_builds_no_tree(monkeypatch):
    # the loader, validation, the quotient, the decision, the lift and the
    # report read the node table; only pp.tree makes the derivation tree
    built = built_loop(64, "mu")
    pp = loads_preproof(dumps_preproof(built))
    made = []
    real = DerivTree.__init__
    monkeypatch.setattr(DerivTree, "__init__",
                        lambda self, *args: made.append(args[0]) or real(self, *args))
    result = check_cyclic_proof(pp)
    assert isinstance(result, Rejected) and result.lasso is not None
    counterexample_report(pp, result.lasso)
    assert made == []
    assert pp == built
    assert len(pp.nodes) == len(made) == 257


def test_the_value_operations_of_a_loaded_proof_build_no_tree():
    # a pre-proof's value is its node table, so a loaded one compares,
    # prints, copies and pickles without making a derivation tree
    built = built_loop(64, "mu")
    text = dumps_preproof(built)
    pp, again = loads_preproof(text), loads_preproof(text)
    copies = {"copy": copy.copy, "deepcopy": copy.deepcopy,
              "pickle": lambda v: pickle.loads(pickle.dumps(v))}
    assert pp == built and built == pp and pp == again and repr(pp) == repr(built)
    for name, copy_of in copies.items():
        copied = copy_of(pp)
        assert type(copied) is PreProof and copied == pp and repr(copied) == repr(pp), name
        assert copied._tree is None and copied._nodes is None, name
        assert dumps_preproof(copied) == text, name
    for value in (pp, again):
        assert value._tree is None and value._nodes is None


def test_a_dump_of_a_loaded_proof_builds_no_tree(monkeypatch):
    text = dumps_preproof(built_loop(64, "mu"))
    pp = loads_preproof(text)
    made = []
    real = DerivTree.__init__
    monkeypatch.setattr(DerivTree, "__init__",
                        lambda self, *args: made.append(args[0]) or real(self, *args))
    assert dumps_preproof(pp) == text
    assert made == []


def test_node_steps_name_a_missing_node_or_an_open_leaf():
    pp = loop_proof()
    with pytest.raises(KernelError, match="no node 'zz' in the pre-proof"):
        node_steps(pp, "zz", 0)
    with pytest.raises(KernelError, match="node 'n4' is an open leaf"):
        node_steps(pp, "n4", 0)


@pytest.mark.parametrize("name,pp", DIFFERENTIAL, ids=[name for name, _ in DIFFERENTIAL])
def test_an_occurrences_steps_come_in_premise_position_order(name, pp):
    # replay_annotations follows the first step of an occurrence, the one
    # into the first premise position
    for node in pp.nodes.values():
        for branch in range(len(node.children) if node.rule is not None else 0):
            for steps in node_steps(pp, node.id, branch).values():
                positions = [step.premise_pos for step, _ in steps]
                assert positions == sorted(positions)


def bench_family_proofs(rejected_only: bool = False):
    """(name, pre-proof) for each family of the benchmark at its first sizes,
    or for those the benchmark expects to be rejected."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from families import FAMILIES
    sizes = {"figure_eight": (2, 3)}
    cases = [(f"{family}{k}", make(k, random.Random(f"{family}:{k}")))
             for family, make in FAMILIES.items() for k in sizes.get(family, (1, 2, 3))]
    return [(name, case.pp) for name, case in cases if not (rejected_only and case.valid)]


SIDE_KEEPING = DIFFERENTIAL + bench_family_proofs()


def _smallest_dumps() -> list[str]:
    """The dump of the smallest proof of each benchmark family, and the
    corpus loop's text."""
    first: dict[str, PreProof] = {}
    for name, pp in bench_family_proofs():
        first.setdefault(name.rstrip("0123456789"), pp)
    return ([dumps_preproof(pp) for pp in first.values()]
            + [(CORPUS / "higher_order_loop.hflp").read_text(encoding="utf-8")])


MUTATED = _smallest_dumps()
_TOKEN = r'\(|\)|[^\s()]+'


@st.composite
def mutated_texts(draw) -> str:
    """A dump with one line dropped, repeated or swapped with another, or
    one token of a line swapped, deleted, doubled or replaced by a token of
    the text."""
    text = draw(st.sampled_from(MUTATED))
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["drop", "repeat", "swap", "swap token", "delete token",
                               "double token", "replace token"]))
    if op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(j, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = re.findall(_TOKEN, lines[i])
        a = draw(st.integers(0, len(tokens) - 1))
        b = draw(st.integers(0, len(tokens) - 1))
        if op == "swap token":
            tokens[a], tokens[b] = tokens[b], tokens[a]
        elif op == "delete token":
            del tokens[a]
        elif op == "double token":
            tokens.insert(a, tokens[a])
        else:
            tokens[a] = draw(st.sampled_from(sorted(set(re.findall(_TOKEN, text)))))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_texts())
def test_a_mutated_dump_ends_in_a_verdict_or_a_typed_error(text):
    # bad input gets a verdict, GtcUnknown or an HflError, never another
    # exception; the cap keeps each check short
    try:
        pp = loads_preproof(text)
        result = check_cyclic_proof(pp, max_states=2000)
        if isinstance(result, Rejected) and result.lasso is not None:
            counterexample_report(pp, result.lasso)
    except HflError:  # GtcUnknown too
        pass


@pytest.mark.parametrize("name,pp", SIDE_KEEPING, ids=[name for name, _ in SIDE_KEEPING])
def test_steps_keep_the_side_and_kind_of_each_operator(name, pp):
    # build_gtc_automaton starts runs only at left mu and right nu operators,
    # and drops no accepting run, because every step keeps a formula on its
    # side, a transport maps each operator to one of the same kind, and a
    # back edge keeps the occurrence
    assert validate_preproof(pp) == []

    def kinds(node_id):
        return {(pos, p, operator_at(pp, node_id, *pos, p))
                for pos, paths in pp.positions(node_id).items() for p in paths}

    for node in pp.nodes.values():
        if node.rule is None:
            assert kinds(node.id) == kinds(pp.back_edges[node.id])
            continue
        for branch, child in enumerate(node.children):
            for occ, steps in node_steps(pp, node.id, branch).items():
                for step, _inv in steps:
                    assert step.premise_pos[0] == occ[0]
                    for q, p in step.transport.items():
                        assert (operator_at(pp, child.id, *step.premise_pos, q)
                                is operator_at(pp, node.id, *occ, p))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


class TestReporting:
    def test_render_lasso(self):
        assert render_lasso(Lasso((), ("a", "b"))) == "(a b)^ω"
        assert render_lasso(Lasso(("r",), ("a", "b"))) == "r (a b)^ω"

    def test_counterexample_report_replays_the_thread(self):
        pp = self_loop_proof("mu")
        _ok, lasso = check_gtc(pp)
        report = counterexample_report(pp, lasso)
        lines = report.splitlines()
        assert lines[0] == "counterexample path: (n0 n1)^ω"
        assert "thread from n0 right:0:" in lines
        assert any("mu{0} t:O. t" in ln for ln in lines)

    def test_report_names_a_dangling_node(self, golden):
        with pytest.raises(KernelError, match="no node 'zz'"):
            counterexample_report(golden, Lasso((), ("zz",)))

    def test_report_names_a_step_that_is_not_an_edge(self, golden):
        with pytest.raises(TraceError, match="n0 -> n2 is not an edge"):
            counterexample_report(golden, Lasso((), ("n0", "n2")))

    def test_counterexample_report_marks_dead_threads(self):
        pp = sigma_free_loop_proof()
        _ok, lasso = check_gtc(pp)
        report = counterexample_report(pp, lasso)
        assert "counterexample path:" in report

    @pytest.mark.parametrize("loaded", [False, True], ids=["in_memory", "loaded"])
    @pytest.mark.parametrize("name", list(REPORTS))
    def test_whole_report(self, name, loaded):
        pp = dict(rejected_fixtures())[name]
        if loaded:
            pp = loads_preproof(dumps_preproof(pp))
        res = check_cyclic_proof(pp)
        assert isinstance(res, Rejected) and res.kind == "trace"
        assert counterexample_report(pp, res.lasso) == REPORTS[name]

    def test_one_template_per_distinct_formula(self, monkeypatch):
        # three laps of the loop with nu f read as mu f: a rejected cycle of
        # 13 nodes over four shared sequents, one formula each
        text = (dumps_preproof(unrolled_loop(3))
                .replace("Nu f ", "Mu f ").replace("(rule r0 NuR)", "(rule r0 MuR)"))
        pp = loads_preproof(text)
        res = check_cyclic_proof(pp)
        assert isinstance(res, Rejected) and len(res.lasso.cycle) == 13
        built = []
        real = gtc.print_templates
        monkeypatch.setattr(gtc, "print_templates", lambda fs: built.extend(fs) or real(fs))
        report = counterexample_report(pp, res.lasso)
        assert len(report.splitlines()) == 1 + 1 + 14
        assert len(built) == len({id(e) for e in built}) == 4

    def test_one_template_per_distinct_formula_of_a_built_proof(self, monkeypatch):
        pp = built_loop(3, "mu")
        res = check_cyclic_proof(pp)
        assert isinstance(res, Rejected) and len(res.lasso.cycle) == 13
        built = []
        real = gtc.print_templates
        monkeypatch.setattr(gtc, "print_templates", lambda fs: built.extend(fs) or real(fs))
        report = counterexample_report(pp, res.lasso)
        assert len(built) == len({id(e) for e in built}) == 4
        assert report == counterexample_report(loads_preproof(dumps_preproof(pp)), res.lasso)

    def test_report_work_does_not_grow_with_laps(self, monkeypatch):
        counts: dict[str, int] = {}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module, name in ((trace, "occurrence_steps"), (trace, "_index_map"),
                             (syntax, "_layout"), (AnnotatedFormula, "__init__")):
            counting(module, name)
        seen = []
        for laps in (3, 12):
            # a fresh proof, so that its occurrence steps are not kept from the check
            lasso = check_cyclic_proof(built_loop(laps, "mu")).lasso
            pp = built_loop(laps, "mu")
            counts.clear()
            report = counterexample_report(pp, lasso)
            assert len(report.splitlines()) == 2 + 4 * laps + 2  # the bud, and back
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["occurrence_steps"] == seen[0]["_index_map"] == 4
        assert "__init__" not in seen[0]  # no AnnotatedFormula

    def test_report_and_replay_check_the_child_formulas_positions(self):
        # not validated: NuR's premise is nu t:O. t, but the child holds Z = Z
        bud = DerivTree("n1", ps("|- Z = Z"), None)
        pp = PreProof(DerivTree("n0", ps("|- nu t:O. t"), NuR(), (bud,)), {"n1": "n0"})
        message = "annotation keys [()] do not match operator positions [] of 'Z = Z'"
        with pytest.raises(TraceError) as err:
            replay_annotations(pp, ("n0", "n1", "n0"), OccurrenceRef("n0", "right", 0))
        assert str(err.value) == message
        with pytest.raises(TraceError) as err:
            counterexample_report(pp, Lasso((), ("n0", "n1")))
        assert str(err.value) == message

    def test_a_back_edge_checks_the_companions_positions(self):
        # not validated: the bud holds Z = Z where its companion holds nu t:O. t
        bud = DerivTree("b", ps("|- Z = Z"), None)
        pp = PreProof(DerivTree("r", ps("|- nu t:O. t"), NuR(), (bud,)), {"b": "r"})
        with pytest.raises(TraceError) as err:
            replay_annotations(pp, ("b", "r"), OccurrenceRef("b", "right", 0))
        assert str(err.value) == ("annotation keys [] do not match operator positions "
                                  "[()] of 'nu t:O. t'")


def rejected_proofs():
    """(name, pre-proof) for each rejected fixture, differential proof and
    bench family proof, each a fresh copy."""
    proofs = rejected_fixtures() + [(name, copy.copy(pp)) for name, pp in DIFFERENTIAL
                                    if isinstance(check_cyclic_proof(copy.copy(pp)), Rejected)]
    return proofs + bench_family_proofs(rejected_only=True)


REJECTED = rejected_proofs()


@pytest.mark.parametrize("name,pp", REJECTED, ids=[name for name, _ in REJECTED])
def test_the_report_prints_the_replay(name, pp):
    # the report and replay_annotations walk each thread with one walker
    res = check_cyclic_proof(pp)
    assert isinstance(res, Rejected) and res.lasso is not None
    start = res.lasso.cycle[0]
    lap = res.lasso.cycle + (start,)
    want = [f"counterexample path: {render_lasso(res.lasso)}"]
    for side, index in pp.positions(start):
        want.append(f"thread from {start} {side}:{index}:")
        entries = replay_annotations(pp, lap, OccurrenceRef(start, side, index))
        want += [f"  {node}  {occ[0]}:{occ[1]}  {to_str(af.formula, af.notes)}"
                 for node, occ, af in entries]
        if len(entries) < len(lap):
            want.append("  (thread ends: occurrence has no successor)")
    assert counterexample_report(pp, res.lasso) == "\n".join(want)


def _chained_steps(pp: PreProof, lap: tuple[str, ...], start: OccurrenceRef):
    """The thread of ``start`` along ``lap``, one annotate_step per edge with
    one fresh-number supply: the first premise position where the occurrence
    splits, the notes copied across a back edge, and no entry past a node
    where the occurrence has no successor."""
    def formula(seq, occ):
        return (seq.left if occ[0] == LEFT else seq.right)[occ[1]]

    occ = (start.side, start.index)
    fresh = fresh_counter()
    af = annotate_root(formula(pp.row(start.node)[0], occ))
    out = [(start.node, occ, af)]
    for cur, nxt in zip(lap, lap[1:]):
        seq, rule, kids = pp.rows[cur]
        if rule is None:
            af = AnnotatedFormula(formula(pp.row(nxt)[0], occ), dict(af.notes))
        else:
            branch = kids.index(nxt)
            targets = sorted(step.premise_pos for step in occurrence_steps(seq, rule, branch)
                             if step.conclusion_pos == occ)
            if not targets:
                break
            af = annotate_step(af, rule, branch, fresh, conclusion=seq, pos=occ,
                               target=targets[0])
            occ = targets[0]
        out.append((nxt, occ, af))
    return out


@pytest.mark.parametrize("name,pp", REJECTED, ids=[name for name, _ in REJECTED])
def test_the_row_walk_agrees_with_annotating_one_step_at_a_time(name, pp):
    # the report's rows (thread_rows, through replay_annotations) against the
    # paper's annotated formulas, pushed through one inference at a time
    res = check_cyclic_proof(pp)
    start = res.lasso.cycle[0]
    lap = res.lasso.cycle + (start,)
    for side, index in pp.positions(start):
        ref = OccurrenceRef(start, side, index)
        assert replay_annotations(pp, lap, ref) == _chained_steps(pp, lap, ref)


# ---------------------------------------------------------------------------
# the bisimulation quotient: a presentation's laps cost nothing
# ---------------------------------------------------------------------------


def unroll(pp: PreProof, leaf: str) -> tuple[PreProof, dict[str, str]]:
    """``pp`` with the bud ``leaf`` replaced by a copy of its companion's
    subtree, whose own buds point back where the buds they copy point, and
    the map from each copied node's id to its copy's.

    The infinite unfolding from the root is unchanged.
    """
    companion = pp.node(pp.back_edges[leaf])
    suffix = f"'{len(pp.nodes)}"
    copies = {n.id: n.id + suffix for n in companion.walk()}
    assert not set(copies.values()) & set(pp.nodes)

    def copy(n: DerivTree) -> DerivTree:
        return DerivTree(copies[n.id], n.seq, n.rule, tuple(map(copy, n.children)))

    def rebuild(n: DerivTree) -> DerivTree:
        if n.id == leaf:
            return copy(companion)
        return DerivTree(n.id, n.seq, n.rule, tuple(map(rebuild, n.children)))

    back = {k: v for k, v in pp.back_edges.items() if k != leaf}
    back.update({copies[k]: v for k, v in pp.back_edges.items() if k in copies})
    return PreProof(rebuild(pp.tree), back), copies


def classes(pp: PreProof) -> int:
    """The closed nodes of the graph check_gtc decides: the classes of the
    coarsest bisimulation."""
    decided = gtc._quotient(pp) or pp
    return sum(n.rule is not None for n in decided.nodes.values())


def assert_real_witness(pp: PreProof, lasso: Lasso) -> None:
    spine = lasso.spine
    assert spine[0] == pp.tree.id
    for i, n in enumerate(spine):
        assert spine[lasso.successor_index(i)] in kernel.successors(pp, n)
    assert not lasso_good(pp, lasso)


UNROLLED = DIFFERENTIAL + bench_family_proofs()


@pytest.mark.parametrize("name,pp", UNROLLED, ids=[name for name, _ in UNROLLED])
def test_unrolling_keeps_the_verdict_and_the_classes(name, pp):
    ok, lasso = check_gtc(pp)
    if lasso is not None:
        assert_real_witness(pp, lasso)
    want = classes(pp)
    for leaf in sorted(pp.back_edges):
        unrolled, at = pp, leaf
        for _times in range(3):
            unrolled, copies = unroll(unrolled, at)
            assert validate_preproof(unrolled) == []
            got, witness = check_gtc(unrolled)
            assert got == ok
            if witness is not None:
                assert_real_witness(unrolled, witness)
            assert classes(unrolled) == want
            # unroll next at the copy of the bud, or at the first bud copied
            at = copies.get(at) or next(
                (c for c in copies.values() if c in unrolled.back_edges), None)
            if at is None:
                break


def moore_classes(succ: list[tuple[int, ...]], labels: list[int]) -> set[frozenset[int]]:
    """The coarsest stable partition by rounds: each round splits every block
    by the blocks of its nodes' successors, until one splits nothing."""
    block = list(labels)
    while True:
        keys: dict = {}
        block2 = [keys.setdefault((block[s], tuple(block[t] for t in out)), len(keys))
                  for s, out in enumerate(succ)]
        if len(keys) == len(set(block)):
            break
        block = block2
    parts: dict[int, set[int]] = {}
    for s, b in enumerate(block):
        parts.setdefault(b, set()).add(s)
    return {frozenset(p) for p in parts.values()}


def test_refinement_agrees_with_rounds():
    # small random graphs of up to 3 labels and arities 0 to 2, arities
    # mixed within a label
    rng = random.Random(0)
    for _ in range(3000):
        n = rng.randrange(1, 12)
        succ = [tuple(rng.randrange(n) for _ in range(rng.randrange(3))) for _ in range(n)]
        labels = [rng.randrange(1 + rng.randrange(3)) for _ in range(n)]
        block = [sorted(set(labels)).index(x) for x in labels]
        count = gtc._refine(succ, block, len(set(labels)))
        parts: dict[int, set[int]] = {}
        for s, b in enumerate(block):
            parts.setdefault(b, set()).add(s)
        assert count == len(parts)
        assert {frozenset(p) for p in parts.values()} == moore_classes(succ, labels)


def lap_chain(laps: int) -> PreProof:
    """A cycle of exchanges on ``|- 0 = 0, 1 = 1, 2 = 2``: ``laps - 1`` laps
    of two ``ExR(0)``, then one of two ``ExR(1)``, then a back edge.

    Every lap but the last repeats the same sequents and rules, so no two
    nodes are bisimilar, and rounds of splitting separate one more lap from
    the end in each round.  It has no fixed point, so its one cycle is its
    witness.
    """
    rules = [ExR(0), ExR(0)] * (laps - 1) + [ExR(1), ExR(1)]
    return unfolding_loop("|- 0 = 0, 1 = 1, 2 = 2", rules, "n0")


def test_refinement_is_not_quadratic_on_a_repeating_cycle():
    pp = lap_chain(1000)
    assert validate_preproof(pp) == []
    start = time.perf_counter()
    ok, lasso = check_gtc(pp)
    assert time.perf_counter() - start < 1
    assert gtc._quotient(pp) is None
    assert (ok, lasso) == (False, Lasso((), tuple(f"n{i}" for i in range(2001))))


def test_a_new_bud_whose_name_is_taken_gets_a_prime():
    # the bud n1 lands on n2, so the root's first edge places n2's class; the
    # root's second edge, to n2 itself, is then a new bud named after n2,
    # which the class already has
    seq = ps("q |- p, p")
    rows = {"n0": (ps("q \\/ q |- p, p"), OrL(), ("n1", "n2")), "n1": (seq, None, ()),
            "n2": (seq, ExR(0), ("n3",)), "n3": (seq, ExR(0), ("n4",)), "n4": (seq, None, ())}
    pp = PreProof.from_rows("n0", rows, {"n1": "n2", "n4": "n3"})
    assert validate_preproof(pp) == []
    quotient = gtc._quotient(pp)
    assert {k: (rule and rule.tag, kids) for k, (_, rule, kids) in quotient.rows.items()} == {
        "n0": ("OrL", ("n2", "n2'")), "n2": ("ExR", ("n3",)), "n3": (None, ()), "n2'": (None, ())}
    assert quotient.back_edges == {"n3": "n2", "n2'": "n2"}
    ok, lasso = check_gtc(pp)
    assert not ok
    assert_real_witness(pp, lasso)


@pytest.mark.parametrize("back,error", [
    ({"a2": "b"}, None),
    ({}, "open leaf 'a2' has no back edge"),
], ids=["leaf-target", "no-back-edge"])
def test_a_bud_that_lands_on_no_inner_node_leaves_the_proof_unmerged(back, error):
    # a and a1 are bisimilar, but the bud a2 lands on no closed node with
    # children: the proof is decided as it is presented
    seq = ps("|- p, p")
    rows = {"n0": (ps("|- p /\\ Z = Z, p"), AndR(), ("a", "b")), "a": (seq, ExR(0), ("a1",)),
            "a1": (seq, ExR(0), ("a2",)), "a2": (seq, None, ()), "b": (ps("|- Z = Z, p"), EqR(), ())}
    pp = PreProof.from_rows("n0", rows, back)
    assert gtc._quotient(pp) is None
    if error is None:
        assert check_gtc(pp) == (True, None)  # every path ends at b
    else:
        with pytest.raises(GtcError, match=f"^{re.escape(error)}$"):
            check_gtc(pp)


def bench_cases(seed: int) -> list[tuple[str, PreProof]]:
    """(name, pre-proof) for each proof of every benchmark workload at ``seed``."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from run import WORKLOADS, make_cases
    return [(f"{workload}:{case.name}", case.pp)
            for workload in WORKLOADS for case in make_cases(workload, seed)]


PREORDER = (all_fixtures() + [(name, pp) for name, pp, *_ in alternation_probes()]
            + bench_cases(1))


@pytest.mark.parametrize("name,pp", PREORDER, ids=[name for name, _ in PREORDER])
def test_every_way_to_make_a_proof_keeps_its_rows_in_preorder(name, pp):
    # a pre-proof's rows are its nodes in preorder from its root, however it
    # is made: the invariant that the report's and the dump's node order rest on
    made = {
        "tree": PreProof(pp.tree, pp.back_edges),
        "rows-reversed": PreProof.from_rows(pp.root, dict(reversed(pp.rows.items())),
                                            pp.back_edges),
        "load": loads_preproof(dumps_preproof(pp)),
        "copy": copy.copy(pp),
        "deepcopy": copy.deepcopy(pp),
        "pickle": pickle.loads(pickle.dumps(pp)),
    }
    order = tree_preorder(pp.root, pp.rows)
    assert list(pp.rows) == order
    for how, again in made.items():
        assert list(again.rows) == order and again == pp, how
    quotient = gtc._quotient(pp)
    if quotient is not None:
        assert list(quotient.rows) == tree_preorder(quotient.root, quotient.rows)


def test_a_closure_element_found_again_shorter_is_settled_once():
    # (A, C) is found over B first (1 + 5 steps), then over D (2 + 1): the
    # shorter word is kept, and the older heap entry is skipped when popped
    one = ((0, 1, 0),)  # one state to itself, through no accepting step
    segments = {("A", "B", one): ("a",), ("B", "C", one): ("b",) * 5,
                ("A", "D", one): ("c", "c"), ("D", "C", one): ("d",)}
    closure = gtc._loops(segments, gtc._Cap(100))
    assert closure == {**segments, ("A", "C", one): ("c", "c", "d")}


def test_the_decided_graph_does_not_grow_with_laps(monkeypatch):
    # long_cycle(m) has 4m + 1 nodes over 4 sequents; the trace automaton is
    # built on its 4 classes and one bud, whatever m
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from families import long_cycle
    built = []
    real = gtc.build_gtc_automaton

    def counted(pp):
        out = real(pp)
        built.append((len(pp.nodes), len(out.states)))
        return out

    monkeypatch.setattr(gtc, "build_gtc_automaton", counted)
    for m in (1, 8, 64):
        assert check_cyclic_proof(long_cycle(m, random.Random(m)).pp) == Accepted()
    assert built == [(5, 5)] * 3
