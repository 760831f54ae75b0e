"""Path/trace automata and the decision of the global trace condition."""

import copy
import pickle
import random
import sys
import time
from pathlib import Path

import pytest

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
from hflcyc.kernel import (
    LEFT,
    RIGHT,
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
    PROP, App, Eq, Lam, Mu, Nu, Or, Sequent, Succ, Var, Zero, numeral, sigma_paths,
    subexpr_at, to_str,
)
from hflcyc.trace import (
    Lasso,
    TraceError,
    _tree_paths,
    enumerate_closed_walks,
    enumerate_simple_lassos,
    gtc_bruteforce,
    lasso_good,
    node_steps,
)

from test_kernel import built_loop, loop_proof, pe, ps, unrolled_loop
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
        a = build_gtc_automaton(pp)
        companions = set(pp.back_edges.values())
        assert a.initial == {q for q, key in enumerate(a.decode) if key[0] in companions}
        assert {a.decode[q] for q in a.initial} == {
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
        a = build_gtc_automaton(sigma_free_loop_proof())
        assert a.states == frozenset()
        assert a.decode == ()
        assert not a.accepting

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_tracked_states_are_well_formed(self, name, pp):
        a = build_gtc_automaton(pp)
        assert a.states == frozenset(range(len(a.decode)))
        for node_id, side, index, mark in a.decode:
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

    def test_dangling_back_edge_target_is_named(self, golden):
        with pytest.raises(GtcError, match="'n4' -> 'zz' targets a missing node"):
            check_gtc(PreProof(golden.tree, {"n4": "zz"}))

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
        assert pp == again and hash(pp.tree) == hash(again.tree)
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
    aut = build_gtc_automaton(pp)
    report = None
    if isinstance(res, Rejected) and res.lasso is not None:
        report = counterexample_report(pp, res.lasso)
    return res, aut.states, aut.transitions, aut.accepting, aut.decode, report


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
        want = (pp.back_edges[n.id],) if n.is_open() else tuple(c.id for c in n.children)
        assert kernel.successors(pp, n.id) == want
    assert pp.open_leaves() == [n for n in preorder if n.is_open()]
    with pytest.raises(KernelError, match="no node 'zz' in the pre-proof"):
        kernel.successors(pp, "zz")


@pytest.mark.parametrize("name,pp", DIFFERENTIAL, ids=[name for name, _ in DIFFERENTIAL])
def test_an_occurrences_steps_come_in_premise_position_order(name, pp):
    # replay_annotations follows the first step of an occurrence, the one
    # into the first premise position
    for node in pp.nodes.values():
        for branch in range(len(node.children) if node.rule is not None else 0):
            for steps in node_steps(pp, node, branch).values():
                positions = [step.premise_pos for step, _ in steps]
                assert positions == sorted(positions)


def bench_family_proofs():
    """(name, pre-proof) for each family of the benchmark at its first sizes."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from families import FAMILIES
    sizes = {"figure_eight": (2, 3)}
    return [(f"{family}{k}", make(k, random.Random(f"{family}:{k}")).pp)
            for family, make in FAMILIES.items() for k in sizes.get(family, (1, 2, 3))]


SIDE_KEEPING = DIFFERENTIAL + bench_family_proofs()


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
            for occ, steps in node_steps(pp, node, branch).items():
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
        real = gtc.print_template
        monkeypatch.setattr(gtc, "print_template", lambda e: built.append(e) or real(e))
        report = counterexample_report(pp, res.lasso)
        assert len(report.splitlines()) == 1 + 1 + 14
        assert len(built) == len({id(e) for e in built}) == 4

    def test_one_template_per_distinct_formula_of_a_built_proof(self, monkeypatch):
        pp = built_loop(3, "mu")
        res = check_cyclic_proof(pp)
        assert isinstance(res, Rejected) and len(res.lasso.cycle) == 13
        built = []
        real = gtc.print_template
        monkeypatch.setattr(gtc, "print_template", lambda e: built.append(e) or real(e))
        report = counterexample_report(pp, res.lasso)
        assert len(built) == len({id(e) for e in built}) == 4
        assert report == counterexample_report(loads_preproof(dumps_preproof(pp)), res.lasso)


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
