"""Path/trace automata and the decision of the global trace condition."""

import sys
from pathlib import Path

import pytest

from hflcyc.buchi import accepts_lasso, trim
import hflcyc.gtc as gtc
from hflcyc.gtc import (
    Accepted,
    GtcError,
    GtcUnknown,
    Rejected,
    build_gtc_automaton,
    build_path_automaton,
    check_cyclic_proof,
    check_gtc,
    counterexample_report,
    render_lasso,
)
import hflcyc.kernel as kernel
from hflcyc.kernel import (
    LEFT,
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
from hflcyc.syntax import Eq, Or, Sequent, Zero, sigma_paths
from hflcyc.trace import (
    Lasso,
    _tree_paths,
    enumerate_closed_walks,
    enumerate_simple_lassos,
    gtc_bruteforce,
    lasso_good,
)

from test_kernel import built_loop, pe, ps, unrolled_loop
from test_trace import (
    branching_loop_proof,
    figure_eight_proof,
    leaf,
    left_mu_loop_proof,
    node,
    self_loop_proof,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

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
        assert len(a.states) == 11
        assert len(a.accepting) == 1

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_star_ignores_every_symbol(self, name, pp):
        # no idle state reads every symbol: runs start at the companions'
        # operator positions, and only there
        a = build_gtc_automaton(pp)
        companions = set(pp.back_edges.values())
        assert a.initial == {q for q, key in enumerate(a.decode) if key[0] in companions}
        assert {a.decode[q] for q in a.initial} == {
            (c, side, index, p) for c in companions
            for (side, index), paths in pp.positions(c).items() for p in paths}

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
        # the type checker takes two frames per level of a right-nested
        # disjunction, so this one is too deep
        deep = Eq(Zero(), Zero())
        for _ in range(sys.getrecursionlimit()):
            deep = Or(Eq(Zero(), Zero()), deep)
        res = check_cyclic_proof(PreProof(DerivTree("n0", Sequent((), (deep,)), EqR())))
        assert isinstance(res, Rejected) and res.kind == "structural"
        assert [str(issue) for issue in res.issues] == [
            "n0: ill-typed sequent: formula nested too deeply to type-check"]

    def test_large_numeral_is_accepted(self):
        # a numeral types in a loop, not one frame per S
        pp = loads_preproof('(node n0 (seq "|- 500 = 500") (rule EqR))')
        assert check_cyclic_proof(pp) == Accepted()

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
    # both share equal sequents, so the loaded copy differs only in which
    # equal objects it holds; nothing a check shows may depend on them
    assert outcome(loads_preproof(dumps_preproof(pp))) == outcome(pp)


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
                .replace("nu f", "mu f").replace("(rule NuR)", "(rule MuR)"))
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
