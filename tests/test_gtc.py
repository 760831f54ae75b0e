"""Path/trace automata and the decision of the global trace condition."""

from pathlib import Path

import pytest

from hflcyc.buchi import LassoWord, accepts_lasso, is_empty
from hflcyc.gtc import (
    STAR,
    Accepted,
    GtcError,
    GtcUnknown,
    Rejected,
    Star,
    Tracked,
    build_gtc_automaton,
    build_path_automaton,
    check_cyclic_proof,
    check_gtc,
    counterexample_report,
    render_lasso,
)
from hflcyc.kernel import (
    LEFT,
    Axiom,
    DerivTree,
    ExR,
    KernelError,
    NuR,
    PreProof,
    validate_preproof,
)
from hflcyc.proofio import dumps_preproof, load_preproof, loads_preproof
from hflcyc.syntax import sigma_paths
from hflcyc.trace import (
    Lasso,
    _tree_paths,
    enumerate_closed_walks,
    enumerate_simple_lassos,
    gtc_bruteforce,
    lasso_good,
)

from test_kernel import ps
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
    ]


FIXTURES = all_fixtures()
FIXTURE_IDS = [name for name, _ in FIXTURES]


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


class TestStates:
    def test_star_is_a_singleton_value(self):
        assert Star() == STAR
        assert repr(STAR) == "Star"


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
        assert accepts_lasso(a, LassoWord((), GOLDEN_CYCLE))
        assert not accepts_lasso(a, LassoWord((), ("n0", "n0")))
        assert not accepts_lasso(a, LassoWord((), ("n1", "n0", "n2", "n3", "n4")))

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_every_simple_lasso_is_in_the_language(self, name, pp):
        a = build_path_automaton(pp)
        lassos = list(enumerate_simple_lassos(pp))
        assert lassos
        for lasso in lassos:
            assert accepts_lasso(a, LassoWord(lasso.prefix, lasso.cycle))

    def test_closed_proof_has_empty_path_language(self):
        a = build_path_automaton(closed_proof())
        empty, witness = is_empty(a)
        assert empty and witness is None

    def test_figure_eight_accepts_the_composite_alternation(self):
        pp = figure_eight_proof()
        a = build_path_automaton(pp)
        loop_a = ("r", "u1", "u2", "u3", "u4", "u5", "u6", "u7")
        loop_b = ("r", "v1", "v2", "v3", "v4", "v5", "v6", "v7")
        assert accepts_lasso(a, LassoWord((), loop_a))
        assert accepts_lasso(a, LassoWord((), loop_b))
        assert accepts_lasso(a, LassoWord((), loop_a + loop_b))


# ---------------------------------------------------------------------------
# the trace automaton
# ---------------------------------------------------------------------------


def reachable_state_bound(pp: PreProof) -> int:
    """STAR plus one state per operator position of every occurrence."""
    total = 1
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
        assert len(a.states) == 12
        assert len(a.accepting) == 1

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_star_ignores_every_symbol(self, name, pp):
        a = build_gtc_automaton(pp)
        assert a.initial == frozenset({0})
        assert a.decode[0] == STAR
        for n in pp.nodes:
            assert (0, n, 0) in a.transitions
            assert (0, n, 0) not in a.accepting

    def test_accepting_transitions_by_fixture(self):
        # only left-mu / right-nu unfoldings of the followed operator accept:
        # the right-mu loop has none, its nu twin and the left-mu loop
        # exactly one each
        assert len(build_gtc_automaton(self_loop_proof("mu")).accepting) == 0
        assert len(build_gtc_automaton(self_loop_proof("nu")).accepting) == 1
        assert len(build_gtc_automaton(left_mu_loop_proof()).accepting) == 1

    def test_sigma_free_proof_has_no_tracked_states(self):
        a = build_gtc_automaton(sigma_free_loop_proof())
        assert a.states == frozenset({0})
        assert a.decode == (STAR,)
        assert not a.accepting

    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_tracked_states_are_well_formed(self, name, pp):
        a = build_gtc_automaton(pp)
        assert a.states == frozenset(range(len(a.decode)))
        for state in a.decode[1:]:
            assert isinstance(state, Tracked)
            seq = pp.node(state.occ.node).seq
            row = seq.left if state.occ.side == LEFT else seq.right
            assert state.mark in sigma_paths(row[state.occ.index])


# ---------------------------------------------------------------------------
# the bridge to the brute-force oracle
# ---------------------------------------------------------------------------


class TestBridge:
    @pytest.mark.parametrize("name,pp", FIXTURES, ids=FIXTURE_IDS)
    def test_closed_walks_agree_with_classification(self, name, pp):
        a = build_gtc_automaton(pp)
        paths = _tree_paths(pp)
        for cycle in enumerate_closed_walks(pp, max_back_edges=3):
            lasso = Lasso(paths[cycle[0]][:-1], cycle)
            got = accepts_lasso(a, LassoWord(lasso.prefix, lasso.cycle))
            assert got == lasso_good(pp, lasso), lasso

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

    def test_structural_check_runs_first(self):
        # an invalid proof with a bad trace still reports the structural issue
        pp = self_loop_proof("mu")
        broken = PreProof(pp.tree, {})
        res = check_cyclic_proof(broken)
        assert isinstance(res, Rejected) and res.kind == "structural"


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
