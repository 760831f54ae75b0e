"""Annotation transport, lasso classification, and the brute-force oracle."""

from pathlib import Path

import pytest

from hflcyc.kernel import (
    LEFT,
    RIGHT,
    AndL,
    AndR,
    Axiom,
    Cut,
    DerivTree,
    ExR,
    KernelError,
    LamR,
    MuL,
    MuR,
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
from hflcyc.proofio import load_preproof
from hflcyc.syntax import alpha_eq, sigma_paths
from hflcyc.oracles import (
    ExplosionGuard,
    FiniteOrNotATrace,
    MuTrace,
    NuTrace,
    annotate_root,
    annotate_step,
    classify_lasso_trace,
    enumerate_closed_walks,
    enumerate_simple_lassos,
    gtc_bruteforce,
    lasso_good,
    render_annotated,
    replay_annotations,
)
from hflcyc.trace import Lasso, TraceError, fresh_counter, occurrence_steps

from test_kernel import FIXTURES, pe, ps

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _formula(seq, pos):
    side, index = pos
    return (seq.left if side == LEFT else seq.right)[index]


def _with_premises(fixtures):
    return [f for f in fixtures if f[3]]


# the sides of a disjunction or conjunction whose left side nests a nu in a
# mu: (rule, conclusion, principal position, {(branch, premise position):
# transport})
_OR = "(mu a:O. a \\/ (nu c:O. c)) \\/ (nu b:O. b)"
_AND = "(mu a:O. a \\/ (nu c:O. c)) /\\ (nu b:O. b)"
_LHS = {(): (0,), (0, 1): (0, 0, 1)}
_RHS = {(): (1,)}
PREFIX_CASES = {
    "OrL": (OrL(), f"p, {_OR} |- r", (LEFT, 1),
            {(0, (LEFT, 1)): _LHS, (1, (LEFT, 1)): _RHS}),
    "OrR": (OrR(), f"p |- {_OR}, r", (RIGHT, 0),
            {(0, (RIGHT, 0)): _LHS, (0, (RIGHT, 1)): _RHS}),
    "AndL": (AndL(), f"p, {_AND} |- r", (LEFT, 1),
             {(0, (LEFT, 1)): _LHS, (0, (LEFT, 2)): _RHS}),
    "AndR": (AndR(), f"p |- {_AND}, r", (RIGHT, 0),
             {(0, (RIGHT, 0)): _LHS, (1, (RIGHT, 0)): _RHS}),
}


# ---------------------------------------------------------------------------
# occurrence_steps
# ---------------------------------------------------------------------------


class TestOccurrenceSteps:
    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             _with_premises(FIXTURES),
                             ids=[f[0] for f in _with_premises(FIXTURES)])
    def test_one_step_per_descendant_occurrence(self, label, conclusion, rule, premises):
        inference = rule.inference(conclusion)
        for branch, premise in enumerate(premises):
            left, right = inference.sources[branch]
            sources = {(side, i): source for side, row in ((LEFT, left), (RIGHT, right))
                       for i, source in enumerate(row)}
            steps = occurrence_steps(conclusion, rule, branch)
            # in premise order, one for each formula that is not fresh
            assert [s.premise_pos for s in steps] == [
                p for p, source in sources.items() if source is not None]
            for s in steps:
                assert sources[s.premise_pos][0] == s.conclusion_pos

    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             _with_premises(FIXTURES),
                             ids=[f[0] for f in _with_premises(FIXTURES)])
    def test_transport_total_and_well_aimed(self, label, conclusion, rule, premises):
        for branch, premise in enumerate(premises):
            for s in occurrence_steps(conclusion, rule, branch):
                pf = _formula(premise, s.premise_pos)
                cf = _formula(conclusion, s.conclusion_pos)
                assert set(s.transport) == set(sigma_paths(pf))
                assert set(s.transport.values()) <= set(sigma_paths(cf))

    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             _with_premises(FIXTURES),
                             ids=[f[0] for f in _with_premises(FIXTURES)])
    def test_heads_only_on_fixpoint_rules(self, label, conclusion, rule, premises):
        for branch in range(len(premises)):
            for s in occurrence_steps(conclusion, rule, branch):
                if rule.tag not in ("MuL", "MuR", "NuL", "NuR"):
                    assert s.consumed_head is None and not s.copy_roots
                elif s.consumed_head is not None:
                    assert {q for q, p in s.transport.items()
                            if p == s.consumed_head} == set(s.copy_roots)
                    kind = "mu" if rule.tag.startswith("Mu") else "nu"
                    assert s.sigma_kind == kind

    @pytest.mark.parametrize("rule,conclusion,principal,want",
                             PREFIX_CASES.values(), ids=PREFIX_CASES.keys())
    def test_prefix_transports(self, rule, conclusion, principal, want):
        conclusion = ps(conclusion)
        got = {(branch, s.premise_pos): s.transport
               for branch in range(len(rule.premises_of(conclusion)))
               for s in occurrence_steps(conclusion, rule, branch)
               if s.conclusion_pos == principal}
        assert got == want

    def test_a_link_must_place_every_operator_below_it(self):
        class OtherBranchOrL(OrL):
            # each disjunct linked to the other one
            def premise_rows(self, conclusion):
                rows = []
                for branch, (left, right) in enumerate(super().premise_rows(conclusion)):
                    f, (pos, _) = left[-1]
                    rows.append((left[:-1] + ((f, (pos, (1 - branch,))),), right))
                return tuple(rows)

        # premise 0's p has no operator, but the mu it is linked to has one
        with pytest.raises(TraceError, match="operator positions changed"):
            occurrence_steps(ps("p \\/ (mu a:O. a) |- r"), OtherBranchOrL(), 0)

    @pytest.mark.parametrize("transport,message", [
        ({}, "transport of .* is not total on the premise formula 'mu a:O. a'"),
        ({(): (7,)}, r"transport image \(7,\) is not an operator position of 'mu a:O. a'"),
    ], ids=["partial", "off-the-formula"])
    def test_an_explicit_map_must_cover_the_premise_and_land_on_operators(self, transport, message):
        class MappedWkR(WkR):
            # each copy names its operators by an explicit map
            def premise_rows(self, conclusion):
                ((left, right),) = super().premise_rows(conclusion)
                return ((left, tuple((f, (pos, transport)) for f, (pos, _) in right)),)

        with pytest.raises(TraceError, match=message):
            occurrence_steps(ps("|- p, mu a:O. a"), MappedWkR(), 0)

    def test_a_formula_must_keep_its_side(self):
        class MoveLeftToRight(Rule):
            # Gamma, phi |- Delta from Gamma |- phi, Delta, naming the left
            # phi as the source of the right one
            def premise_rows(self, conclusion):
                left = tuple((f, ((LEFT, i), ())) for i, f in enumerate(conclusion.left))
                right = tuple((f, ((RIGHT, j), ())) for j, f in enumerate(conclusion.right))
                return ((left[:-1], left[-1:] + right),)

        with pytest.raises(TraceError, match="from side 'left' to side 'right'"):
            occurrence_steps(ps("mu a:O. a |- r"), MoveLeftToRight(), 0)

    def test_nu_unfold_head_and_copies(self):
        conclusion = ps("|- (nu f:(O->O)->O. \\g:O->O. g (f g)) (mu x:O->O. \\a:O. a)")
        (step,) = occurrence_steps(conclusion, NuR(), 0)
        assert step.consumed_head == (0,)
        assert step.copy_roots == ((0, 0, 1, 0),)
        assert step.sigma_kind == "nu"
        assert step.transport[(0, 0, 1, 0)] == (0,)
        assert step.transport[(1,)] == (1,)  # the spine argument operator

    def test_beta_duplicates_argument_operators(self):
        conclusion = ps(
            "|- (\\h:O->O. h ((nu f:(O->O)->O. \\g:O->O. g (f g)) h))"
            " (mu x:O->O. \\a:O. a)")
        (step,) = occurrence_steps(conclusion, LamR(), 0)
        # premise: (mu ...) ((nu ...) (mu ...)) - the argument is used twice
        assert step.transport == {(0,): (1,), (1, 0): (0, 0, 1, 0), (1, 1): (1,)}
        assert step.consumed_head is None

    def test_subst_drops_substituted_operators(self):
        from hflcyc.kernel import Subst

        source = ps("|- (mu a:O. a) \\/ (nu c:O. c) \\/ x")
        rule = Subst(source, (("x", pe("nu b:O. b")),))
        conclusion = ps("|- (mu a:O. a) \\/ (nu c:O. c) \\/ (nu b:O. b)")
        (step,) = occurrence_steps(conclusion, rule, 0)
        # each operator of the source stays where it is; the nu at (1,) is
        # introduced by the substitution: no premise operator descends from it
        assert step.transport == {(0, 0): (0, 0), (0, 1): (0, 1)}

    def test_subst_that_renames_a_binder_keeps_operator_paths(self):
        from hflcyc.kernel import Subst

        # x |-> (nu b:O. b) \/ y under \y: the binder is renamed, and the
        # replacement brings a nu
        source = ps("|- (\\y:O. mu a:O. a \\/ x \\/ y) p")
        rule = Subst(source, (("x", pe("(nu b:O. b) \\/ y")),))
        conclusion = ps("|- (\\y_2:O. mu a:O. a \\/ ((nu b:O. b) \\/ y) \\/ y_2) p")
        assert rule.premises_of(conclusion) == (source,)
        (step,) = occurrence_steps(conclusion, rule, 0)
        # the identity on the source formula's operators; the inserted nu at
        # (0, 0, 0, 0, 1, 0) has no preimage
        assert sigma_paths(conclusion.right[0]) == ((0, 0), (0, 0, 0, 0, 1, 0))
        assert step.transport == {(0, 0): (0, 0)}

    def test_mono_copy_indexing_matches_premise_order(self):
        from hflcyc.kernel import Mono

        rule = Mono(pe("w \\/ (mu z:O. w \\/ z)"), "w",
                    pe("mu a:O. a"), pe("nu b:O. b"), ())
        conclusion = ps(
            "(mu a:O. a) \\/ (mu z:O. (mu a:O. a) \\/ z)"
            " |- (nu b:O. b) \\/ (mu z:O. (nu b:O. b) \\/ z)")
        left0 = [s for s in occurrence_steps(conclusion, rule, 0)
                 if s.premise_pos == (LEFT, 0)][0]
        left1 = [s for s in occurrence_steps(conclusion, rule, 1)
                 if s.premise_pos == (LEFT, 0)][0]
        assert left0.transport == {(): (0,)}
        assert left1.transport == {(): (1, 0, 0)}
        right0 = [s for s in occurrence_steps(conclusion, rule, 0)
                  if s.premise_pos == (RIGHT, 0)][0]
        assert right0.transport == {(): (0,)}

    def test_mono_context_steps_copy_annotations(self):
        from hflcyc.kernel import Mono

        rule = Mono(pe("(mu m:O. m) \\/ x"), "x", pe("p"), pe("q"), ())
        conclusion = ps("nu a:O. a, (mu m:O. m) \\/ p |- (mu m:O. m) \\/ q, mu b:O. b")
        steps = {s.premise_pos: s for s in occurrence_steps(conclusion, rule, 0)}
        for pos in ((LEFT, 0), (RIGHT, 1)):
            assert steps[pos].conclusion_pos == pos
            assert steps[pos].transport == {(): ()}

    def test_equation_rewrite_keeps_operator_positions(self):
        from hflcyc.kernel import EqL

        rule = EqL("h1", "h2", pe("S Z"), pe("t"),
                   (pe("mu a:O. a \\/ (h1 = Z)"),), (pe("q h1"),))
        conclusion = ps("mu a:O. a \\/ (S Z = Z), S Z = t |- q (S Z)")
        steps = {s.premise_pos: s for s in occurrence_steps(conclusion, rule, 0)}
        assert set(steps) == {(LEFT, 0), (RIGHT, 0)}
        assert steps[(LEFT, 0)].transport == {(): ()}
        assert steps[(RIGHT, 0)].transport == {}

    def test_branch_out_of_range(self):
        with pytest.raises(KernelError):
            occurrence_steps(ps("p |- p, q"), WkR(), 1)

    def test_premises_rebuilt_once(self, monkeypatch):
        calls = []
        rebuild = WkR.premise_rows
        monkeypatch.setattr(WkR, "premise_rows",
                            lambda rule, seq: calls.append(seq) or rebuild(rule, seq))
        occurrence_steps(ps("p |- p, q"), WkR(), 0)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# annotate_step
# ---------------------------------------------------------------------------


class TestAnnotateStep:
    def test_nu_unfold_assigns_first_fresh_number(self):
        conclusion = ps("|- (nu f:(O->O)->O. \\g:O->O. g (f g)) (mu x:O->O. \\a:O. a)")
        tau = annotate_root(_formula(conclusion, (RIGHT, 0)))
        out = annotate_step(tau, NuR(), 0, fresh_counter(),
                            conclusion=conclusion, pos=(RIGHT, 0))
        assert out.notes[(0, 0, 1, 0)] == (0,)
        assert out.notes[(1,)] == ()

    def test_fixpoint_step_consumes_fresh_even_without_copies(self):
        conclusion = ps("|- (mu x:O->O. \\a:O. a) p")
        tau = annotate_root(_formula(conclusion, (RIGHT, 0)))
        fresh = fresh_counter(5)
        out = annotate_step(tau, MuR(), 0, fresh,
                            conclusion=conclusion, pos=(RIGHT, 0))
        assert out.notes == {}  # \a:O. a applied: no operators left
        assert next(fresh) == 6  # exactly one number was drawn

    def test_non_principal_step_draws_nothing(self):
        conclusion = ps("(mu b:O. b) |- (nu f:(O->O)->O. \\g:O->O. g (f g)) (mu x:O->O. \\a:O. a)")
        tau = annotate_root(_formula(conclusion, (LEFT, 0)))
        fresh = fresh_counter()
        out = annotate_step(tau, NuR(), 0, fresh,
                            conclusion=conclusion, pos=(LEFT, 0))
        assert out.notes == {(): ()}
        assert next(fresh) == 0

    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             _with_premises(FIXTURES),
                             ids=[f[0] for f in _with_premises(FIXTURES)])
    def test_strip_consistency(self, label, conclusion, rule, premises):
        for branch, premise in enumerate(premises):
            for s in occurrence_steps(conclusion, rule, branch):
                tau = annotate_root(_formula(conclusion, s.conclusion_pos))
                out = annotate_step(tau, rule, branch, fresh_counter(),
                                    conclusion=conclusion, pos=s.conclusion_pos,
                                    target=s.premise_pos)
                assert alpha_eq(out.formula, _formula(premise, s.premise_pos))
                assert set(out.notes) == set(sigma_paths(out.formula))

    def test_contraction_needs_explicit_target(self):
        from hflcyc.kernel import CtrL

        conclusion = ps("p, mu a:O. a |- r")
        tau = annotate_root(_formula(conclusion, (LEFT, 1)))
        with pytest.raises(TraceError, match="several successors"):
            annotate_step(tau, CtrL(), 0, fresh_counter(),
                          conclusion=conclusion, pos=(LEFT, 1))
        out = annotate_step(tau, CtrL(), 0, fresh_counter(),
                            conclusion=conclusion, pos=(LEFT, 1),
                            target=(LEFT, 2))
        assert out.notes == {(): ()}

    def test_weakened_occurrence_has_no_successor(self):
        conclusion = ps("p, mu a:O. a |- r")
        tau = annotate_root(_formula(conclusion, (LEFT, 1)))
        with pytest.raises(TraceError, match="no successor"):
            annotate_step(tau, WkL(), 0, fresh_counter(),
                          conclusion=conclusion, pos=(LEFT, 1))

    def test_mismatched_formula_rejected(self):
        conclusion = ps("p, mu a:O. a |- r")
        tau = annotate_root(pe("nu a:O. a"))
        with pytest.raises(TraceError, match="does not match"):
            annotate_step(tau, WkL(), 0, fresh_counter(),
                          conclusion=conclusion, pos=(LEFT, 1))


# ---------------------------------------------------------------------------
# pre-proof builders
# ---------------------------------------------------------------------------


def leaf(nid, seqstr):
    return DerivTree(nid, ps(seqstr), None)


def node(nid, seqstr, rule, *children):
    return DerivTree(nid, ps(seqstr), rule, tuple(children))


def self_loop_proof(connective: str) -> PreProof:
    """|- (sigma t:O. t) unfolded forever: the smallest one-cycle pre-proof."""
    kw = "nu" if connective == "nu" else "mu"
    rule = NuR() if connective == "nu" else MuR()
    seq = f"|- {kw} t:O. t"
    tree = node("n0", seq, rule, leaf("n1", seq))
    return PreProof(tree, {"n1": "n0"})


def left_mu_loop_proof() -> PreProof:
    seq = "mu b:O. b |-"
    tree = node("n0", seq, MuL(), leaf("n1", seq))
    return PreProof(tree, {"n1": "n0"})


def branching_loop_proof() -> PreProof:
    """A left mu whose unfolding splits into two back edges."""
    from hflcyc.kernel import OrL

    s = "mu a:O. a \\/ a |- nu t:O. t"
    tree = node(
        "n0", s, MuL(),
        node("n1", "(mu a:O. a \\/ a) \\/ (mu a:O. a \\/ a) |- nu t:O. t", OrL(),
             leaf("n2", s), leaf("n3", s)))
    return PreProof(tree, {"n2": "n0", "n3": "n0"})


def figure_eight_proof() -> PreProof:
    """Two individually sound loops whose alternation kills every trace.

    Loop A unfolds the first right occurrence and replaces the second by a
    fresh cut formula; loop B does the opposite.  Every trace survives at most
    two loop changes, so each simple cycle is good while the composite cycle
    alternating A and B has no infinite trace at all.
    """
    nu = "nu t:O. t"
    two = f"|- {nu}, {nu}"
    three = f"|- {nu}, {nu}, {nu}"
    one = f"|- {nu}"
    cut_left = f"{nu} |- {nu}, {nu}"
    ax = f"{nu} |- {nu}"
    cut = Cut(pe(nu))
    tree = node(
        "r", two, cut,
        node("u1", three, WkR(),
             node("u2", two, NuR(),
                  node("u3", two, ExR(0),
                       node("u4", two, WkR(),
                            node("u5", one, cut,
                                 node("u6", two, ExR(0), leaf("u7", two)),
                                 node("uax", ax, Axiom())))))),
        node("v1", cut_left, WkL(),
             node("v2", two, ExR(0),
                  node("v3", two, NuR(),
                       node("v4", two, ExR(0),
                            node("v5", two, WkR(),
                                 node("v6", one, cut,
                                      leaf("v7", two),
                                      node("vax", ax, Axiom()))))))))
    return PreProof(tree, {"u7": "r", "v7": "r"})


# ---------------------------------------------------------------------------
# the golden loop (corpus)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_loop() -> PreProof:
    pp = load_preproof(CORPUS / "higher_order_loop.hflp")
    assert validate_preproof(pp) == []
    return pp


GOLDEN_CYCLE = ("n0", "n1", "n2", "n3", "n4")


class TestGoldenLoop:
    def test_classification_is_a_nu_trace(self, golden_loop):
        lasso = Lasso((), GOLDEN_CYCLE)
        got = classify_lasso_trace(golden_loop, lasso,
                                   OccurrenceRef("n0", RIGHT, 0))
        assert got == NuTrace(p_prefix=(0,))

    def test_classification_from_mid_cycle(self, golden_loop):
        lasso = Lasso((), GOLDEN_CYCLE)
        got = classify_lasso_trace(golden_loop, lasso,
                                   OccurrenceRef("n2", RIGHT, 0))
        assert isinstance(got, NuTrace)

    def test_classification_with_prefix_start(self, golden_loop):
        lasso = Lasso(("n0", "n1"), ("n2", "n3", "n4", "n0", "n1"))
        got = classify_lasso_trace(golden_loop, lasso,
                                   OccurrenceRef("n0", RIGHT, 0))
        assert isinstance(got, NuTrace)

    def test_invalid_starts_rejected(self, golden_loop):
        lasso = Lasso((), GOLDEN_CYCLE)
        with pytest.raises(TraceError):
            classify_lasso_trace(golden_loop, lasso, OccurrenceRef("n0", LEFT, 0))
        with pytest.raises(TraceError):
            classify_lasso_trace(golden_loop, lasso, OccurrenceRef("zz", RIGHT, 0))

    def test_lasso_good_and_bruteforce(self, golden_loop):
        assert lasso_good(golden_loop, Lasso((), GOLDEN_CYCLE))
        assert gtc_bruteforce(golden_loop) is True

    def test_dangling_lasso_node_is_named(self, golden_loop):
        with pytest.raises(KernelError, match="no node 'zz'"):
            lasso_good(golden_loop, Lasso((), ("zz",)))

    def test_bruteforce_names_a_dangling_back_edge(self, golden_loop):
        pp = PreProof(golden_loop.tree, {"n4": "zz"})
        with pytest.raises(TraceError, match="'n4' -> 'zz' names a missing node"):
            gtc_bruteforce(pp)

    def test_single_simple_lasso(self, golden_loop):
        assert enumerate_simple_lassos(golden_loop) == [Lasso((), GOLDEN_CYCLE)]

    def test_replay_matches_worked_annotations(self, golden_loop):
        path = ["n0", "n1", "n2", "n3", "n4", "n0", "n1"]
        entries = replay_annotations(golden_loop, path,
                                     OccurrenceRef("n0", RIGHT, 0))
        assert len(entries) == 7
        rendered = [render_annotated(af) for _, _, af in entries]
        assert "{" not in rendered[0]
        assert "nu{0}" in rendered[1]
        assert "nu{0}" in rendered[2]
        # the mu is consumed with a fresh number that no operator receives
        assert "{1}" not in rendered[3]
        assert "nu{0}" in rendered[3]
        # the back edge copies annotations unchanged
        assert entries[5][2].notes == entries[4][2].notes
        assert "nu{0.2}" in rendered[6]

    @pytest.mark.parametrize("path,start,message", [
        (["n1", "n2"], "n0", "must begin at the start occurrence's node"),
        # an open leaf's one edge is its back edge
        (["n4", "n1"], "n4", "n4 -> n1 is not an edge"),
        # a closed node's edges go to its children
        (["n0", "n2"], "n0", "n0 -> n2 is not an edge"),
    ], ids=["start", "back_edge", "child"])
    def test_replay_rejects_a_path_that_is_not_one(self, golden_loop, path, start, message):
        with pytest.raises(TraceError, match=message):
            replay_annotations(golden_loop, path, OccurrenceRef(start, RIGHT, 0))

    def test_replay_refuses_an_empty_path(self, golden_loop):
        with pytest.raises(TraceError, match="must begin at the start occurrence's node"):
            replay_annotations(golden_loop, (), OccurrenceRef("n0", RIGHT, 0))

    def test_replay_refuses_a_start_on_no_side(self, golden_loop):
        with pytest.raises(TraceError, match="'middle' .* is neither"):
            replay_annotations(golden_loop, ("n0",), OccurrenceRef("n0", "middle", 0))

    def test_classification_refuses_a_start_on_no_side(self, golden_loop):
        # such a start was read as a right occurrence
        with pytest.raises(TraceError, match="'middle' .* is neither"):
            classify_lasso_trace(golden_loop, Lasso((), GOLDEN_CYCLE),
                                 OccurrenceRef("n0", "middle", 0))

    def test_fresh_numbers_never_reused(self, golden_loop):
        path = ["n0", "n1", "n2", "n3", "n4"] * 3 + ["n0", "n1"]
        entries = replay_annotations(golden_loop, path,
                                     OccurrenceRef("n0", RIGHT, 0))
        seen: set[tuple[int, ...]] = set()
        prev_values: set[tuple[int, ...]] = set()
        for _, _, af in entries:
            values = set(af.notes.values())
            created = {v for v in values if v and v not in prev_values}
            assert not (created & seen)
            seen |= created
            prev_values = values

    def test_golden_trace_dump(self, golden_loop):
        want = (CORPUS / "higher_order_loop.trace.txt").read_text()
        path = ["n0", "n1", "n2", "n3", "n4", "n0", "n1"]
        entries = replay_annotations(golden_loop, path,
                                     OccurrenceRef("n0", RIGHT, 0))
        lines = [
            "; Annotation replay along the loop, one full lap plus two steps.",
            "; Thread: the right-hand occurrence, starting at the root.",
        ]
        for i, (nid, (side, index), af) in enumerate(entries):
            lines.append(f"tau_{i}  {nid}  {side}:{index}  {render_annotated(af)}")
        assert want == "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# small loops and the composite cycle
# ---------------------------------------------------------------------------


class TestSmallLoops:
    def test_nu_self_loop_is_good(self):
        pp = self_loop_proof("nu")
        assert validate_preproof(pp) == []
        got = classify_lasso_trace(pp, Lasso((), ("n0", "n1")),
                                   OccurrenceRef("n0", RIGHT, 0))
        assert got == NuTrace(p_prefix=(0,))
        assert gtc_bruteforce(pp) is True

    def test_right_mu_self_loop_is_bad(self):
        pp = self_loop_proof("mu")
        assert validate_preproof(pp) == []
        got = classify_lasso_trace(pp, Lasso((), ("n0", "n1")),
                                   OccurrenceRef("n0", RIGHT, 0))
        assert isinstance(got, MuTrace)  # a mu-trace, but on the right
        assert not lasso_good(pp, Lasso((), ("n0", "n1")))
        assert gtc_bruteforce(pp) is False

    def test_left_mu_self_loop_is_good(self):
        pp = left_mu_loop_proof()
        assert validate_preproof(pp) == []
        got = classify_lasso_trace(pp, Lasso((), ("n0", "n1")),
                                   OccurrenceRef("n0", LEFT, 0))
        assert got == MuTrace(p_prefix=(0,))
        assert gtc_bruteforce(pp) is True

    def test_untouched_occurrence_is_not_a_trace(self):
        pp = branching_loop_proof()
        assert validate_preproof(pp) == []
        lasso = Lasso((), ("n0", "n1", "n2"))
        got = classify_lasso_trace(pp, lasso, OccurrenceRef("n0", RIGHT, 0))
        assert got == FiniteOrNotATrace()

    def test_branching_loop_walks_and_verdict(self):
        pp = branching_loop_proof()
        walks = enumerate_closed_walks(pp)
        assert ("n0", "n1", "n2") in walks
        assert ("n0", "n1", "n3") in walks
        assert ("n0", "n1", "n2", "n0", "n1", "n3") in walks
        assert len(walks) == 5  # 2 simple + 1 pair + 2 triples
        assert len(enumerate_simple_lassos(pp)) == 2
        assert gtc_bruteforce(pp) is True

    def test_classify_on_composite_lasso(self):
        pp = branching_loop_proof()
        lasso = Lasso((), ("n0", "n1", "n2", "n0", "n1", "n3"))
        got = classify_lasso_trace(pp, lasso, OccurrenceRef("n0", LEFT, 0))
        assert isinstance(got, MuTrace)


@pytest.fixture(scope="module")
def figure_eight() -> PreProof:
    pp = figure_eight_proof()
    assert validate_preproof(pp) == []
    return pp


class TestFigureEight:
    def test_both_simple_cycles_are_good(self, figure_eight):
        pp = figure_eight
        lassos = enumerate_simple_lassos(pp)
        assert len(lassos) == 2
        for lasso in lassos:
            assert lasso_good(pp, lasso)

    def test_alternating_composite_cycle_is_bad(self, figure_eight):
        cycle = ("r", "u1", "u2", "u3", "u4", "u5", "u6", "u7",
                 "r", "v1", "v2", "v3", "v4", "v5", "v6", "v7")
        assert cycle in enumerate_closed_walks(figure_eight)
        assert not lasso_good(figure_eight, Lasso((), cycle))

    def test_bruteforce_rejects(self, figure_eight):
        assert gtc_bruteforce(figure_eight) is False

    def test_trace_dies_after_the_loop_change(self, figure_eight):
        cycle = ("r", "u1", "u2", "u3", "u4", "u5", "u6", "u7",
                 "r", "v1", "v2", "v3", "v4", "v5", "v6", "v7")
        got = classify_lasso_trace(figure_eight, Lasso((), cycle),
                                   OccurrenceRef("r", RIGHT, 0))
        assert got == FiniteOrNotATrace()


class TestEnumerationLimits:
    def test_explosion_guard(self):
        pp = figure_eight_proof()
        with pytest.raises(ExplosionGuard):
            enumerate_closed_walks(pp, max_back_edges=4, cap=10)

    def test_malformed_lasso_rejected(self):
        pp = self_loop_proof("nu")
        with pytest.raises(TraceError):
            lasso_good(pp, Lasso((), ("n0",)))
        with pytest.raises(TraceError):
            Lasso((), ())

    def test_open_leaf_without_back_edge_is_named(self):
        pp = PreProof(node("r", "|- nu t:O. t", NuR(), leaf("l", "|- nu t:O. t")), {})
        lasso = Lasso((), ("r", "l"))
        with pytest.raises(KernelError, match="open leaf 'l' has no back edge"):
            lasso_good(pp, lasso)
        with pytest.raises(KernelError, match="open leaf 'l' has no back edge"):
            classify_lasso_trace(pp, lasso, OccurrenceRef("r", RIGHT, 0))

    def test_acyclic_proof_is_vacuously_good(self):
        tree = node("a", "p |- p", Axiom())
        pp = PreProof(tree, {})
        assert enumerate_closed_walks(pp) == []
        assert gtc_bruteforce(pp) is True
