"""Tests for the sequent-calculus kernel: rule schemas, rule sources,
pre-proof validation, and the proof file format."""

import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from hflcyc.syntax import (
    PROP, And, App, Eq, Lam, Or, Sequent, Succ, Var, Zero, children, nat_pred, numeral,
    parse_expr, parse_sequent, sequent, sequent_alpha_eq, sequent_to_str,
)
from hflcyc.kernel import (
    LEFT, RIGHT, RULES, Axiom, AndL, AndR, CtrL, CtrR, Cut, DerivTree, EqL,
    EqR, ExL, ExR, KernelError, LamL, LamR, Mono, MuL, MuR, Nat, NuL, NuR,
    OrL, OrR, P1, P2, PreProof, SchemaMismatch, SideConditionViolated, Subst,
    WkL, WkR, check_rule, successors, validate_preproof,
)
from hflcyc.proofio import (
    ProofFormatError, dumps_preproof, load_preproof, loads_preproof,
    rule_from_form, rule_to_form,
)
from hflcyc.semantics import BoundedDomain, Valid, check_validity_bounded
from hflcyc.trace import occurrence_steps
from hflcyc.gtc import Accepted, check_cyclic_proof
import hflcyc.kernel as kernel
import hflcyc.proofio as proofio

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ps = parse_sequent
pe = parse_expr


def nat_member(name: str):
    return App(nat_pred(), Var(name))


# Every entry: (label, conclusion, rule, expected premises)
FIXTURES = [
    ("Axiom", ps("p |- p"), Axiom(), []),
    ("Cut", ps("p |- q"), Cut(pe("r")), [ps("p |- r, q"), ps("p, r |- q")]),
    ("WkL", ps("p, q |- r"), WkL(), [ps("p |- r")]),
    ("WkR", ps("p |- q, r"), WkR(), [ps("p |- r")]),
    ("CtrL", ps("p, q |- r"), CtrL(), [ps("p, q, q |- r")]),
    ("CtrR", ps("p |- q, r"), CtrR(), [ps("p |- q, q, r")]),
    ("ExL", ps("p, q, r |- s"), ExL(0), [ps("q, p, r |- s")]),
    ("ExR", ps("p |- q, r, s"), ExR(1), [ps("p |- q, s, r")]),
    ("Subst", ps("p (S Z) |- S Z = S Z"),
     Subst(ps("p x |- x = x"), (("x", pe("S Z")),)),
     [ps("p x |- x = x")]),
    ("Mono", ps("x \\/ mu z:O. x \\/ z |- (x \\/ y) \\/ mu z:O. (x \\/ y) \\/ z"),
     Mono(pe("w \\/ mu z:O. w \\/ z"), "w", pe("x"), pe("x \\/ y"), ()),
     [ps("x |- x \\/ y"), ps("x |- x \\/ y")]),
    ("Mono-args", ps("(\\n:N. n = Z) (S Z) |- (\\n:N. n = n) (S Z)"),
     Mono(pe("w (S Z)"), "w", pe("\\n:N. n = Z"), pe("\\n:N. n = n"), ("u",)),
     [ps("(\\n:N. n = Z) u |- (\\n:N. n = n) u")]),
    ("EqL", ps("p (S Z), S Z = t |- q (S Z)"),
     EqL("h1", "h2", pe("S Z"), pe("t"), (pe("p h1"),), (pe("q h1"),)),
     [ps("p t |- q t")]),
    ("EqL-both", ps("p (S Z) t, S Z = t |-"),
     EqL("h1", "h2", pe("S Z"), pe("t"), (pe("p h1 h2"),), ()),
     [ps("p t (S Z) |-")]),
    ("EqR", ps("r |- x = x, q"), EqR(), []),
    ("OrL", ps("r, p \\/ q |- s"), OrL(), [ps("r, p |- s"), ps("r, q |- s")]),
    ("OrR", ps("r |- p \\/ q, s"), OrR(), [ps("r |- p, q, s")]),
    ("AndL", ps("r, p /\\ q |- s"), AndL(), [ps("r, p, q |- s")]),
    ("AndR", ps("r |- p /\\ q, s"), AndR(), [ps("r |- p, s"), ps("r |- q, s")]),
    ("LamL", ps("r, (\\a:O. a \\/ a) p |- s"), LamL(), [ps("r, p \\/ p |- s")]),
    ("LamL-spine", ps("(\\f:O->O. f) (\\a:O. a) p |- s"), LamL(),
     [ps("(\\a:O. a) p |- s")]),
    ("LamR", ps("r |- (\\a:O. a \\/ a) p, s"), LamR(), [ps("r |- p \\/ p, s")]),
    ("MuL", ps("(mu X:N->O. \\x:N. x = Z \\/ X x) (S Z) |- q"), MuL(),
     [ps("(\\x:N. x = Z \\/ (mu X:N->O. \\x:N. x = Z \\/ X x) x) (S Z) |- q")]),
    ("MuR", ps("|- (mu X:N->O. \\x:N. x = Z) Z, q"), MuR(),
     [ps("|- (\\x:N. x = Z) Z, q")]),
    ("MuR-self", ps("|- mu x:O. x"), MuR(), [ps("|- mu x:O. x")]),
    ("NuL", ps("(nu X:O. X \\/ p) |- q"), NuL(),
     [ps("(nu X:O. X \\/ p) \\/ p |- q")]),
    ("NuR", ps("|- (nu f:(O->O)->O. \\g:O->O. g (f g)) (mu x:O->O. \\a:O. a)"), NuR(),
     [ps("|- (\\g:O->O. g ((nu f:(O->O)->O. \\g:O->O. g (f g)) g)) (mu x:O->O. \\a:O. a)")]),
    ("Nat", ps("|- Z = t"), Nat("t"),
     [Sequent((nat_member("t"),), (pe("Z = t"),))]),
    ("P1", ps("S Z = Z |-"), P1(), []),
    ("P1-var", ps("S (S x) = Z |-"), P1(), []),
    ("P2", ps("r, S x = S Z |- q"), P2(), [ps("r, x = Z |- q")]),
]


class TestRuleSchemas:
    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             FIXTURES, ids=[f[0] for f in FIXTURES])
    def test_accepts_exact_premises(self, label, conclusion, rule, premises):
        check_rule(conclusion, rule, premises)

    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             FIXTURES, ids=[f[0] for f in FIXTURES])
    def test_rejects_extra_premise(self, label, conclusion, rule, premises):
        with pytest.raises(SchemaMismatch):
            check_rule(conclusion, rule, premises + [ps("p |- p")])

    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             [f for f in FIXTURES if f[3]],
                             ids=[f[0] for f in FIXTURES if f[3]])
    def test_rejects_missing_premise(self, label, conclusion, rule, premises):
        with pytest.raises(SchemaMismatch):
            check_rule(conclusion, rule, premises[:-1])

    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             [f for f in FIXTURES if f[3]],
                             ids=[f[0] for f in FIXTURES if f[3]])
    def test_rejects_mutated_premise(self, label, conclusion, rule, premises):
        changed = list(premises)
        seq = changed[0]
        mutant = Sequent(seq.left + (pe("mu q_unlikely:O. q_unlikely"),), seq.right)
        changed[0] = mutant
        with pytest.raises(SchemaMismatch):
            check_rule(conclusion, rule, changed)

    def test_premise_order_matters(self):
        conclusion = ps("r, p \\/ q |- s")
        with pytest.raises(SchemaMismatch):
            check_rule(conclusion, OrL(), [ps("r, q |- s"), ps("r, p |- s")])

    def test_axiom_shape(self):
        with pytest.raises(SchemaMismatch):
            check_rule(ps("p |- q"), Axiom(), [])
        with pytest.raises(SchemaMismatch):
            check_rule(ps("p, p |- p"), Axiom(), [])

    def test_axiom_up_to_alpha(self):
        check_rule(ps("mu a:O. a |- mu b:O. b"), Axiom(), [])

    def test_premises_compared_up_to_alpha(self):
        check_rule(ps("r, p \\/ mu a:O. a |- s"), OrL(),
                   [ps("r, p |- s"), ps("r, mu b:O. b |- s")])

    def test_p2_swapped_terms_rejected(self):
        with pytest.raises(SchemaMismatch):
            check_rule(ps("r, S x = S Z |- q"), P2(), [ps("r, Z = x |- q")])

    def test_p1_requires_exact_shape(self):
        for bad in ("S x = Z, p |-", "S x = Z |- q", "Z = S x |-", "x = Z |-"):
            with pytest.raises(SchemaMismatch):
                check_rule(ps(bad), P1(), [])

    def test_wrong_fixpoint_kind_rejected(self):
        with pytest.raises(SchemaMismatch):
            check_rule(ps("|- mu x:O. x"), NuR(), [ps("|- mu x:O. x")])
        with pytest.raises(SchemaMismatch):
            check_rule(ps("nu x:O. x |- p"), MuL(), [ps("nu x:O. x |- p")])

    def test_head_step_schema_wording(self):
        with pytest.raises(SchemaMismatch) as err:
            check_rule(ps("|- p \\/ q"), LamR(), [ps("|- p \\/ q")])
        assert str(err.value) == "conclusion: expected (\\x. phi) psi psi_vec, found p \\/ q"
        with pytest.raises(SchemaMismatch) as err:
            check_rule(ps("|- (mu x:O -> O. x) p"), NuR(), [ps("|- (mu x:O -> O. x) p")])
        assert str(err.value) == ("conclusion: expected (nu x. phi) psi_vec, "
                                  "found (mu x:O -> O. x) p")

    def test_laml_requires_redex(self):
        with pytest.raises(SchemaMismatch):
            check_rule(ps("p \\/ q |- r"), LamL(), [ps("p |- r")])
        # a bare lambda with no argument is not a head redex
        with pytest.raises(SchemaMismatch):
            check_rule(sequent([pe("p")], []), LamL(), [sequent([pe("p")], [])])

    def test_exchange_position_bounds(self):
        with pytest.raises(SchemaMismatch):
            check_rule(ps("p |- q"), ExL(0), [ps("p |- q")])
        with pytest.raises(SchemaMismatch):
            check_rule(ps("p, q |- r"), ExL(1), [ps("q, p |- r")])

    def test_subst_must_reach_conclusion(self):
        rule = Subst(ps("p x |- x = x"), (("x", pe("Z")),))
        with pytest.raises(SchemaMismatch):
            check_rule(ps("p (S Z) |- S Z = S Z"), rule, [ps("p x |- x = x")])

    def test_mono_premise_count_follows_occurrences(self):
        # no occurrences: zero premises
        rule = Mono(pe("p"), "w", pe("x"), pe("y"), ())
        check_rule(ps("p |- p"), rule, [])
        # three occurrences: three premises
        rule3 = Mono(pe("w \\/ (w /\\ w)"), "w", pe("x"), pe("y"), ())
        prem = ps("x |- y")
        check_rule(ps("x \\/ (x /\\ x) |- y \\/ (y /\\ y)"), rule3, [prem, prem, prem])
        with pytest.raises(SchemaMismatch):
            check_rule(ps("x \\/ (x /\\ x) |- y \\/ (y /\\ y)"), rule3, [prem, prem])

    def test_mono_freshness_side_condition(self):
        rule = Mono(pe("w (S Z)"), "w", pe("\\n:N. n = Z"), pe("\\n:N. n = n"), ("t",))
        conclusion = ps("q t, (\\n:N. n = Z) (S Z) |- (\\n:N. n = n) (S Z)")
        with pytest.raises(SideConditionViolated):
            check_rule(conclusion, rule,
                       [ps("q t, (\\n:N. n = Z) t |- (\\n:N. n = n) t")])

    def test_mono_duplicate_names_rejected(self):
        rule = Mono(pe("w Z Z"), "w", pe("p"), pe("q"), ("u", "u"))
        with pytest.raises(SideConditionViolated):
            rule.premises_of(ps("p Z Z |- q Z Z"))

    def test_eql_distinct_holes_required(self):
        rule = EqL("h", "h", pe("Z"), pe("t"), (), ())
        with pytest.raises(SideConditionViolated):
            rule.premises_of(ps("Z = t |-"))

    def test_eql_terms_only(self):
        rule = EqL("h1", "h2", pe("Z = Z"), pe("t"), (), ())
        with pytest.raises(SideConditionViolated):
            rule.premises_of(ps("Z = t |-"))

    @pytest.mark.parametrize("rule,conclusion,message", [
        (WkL(), "|- p", "expected Gamma, phi |-, found |- p"),
        (WkR(), "p |-", "expected |- phi, Delta, found p |-"),
        (ExR(1), "|- p, q", "expected at least 3 right formulas, found |- p, q"),
        (Mono(pe("w"), "w", pe("p"), pe("q"), ()), "r |- q", "expected p, found r"),
        (Mono(pe("w"), "w", pe("p"), pe("q"), ()), "p |- r", "expected q, found r"),
        (EqL("h1", "h2", pe("Z"), pe("x"), (pe("p h1"),), ()), "q Z, Z = x |-",
         "expected p Z, Z = x |-, found q Z, Z = x |-"),
        (EqR(), "|- x = y", "expected t = t, found x = y"),
        (OrL(), "p /\\ q |-", "expected phi \\/ psi, found p /\\ q"),
        (AndL(), "p \\/ q |-", "expected phi /\\ psi, found p \\/ q"),
        (AndR(), "|- p \\/ q", "expected phi /\\ psi, found p \\/ q"),
        (P2(), "x = S y |-", "expected S s = S t, found x = S y"),
    ], ids=["WkL", "WkR", "ExR", "Mono-left", "Mono-right", "EqL", "EqR", "OrL", "AndL",
            "AndR", "P2"])
    def test_a_wrong_conclusion_is_rejected(self, rule, conclusion, message):
        with pytest.raises(SchemaMismatch) as err:
            rule.premises_of(ps(conclusion))
        assert err.value.premise_index is None
        assert str(err.value) == f"conclusion: {message}"

    def test_a_rule_without_parameters_is_a_frozen_value(self):
        for rule in (NuR(), Axiom()):
            with pytest.raises(FrozenInstanceError):
                rule.pos = 0
            with pytest.raises(FrozenInstanceError):
                del rule.tag
            assert rule == type(rule)() and hash(rule) == hash(type(rule)())
        assert NuR() != MuR()
        assert repr(NuR()) == "NuR()"


def _ancestors(conclusion, rule, branch):
    """Each premise position's conclusion position (None when fresh), read
    from ``rule.sources``."""
    left, right = rule.sources(conclusion, rule.inference(conclusion), branch)
    return {(side, i): None if source is None else source[0]
            for side, row in ((LEFT, left), (RIGHT, right))
            for i, source in enumerate(row)}


class TestOccurrenceMaps:
    """Rule.sources: where each premise formula comes from."""

    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             [f for f in FIXTURES if f[3]],
                             ids=[f[0] for f in FIXTURES if f[3]])
    def test_total_on_premise_positions(self, label, conclusion, rule, premises):
        for k, prem in enumerate(premises):
            left, right = rule.sources(conclusion, rule.inference(conclusion), k)
            assert len(left) == len(prem.left) and len(right) == len(prem.right)
            for source in left + right:
                if source is None:
                    continue
                (side, j), _ = source
                pool = conclusion.left if side == LEFT else conclusion.right
                assert 0 <= j < len(pool)

    def test_andl_principal(self):
        conclusion = ps("r, p /\\ q |- s")
        left, _ = AndL().sources(conclusion, AndL().inference(conclusion), 0)
        # both conjuncts descend from p /\ q, as its two subformulas
        assert left == (((LEFT, 0), ()), ((LEFT, 1), (0,)), ((LEFT, 1), (1,)))

    def test_orr_principal(self):
        conclusion = ps("r |- p \\/ q, s")
        _, right = OrR().sources(conclusion, OrR().inference(conclusion), 0)
        assert right == (((RIGHT, 0), (0,)), ((RIGHT, 0), (1,)), ((RIGHT, 1), ()))

    def test_cut_formula_is_fresh(self):
        occ0 = _ancestors(ps("p |- q"), Cut(pe("r")), 0)
        occ1 = _ancestors(ps("p |- q"), Cut(pe("r")), 1)
        assert occ0[(RIGHT, 0)] is None
        assert occ0[(RIGHT, 1)] == (RIGHT, 0)
        assert occ1[(LEFT, 1)] is None

    def test_weakened_formula_has_no_preimage(self):
        occ = _ancestors(ps("p, q |- r"), WkL(), 0)
        assert (LEFT, 1) not in occ.values()
        occ = _ancestors(ps("p |- q, r"), WkR(), 0)
        assert (RIGHT, 0) not in occ.values()

    def test_contraction_merges_copies(self):
        occ = _ancestors(ps("p, q |- r"), CtrL(), 0)
        assert occ[(LEFT, 1)] == (LEFT, 1) and occ[(LEFT, 2)] == (LEFT, 1)
        occ = _ancestors(ps("p |- q, r"), CtrR(), 0)
        assert occ[(RIGHT, 0)] == (RIGHT, 0) and occ[(RIGHT, 1)] == (RIGHT, 0)

    def test_exchange_swaps(self):
        occ = _ancestors(ps("p, q, r |- s"), ExL(0), 0)
        assert occ[(LEFT, 0)] == (LEFT, 1)
        assert occ[(LEFT, 1)] == (LEFT, 0)
        assert occ[(LEFT, 2)] == (LEFT, 2)

    def test_nat_premise_formula_is_fresh(self):
        occ = _ancestors(ps("|- Z = t"), Nat("t"), 0)
        assert occ[(LEFT, 0)] is None

    def test_eql_equation_unmapped(self):
        rule = EqL("h1", "h2", pe("S Z"), pe("t"), (pe("p h1"),), (pe("q h1"),))
        occ = _ancestors(ps("p (S Z), S Z = t |- q (S Z)"), rule, 0)
        assert (LEFT, 1) not in occ.values()
        assert occ[(LEFT, 0)] == (LEFT, 0)

    def test_premise_index_out_of_range(self):
        with pytest.raises(KernelError, match="premise index 0 out of range for Axiom"):
            occurrence_steps(ps("p |- p"), Axiom(), 0)
        with pytest.raises(KernelError, match="premise index 2 out of range for OrL"):
            occurrence_steps(ps("p \\/ q |- r"), OrL(), 2)


class TestLocalSoundness:
    # For closed, bounded-evaluable instances: premises all valid => conclusion valid.
    SOUND_CASES = [
        ("OrL", ps("(Z = Z) \\/ (S Z = Z) |- Z = Z"), OrL()),
        ("AndR", ps("|- (Z = Z) /\\ (S Z = S Z)"), AndR()),
        ("Cut", ps("|- S Z = S Z"), Cut(pe("Z = Z"))),
        ("P2", ps("S Z = S (S Z) |-"), P2()),
        ("EqL", ps("Z = Z, Z = S Z |-"),
         EqL("h1", "h2", pe("Z"), pe("S Z"), (pe("h1 = Z"),), ())),
        ("MuL", ps("(mu X:N->O. \\x:N. X x) Z |- Z = S Z"), MuL()),
        ("Nat", ps("|- (mu Y:N->N->O. \\n:N. \\m:N. (n = m) \\/ Y (S n) m) Z t"),
         Nat("t")),
        ("MuR", ps("|- (mu X:N->O. \\x:N. x = Z) Z"), MuR()),
    ]

    @pytest.mark.parametrize("label,conclusion,rule",
                             SOUND_CASES, ids=[c[0] for c in SOUND_CASES])
    def test_valid_premises_give_valid_conclusion(self, label, conclusion, rule):
        dom = BoundedDomain(5)
        premises = rule.premises_of(conclusion)
        for prem in premises:
            assert isinstance(check_validity_bounded(prem, dom), Valid), sequent_to_str(prem)
        assert isinstance(check_validity_bounded(conclusion, dom), Valid)

    def test_mono_soundness(self):
        dom = BoundedDomain(4)
        conclusion = ps("x \\/ mu z:O. x \\/ z |- (x \\/ y) \\/ mu z:O. (x \\/ y) \\/ z")
        rule = Mono(pe("w \\/ mu z:O. w \\/ z"), "w", pe("x"), pe("x \\/ y"), ())
        for prem in rule.premises_of(conclusion):
            assert isinstance(check_validity_bounded(prem, dom), Valid)
        assert isinstance(check_validity_bounded(conclusion, dom), Valid)


def loop_proof() -> PreProof:
    return load_preproof(CORPUS / "higher_order_loop.hflp")


def unrolled_loop(laps: int) -> PreProof:
    """The corpus loop unrolled ``laps`` times: every lap has the first
    lap's four sequent objects and rules, then one back edge to the root."""
    lap = [loop_proof().node(f"n{i}") for i in range(4)]
    tree = DerivTree(f"m{4 * laps}", lap[0].seq, None)
    for k in reversed(range(4 * laps)):
        tree = DerivTree(f"m{k}", lap[k % 4].seq, lap[k % 4].rule, (tree,))
    return PreProof(tree, {f"m{4 * laps}": "m0"})


def built_loop(laps: int, fix: str = "nu") -> PreProof:
    """The corpus loop unrolled ``laps`` times, with ``nu f`` read as
    ``fix f``, built as generated proofs are: each premise is computed by
    ``Rule.premises_of``, and equal premises are one object because
    sequents are interned when they are built."""
    seqs = [ps(sequent_to_str(loop_proof().tree.seq).replace("nu f", f"{fix} f"))]
    rules = [NuR() if fix == "nu" else MuR(), LamR(), MuR(), LamR()] * laps
    for rule in rules:
        (premise,) = rule.premises_of(seqs[-1])
        seqs.append(premise)
    assert len({id(seq) for seq in seqs}) == 4 < len(seqs)
    tree = DerivTree(f"m{len(rules)}", seqs[-1], None)
    for k in reversed(range(len(rules))):
        tree = DerivTree(f"m{k}", seqs[k], rules[k], (tree,))
    return PreProof(tree, {f"m{len(rules)}": "m0"})


def string_table(pp: PreProof) -> str:
    """``pp`` in the table shape that writes each sequent and rule formula as
    a quoted string, with no type or formula table; the reader still reads
    it."""
    seqs, rules, table, lines = {}, {}, [], []
    for node in pp.tree.walk():
        if node.seq not in seqs:
            seqs[node.seq] = f"s{len(seqs)}"
            table.append(f"(seq {seqs[node.seq]} {proofio._quote(sequent_to_str(node.seq))})")
        if node.rule is None:
            lines.append(f"(node {node.id} {seqs[node.seq]} open)")
            continue
        if node.rule not in rules:
            rules[node.rule] = f"r{len(rules)}"
            table.append(proofio._write_form(["rule", rules[node.rule], *rule_to_form(node.rule)]))
        lines.append(" ".join(["(node", node.id, seqs[node.seq], rules[node.rule],
                               *[c.id for c in node.children]]) + ")")
    lines += [f"(back {leaf} {target})" for leaf, target in sorted(pp.back_edges.items())]
    return "\n".join(table + lines) + "\n"


def formula_nodes(seqs) -> set:
    """The distinct formula nodes of ``seqs``."""
    seen, todo = set(), [f for seq in seqs for f in seq.left + seq.right]
    while todo:
        e = todo.pop()
        if e not in seen:
            seen.add(e)
            todo += children(e)
    return seen


class TestPreProofs:
    def test_golden_loop_proof_validates(self):
        assert validate_preproof(loop_proof()) == []

    def test_a_deep_argument_of_a_free_predicate_is_accepted(self):
        # as deep as |- N = N, which types the numeral in a loop
        n = sys.getrecursionlimit() - 5
        seq = Sequent((App(Var("p"), numeral(n)),), (App(Var("p"), numeral(n)),))
        assert validate_preproof(PreProof(DerivTree("r", seq, Axiom()))) == []

    def test_successors(self):
        pp = loop_proof()
        assert successors(pp, "n0") == ("n1",)
        assert successors(pp, "n3") == ("n4",)
        assert successors(pp, "n4") == ("n0",)  # open leaf follows its back edge

    def test_editing_the_back_edge_dict_afterwards_changes_nothing(self):
        back = {"n4": "n0"}
        pp = PreProof(loop_proof().tree, back)
        assert successors(pp, "n4") == ("n0",)  # the index is built here
        back["n4"] = "n1"
        back["n2"] = "n0"
        assert pp.back_edges == {"n4": "n0"}
        assert successors(pp, "n4") == ("n0",) and successors(pp, "n2") == ("n3",)
        assert validate_preproof(pp) == []
        del back["n4"]
        assert validate_preproof(pp) == [] and successors(pp, "n4") == ("n0",)

    def test_open_leaf_without_back_edge_has_no_successors(self):
        pp = PreProof(loop_proof().tree, {})
        with pytest.raises(KernelError, match="open leaf 'n4' has no back edge"):
            successors(pp, "n4")

    def test_axiom_node_has_no_successors(self):
        leaf = DerivTree("a0", ps("p |- p"), Axiom(), ())
        pp = PreProof(leaf, {})
        assert validate_preproof(pp) == []
        assert successors(pp, "a0") == ()

    def test_binary_rule_children_in_order(self):
        k0 = DerivTree("k0", ps("r, p |- s"), None)
        k1 = DerivTree("k1", ps("r, q |- s"), None)
        root = DerivTree("root", ps("r, p \\/ q |- s"), OrL(), (k0, k1))
        pp = PreProof(root, {"k0": "root", "k1": "root"})
        assert successors(pp, "root") == ("k0", "k1")

    def test_missing_back_edge_reported(self):
        pp = PreProof(loop_proof().tree, {})
        issues = validate_preproof(pp)
        assert any("without back edge" in str(i) for i in issues)

    def test_open_leaves_without_back_edges_are_listed_in_preorder(self):
        # in tree order, not in the hash order of their ids
        k1 = DerivTree("k1", ps("r, p |- s"), None)
        k0 = DerivTree("k0", ps("r, q |- s"), None)
        root = DerivTree("root", ps("r, p \\/ q |- s"), OrL(), (k1, k0))
        issues = validate_preproof(PreProof(root, {}))
        assert [str(i) for i in issues] == ["k1: open leaf without back edge",
                                            "k0: open leaf without back edge"]

    def test_back_edge_to_leaf_rejected(self):
        tree = loop_proof().tree
        issues = validate_preproof(PreProof(tree, {"n4": "n4"}))
        assert any("is a leaf" in str(i) for i in issues)

    def test_back_edge_to_missing_node(self):
        tree = loop_proof().tree
        issues = validate_preproof(PreProof(tree, {"n4": "nowhere"}))
        assert any("does not exist" in str(i) for i in issues)

    def test_back_edge_sequent_mismatch(self):
        pp = loop_proof()
        issues = validate_preproof(PreProof(pp.tree, {"n4": "n1"}))
        assert any("sequent differs" in str(i) for i in issues)

    def test_back_edge_source_must_be_open(self):
        pp = loop_proof()
        issues = validate_preproof(PreProof(pp.tree, dict(pp.back_edges, n1="n0")))
        assert any("not an open leaf" in str(i) for i in issues)

    def test_bad_inference_located(self):
        kid = DerivTree("kid", ps("p |- r"), None)
        root = DerivTree("root", ps("p, q |- r"), CtrL(), (kid,))
        issues = validate_preproof(PreProof(root, {"kid": "root"}))
        assert any(i.node == "root" and "CtrL" in i.message for i in issues)

    def test_ill_typed_sequent_reported(self):
        # x used both as a natural and as a proposition
        bad = DerivTree("b0", ps("x = Z, x |- x"), None)
        issues = validate_preproof(PreProof(bad, {}))
        assert any("ill-typed" in i.message for i in issues)

    def test_duplicate_ids_rejected(self):
        k = DerivTree("dup", ps("p |- r"), None)
        root = DerivTree("dup", ps("p, q |- r"), WkL(), (k,))
        issues = validate_preproof(PreProof(root, {}))
        assert any("duplicate" in i.message for i in issues)

    def test_an_open_leaf_has_no_inference(self):
        pp = loop_proof()
        with pytest.raises(KernelError, match="node 'n4' is an open leaf"):
            pp.inference("n4")

    def test_an_open_leaf_with_children_is_reported(self):
        kid = DerivTree("kid", ps("p |- p"), Axiom())
        root = DerivTree("root", ps("p |- p"), None, (kid,))
        issues = validate_preproof(PreProof(root, {}))
        assert [str(i) for i in issues] == ["root: open leaf with children",
                                            "root: open leaf without back edge"]

    def test_all_issues_listed(self):
        k0 = DerivTree("k0", ps("p |- s"), None)
        k1 = DerivTree("k1", ps("r, q, q |- s"), None)
        root = DerivTree("root", ps("r, p \\/ q |- s"), OrL(), (k0, k1))
        issues = validate_preproof(PreProof(root, {"k0": "root"}))
        assert len(issues) >= 2  # bad inference and missing back edge


class TestSharing:
    """Sequents and rules are interned, so a pre-proof has one object per
    distinct sequent, loaded or built in memory, and each sequent's work is
    done once; every failing node is still reported."""

    @pytest.mark.parametrize("fix", ["nu", "mu"])
    def test_equal_sequents_built_in_memory_share_one_object(self, fix):
        pp = built_loop(3, fix)
        assert len(pp.nodes) == 13
        assert len({id(n.seq) for n in pp.tree.walk()}) == 4
        assert pp.node("m12").seq is pp.node("m8").seq is pp.tree.seq
        assert dumps_preproof(pp) == dumps_preproof(loads_preproof(dumps_preproof(pp)))

    def test_a_shared_tree_is_kept_as_it_is(self):
        pp = built_loop(3)
        assert PreProof(pp.tree, pp.back_edges).tree is pp.tree
        loaded = loads_preproof(dumps_preproof(pp))
        assert PreProof(loaded.tree, loaded.back_edges).tree is loaded.tree

    def test_a_rebuilt_tree_keeps_ids_rules_and_order(self):
        seq = ps("|- p, q")
        tree = DerivTree("r", seq, Cut(pe("q")), (
            DerivTree("a", ps("|- p, q"), None), DerivTree("k", ps("|- q"), None)))
        pp = PreProof(tree)
        assert pp.tree is tree and pp.node("a").seq is pp.tree.seq is seq
        assert [(n.id, n.rule, n.seq) for n in pp.tree.walk()] == [
            (n.id, n.rule, n.seq) for n in tree.walk()]

    @pytest.mark.parametrize("text,other", [
        ("|- 3 = 3", Sequent((), (Eq(Var("3"), Var("3")),))),  # prints alike
        ("|- nu t:O. t", ps("|- nu s:O. s")),  # alpha-equivalent
        ("p |- q", ps("p, q |-")),
    ], ids=["variable-numeral", "bound-names", "sides"])
    def test_distinct_values_stay_apart(self, text, other):
        seq = ps(text)
        tree = DerivTree("r", seq, WkR(), (DerivTree("a", other, None),
                                          DerivTree("b", ps(text), None)))
        pp = PreProof(tree)
        assert pp.node("a").seq is other and pp.node("b").seq is seq
        assert pp.node("a").seq != seq

    def test_a_deep_numeral_is_shared_without_recursion(self):
        # 600 = 600 is 600 levels deep; interned nodes compare and hash by
        # identity, so sharing its sequent walks none of them
        def deep():
            return Eq(numeral(600), numeral(600))
        seq = Sequent((), (deep(), deep()))
        tree = DerivTree("r", seq, ExR(0), (DerivTree("c", Sequent((), (deep(), deep())), EqR()),))
        pp = PreProof(tree)
        assert pp.node("c").seq is pp.tree.seq
        assert validate_preproof(pp) == []

    def test_each_distinct_sequent_built_in_memory_is_typed_once(self, monkeypatch):
        pp = built_loop(3)
        typed = []
        real_check = kernel.check_sequent
        monkeypatch.setattr(kernel, "check_sequent",
                            lambda seq: typed.append(seq) or real_check(seq))
        assert validate_preproof(pp) == []
        assert len(typed) == len({id(seq) for seq in typed}) == 4

    def test_equal_sequent_texts_load_to_one_object(self):
        pp = loop_proof()
        assert pp.node("n0").seq is pp.node("n4").seq
        assert pp.node("n0").seq is not pp.node("n1").seq
        again = loads_preproof(dumps_preproof(unrolled_loop(3)))
        assert len(again.nodes) == 13
        assert len({id(n.seq) for n in again.tree.walk()}) == 4

    def test_each_distinct_sequent_is_parsed_and_typed_once(self, monkeypatch):
        text = string_table(unrolled_loop(3))
        parsed, typed = [], []
        real_parse, real_check = proofio.parse_sequent, kernel.check_sequent
        monkeypatch.setattr(proofio, "parse_sequent",
                            lambda t: parsed.append(t) or real_parse(t))
        monkeypatch.setattr(kernel, "check_sequent",
                            lambda seq: typed.append(seq) or real_check(seq))
        pp = loads_preproof(text)
        assert validate_preproof(pp) == []
        assert len(parsed) == len(set(parsed)) == 4
        assert len(typed) == len({id(seq) for seq in typed}) == 4

    def test_each_formula_entry_is_built_once(self, monkeypatch):
        # the loop's four sequents hold 17 distinct formula nodes; the
        # tables build each once and parse nothing
        pp = unrolled_loop(3)
        text = dumps_preproof(pp)
        built = []
        real = proofio._formula_entry
        monkeypatch.setattr(proofio, "_formula_entry",
                            lambda form, *tables: built.append(form[1]) or real(form, *tables))
        monkeypatch.setattr(proofio, "parse_sequent", None)
        monkeypatch.setattr(proofio, "parse_expr", None)
        again = loads_preproof(text)
        assert len(built) == len(set(built)) == len(formula_nodes(
            {n.seq for n in pp.tree.walk()})) == 17
        assert [n.seq for n in again.tree.walk()] == [n.seq for n in pp.tree.walk()]
        assert validate_preproof(again) == []

    def test_one_ill_typed_sequent_is_reported_at_each_node(self):
        # x used both as a natural and as a proposition, at two nodes
        seq = ps("x = Z, x |- x, x")
        tree = DerivTree("r", seq, ExR(0), (DerivTree("c", seq, None),))
        pp = loads_preproof(dumps_preproof(PreProof(tree, {"c": "r"})))
        assert pp.tree.seq is pp.node("c").seq
        issues = validate_preproof(pp)
        assert [i.node for i in issues] == ["r", "c"]
        assert all(i.message.startswith("ill-typed sequent: ") for i in issues)
        assert issues[0].message == issues[1].message

    @pytest.mark.parametrize("other_child,target", [("s \\/ s |- t", "r"), ("s |- t", "a")],
                             ids=["different", "same"])
    def test_one_conclusion_and_rule_is_compared_at_each_node(self, other_child, target):
        # a and b share conclusion and rule; each has a wrong child, which
        # may be the same one
        tree = DerivTree("r", ps("s \\/ s |- t"), OrL(), (
            DerivTree("a", ps("s |- t"), WkR(), (DerivTree("a1", ps("s |- t"), None),)),
            DerivTree("b", ps("s |- t"), WkR(), (DerivTree("b1", ps(other_child), None),))))
        pp = loads_preproof(dumps_preproof(PreProof(tree, {"a1": "a", "b1": target})))
        assert pp.node("a").seq is pp.node("b").seq
        assert pp.inference("a") is pp.inference("b")
        issues = validate_preproof(pp)
        assert [i.node for i in issues] == ["a", "b"]
        for issue, child in zip(issues, ["s |- t", other_child]):
            assert issue.message == f"WkR: premise 0: expected s |-, found {child}"

    def test_a_rule_that_fails_is_reported_at_each_node(self):
        seq = ps("s |- t")
        tree = DerivTree("r", ps("s \\/ s |- t"), OrL(), (
            DerivTree("a", seq, OrR(), (DerivTree("a1", seq, None),)),
            DerivTree("b", seq, OrR(), (DerivTree("b1", seq, None),))))
        pp = loads_preproof(dumps_preproof(PreProof(tree, {"a1": "a", "b1": "b"})))
        issues = validate_preproof(pp)
        assert [i.node for i in issues] == ["a", "b"]
        assert all(i.message.startswith("OrR: conclusion: expected") for i in issues)
        with pytest.raises(SchemaMismatch):
            pp.inference("a")

    @pytest.mark.parametrize("fix,count", [("nu", 3), ("mu", 2)])
    def test_equal_rules_share_one_object_built_and_loaded(self, fix, count):
        # built_loop makes each lap's two LamR apart, and the mu loop's two MuR
        pp = built_loop(3, fix)
        loaded = loads_preproof(dumps_preproof(pp))
        for proof in (pp, loaded):
            closed = [n for n in proof.tree.walk() if not n.is_open()]
            assert len(closed) == 12
            assert len({id(n.rule) for n in closed}) == count
        assert PreProof(loaded.tree, loaded.back_edges).tree is loaded.tree

    @pytest.mark.parametrize("make_a,make_b", [
        (lambda: ExL(0), lambda: ExL(1)),
        (lambda: ExL(0), lambda: ExR(0)),
        (lambda: Nat("x"), lambda: Nat("y")),
        (lambda: Cut(Eq(Var("3"), Zero())), lambda: Cut(Eq(numeral(3), Zero()))),
        (lambda: EqL("h1", "h2", pe("x"), pe("y"), (pe("p h1"), pe("q h2")), ()),
         lambda: EqL("h1", "h2", pe("x"), pe("y"), (pe("p h1"),), (pe("q h2"),))),
        (lambda: Mono(pe("w"), "w", pe("p"), pe("q"), ("a", "b")),
         lambda: Mono(pe("w"), "w", pe("p"), pe("q"), ("ab",))),
        (lambda: Subst(ps("|- nu t:O. t"), ()), lambda: Subst(ps("|- nu s:O. s"), ())),
    ], ids=["position", "side", "name", "variable-numeral", "context-split",
            "fresh-names", "bound-names"])
    def test_distinct_rules_stay_apart_and_equal_ones_meet(self, make_a, make_b):
        # a chain of four |- p nodes, by a, b, then equal copies of a and b
        a, b = make_a(), make_b()
        tree = DerivTree("n4", ps("|- p"), None)
        for k, rule in reversed(list(enumerate([a, b, make_a(), make_b()]))):
            tree = DerivTree(f"n{k}", ps("|- p"), rule, (tree,))
        pp = PreProof(tree)
        assert [pp.node(f"n{k}").rule for k in range(4)] == [a, b, a, b]
        assert pp.node("n0").rule is pp.node("n2").rule is a
        assert pp.node("n1").rule is pp.node("n3").rule is b
        assert a != b

    @pytest.mark.parametrize("loaded", [False, True], ids=["in-memory", "loaded"])
    def test_equal_deep_rules_are_shared_without_recursion(self, loaded):
        # two |- p nodes whose Cut(600 = 600) rules are built apart; interning
        # makes them one object without a walk over the 600-level numerals
        def deep():
            return Eq(numeral(600), numeral(600))
        tree = DerivTree("l", ps("|- p"), None)
        for k in (1, 0):
            tree = DerivTree(f"c{k}", ps("|- p"), Cut(deep()), (
                DerivTree(f"e{k}", Sequent((), (deep(), pe("p"))), EqR()),
                DerivTree(f"w{k}", Sequent((deep(),), (pe("p"),)), WkL(), (tree,))))
        pp = PreProof(tree, {"l": "c0"})
        if loaded:
            pp = loads_preproof(dumps_preproof(pp))
        assert validate_preproof(pp) == []
        assert pp.node("c0").rule is pp.node("c1").rule
        assert pp.inference("c0") is pp.inference("c1")


class TestInterning:
    """Rules are one object per value, like the sequents they apply to."""

    @pytest.mark.parametrize("build", [
        WkR,
        lambda: Cut(Eq(numeral(600), numeral(600))),
        lambda: EqL("h1", "h2", pe("x"), pe("y"), (pe("p h1"),), ()),
        lambda: Subst(ps("|- nu t:O. t"), (("x", pe("S Z")),)),
    ], ids=["no-parameters", "deep-cut", "contexts", "source-and-mapping"])
    def test_equal_rules_are_one_object(self, build):
        assert build() is build()

    def test_distinct_rules_stay_apart(self):
        assert ExL(0) is not ExR(0) and ExL(0) != ExR(0)
        assert ExL(0) is not ExL(1)

    def test_a_rule_with_parameters_is_a_frozen_value(self):
        rule = Cut(pe("p"))
        with pytest.raises(FrozenInstanceError):
            rule.formula = pe("q")
        with pytest.raises(FrozenInstanceError):
            del rule.formula
        assert repr(rule) == "Cut(formula=Var(name='p'))"


class TestProofFiles:
    @pytest.mark.parametrize("label,conclusion,rule,premises",
                             [f for f in FIXTURES if f[1].left or f[1].right],
                             ids=[f[0] for f in FIXTURES if f[1].left or f[1].right])
    def test_rule_forms_round_trip(self, label, conclusion, rule, premises):
        form = rule_to_form(rule)
        back = rule_from_form(form, list(premises))
        assert back == rule

    def test_dump_load_stable(self):
        pp = loop_proof()
        text = dumps_preproof(pp)
        assert dumps_preproof(loads_preproof(text)) == text

    def test_a_long_chain_of_successors_loads_back(self):
        # printed S S ... x, without one parenthesis level per S
        chain = Var("x")
        for _ in range(200):
            chain = Succ(chain)
        pp = PreProof(DerivTree("n0", Sequent((), (Eq(chain, chain),)), EqR()))
        text = dumps_preproof(pp)
        assert "S (" not in text
        again = loads_preproof(text)
        assert again.tree.seq == pp.tree.seq
        assert dumps_preproof(again) == text

    @pytest.mark.parametrize("connective", [Or, And])
    def test_a_deep_right_nested_chain_loads_back(self, connective):
        # printed p \\/ (p \\/ (...)), one parenthesis level per connective
        chain = Var("x")
        for _ in range(200):
            chain = connective(Var("p"), chain)
        text = dumps_preproof(PreProof(DerivTree("n0", Sequent((), (chain,)), None), {}))
        assert dumps_preproof(loads_preproof(text)) == text

    def test_escapes_survive(self):
        leaf = DerivTree("z", ps("(\\a:O. a) p |- p"), None)
        text = dumps_preproof(PreProof(leaf, {}))
        again = loads_preproof(text)
        assert sequent_alpha_eq(again.tree.seq, leaf.seq)

    def test_string_escapes_round_trip(self):
        # \" and \\ unescape to the character; any other escaped character
        # stands for itself
        forms = proofio._read_forms(r'(a "x\"y\\z\q")')
        assert forms == [["a", 'x"y\\zq']]
        assert isinstance(forms[0][1], proofio.Quoted)
        again = proofio._write_form(forms[0])
        assert again == r'(a "x\"y\\zq")'
        assert proofio._read_forms(again) == forms

    def test_an_atom_may_hold_whitespace_that_separates_nothing(self):
        # a list of atoms is one token, cut apart by str.split, only where
        # that gives the same atoms as the grammar does
        text = "(a\u00a0b c\fd) (e \r\n f ()) ( ) (x\u2003y)"
        assert proofio._read_forms(text) == [["a\u00a0b", "c\fd"], ["e", "f", []], [],
                                             ["x\u2003y"]]

    def test_comments_and_whitespace(self):
        text = ('; a comment\n(node n0\n  (seq "p |- p")\n'
                '  (rule Axiom) (children))\n')
        pp = loads_preproof(text)
        assert pp.tree.rule == Axiom()

    @pytest.mark.parametrize("bad,hint", [
        ('(node n0 (seq "p |- p") (rule Bogus) (children))', "unknown rule"),
        ('(node n0 (seq "p |- p") (rule Axiom) (children))\n'
         '(node n0 (seq "q |- q") (rule Axiom) (children))', "duplicate node id"),
        ('(node n0 (seq "p |- p") (rule Axiom) (children))\n'
         '(node n1 (seq "q |- q") (rule Axiom) (children))', "exactly one root"),
        ('(node n0 (seq "p |- p") (rule WkL) (children n1))', "no (node ...) form"),
        ('(node n0 (seq "p |- p") (rule Axiom) (children)', "unbalanced"),
        ('(node n0 (seq "p |- p) (rule Axiom) (children))', "unterminated"),
        ('(node n0\n  (seq "p |- p) (rule Axiom) (children))\n',
         "line 2, column 8: unterminated string literal"),
        ('(node n0 (seq "p |- p") (rule Cut) (children))', "Cut takes one"),
        ('(node n0 (seq "p |- p") (rule ExL x) (children))', "position parameter"),
        ('(node n0 (seq "p |- p") (rule ExL ²) (children))', "position parameter"),
        # a context must be a list, not a string that starts alike
        ('(node n0 (seq "p |- p") (rule EqL a b "Z" "Z" "left" (right)))', "EqL takes"),
        ('(node n0 (seq "p |- p") (rule EqL a b "Z" "Z" (left) right))', "EqL takes"),
        ('(back n0)', "takes a leaf id"),
        ('(node n0 (seq "p |- p") open)\n(back n0 n0)\n(back n0 n1)',
         "duplicate (back ...) form for leaf 'n0'"),
        ('', "no (node ...)"),
        # positions: a stray ')' after a complete form
        ('(node n0 (seq "p |- p") (rule Axiom) (children))\n  )',
         "line 2, column 3: unbalanced ')'"),
        # an unterminated string after repeated equal (seq "...") strings
        ('(node n0 (seq "p |- p") (rule WkL) (children n1))\n'
         '(node n1 (seq "p |- p") (rule WkL) (children n2))\n'
         '(node n2 (seq "p |- p) (rule Axiom))\n',
         "line 3, column 15: unterminated string literal"),
        # a comment's quote and parenthesis are not tokens
        ('; a "comment (\n(node n0 (seq "p |- p") (rule Axiom) (children)))\n',
         "line 2, column 49: unbalanced ')'"),
        # CRLF line endings: a carriage return ends no line
        ('(node n0 (seq "p |- p") (rule Axiom)\r\n  (children))\r\n)\r\n',
         "line 3, column 1: unbalanced ')'"),
        ('(node n0\r\n  (seq "p |- p) (rule Axiom) (children))\r\n',
         "line 2, column 8: unterminated string literal"),
        # a string literal is no atom, though it equals one: n1 is built first
        ('(node n0 (seq "p |- p") (rule Nat "x") (children n1))\n'
         '(node n1 (seq "p |- p") (rule Nat x) (children))\n',
         "Nat variable must be a bare name"),
        # a detached two-node cycle below no root
        ('(node n0 (seq "p |- p") (rule Axiom))\n'
         '(node a (seq "p |- p") (rule WkL) (children b))\n'
         '(node b (seq "p |- p") (rule WkL) (children a))',
         "nodes not reachable from the root: ['a', 'b']"),
        ('(node n0 (seq "p |- p") (rule WkL) (children n1))\n'
         '(node n1 (seq "p |- p") (rule WkL) (children n2))\n'
         '(node n2 (seq "p |- p") (rule WkL) (children n1))',
         "node 'n1' is its own ancestor"),
        ('(nodes n0 (seq "p |- p") (rule Axiom))', "unknown top-level form 'nodes'"),
        ('node', "expected a (node ...) or (back ...) form, got 'node'"),
        ('(node n0)', "(node ...) needs an id and a (seq ...) entry"),
        ('(node n0 (seq p) (rule Axiom))', 'node n0: expected (seq "...")'),
        ('(node n0 (seq "p |- p") (children))', "node n0: expected (rule ...) or open"),
        ('(node n0 (seq "p |- p") (rule Axiom) (kids))', "node n0: expected (children ...)"),
        ('(node n0 (seq "p |- p") (rule))', "empty (rule) form"),
        ('(node n0 (seq "p |- p") (rule Subst (x "Z")))', "Subst requires exactly one child"),
        ('(node n0 (seq "p |- p") (rule Subst (x)) (children n1))\n'
         '(node n1 (seq "p |- p") open)', "Subst parameters are"),
        ('(node n0 (seq "p |- p") (rule Mono "p" w "p" "p"))', "Mono takes"),
        ('(node n0 (seq "p |- p") (rule Nat x y))', "Nat takes one variable parameter"),
        ('(node n0 (seq "p |- p") (rule Axiom x))', "Axiom takes no parameters"),
        ('(node n0 (seq "p |- p") (rule Cut p))', "Cut formula must be a quoted formula"),
        # the table forms
        ('(seq s0 "p |- p")\n(node n0 s1 open)', "node n0: unknown sequent name 's1'"),
        ('(seq s0 "p |- p")\n(rule r0 Axiom)\n(node n0 s0 r1)', "node n0: unknown rule name 'r1'"),
        # a name is defined above its first use, and a literal names nothing
        ('(node n0 s0 open)\n(seq s0 "p |- p")', "node n0: unknown sequent name 's0'"),
        ('(seq s0 "p |- p")\n(rule r0 Axiom)\n(node n0 s0 "r0")',
         "node n0: unknown rule name 'r0'"),
        ('(seq s0 "p |- p")\n(node n0 s0)', "node n0: expected a rule name or open"),
        ('(seq s0 "p |- p")\n(seq s0 "q |- q")', "duplicate sequent name 's0'"),
        ('(rule r0 Axiom)\n(rule r0 WkL)', "duplicate rule name 'r0'"),
        ('(seq s0 p)', "sequent s0: (seq s0 ...) takes one quoted sequent"),
        ('(seq s0)', "sequent s0: (seq s0 ...) takes one quoted sequent"),
        ('(seq s0 "p |- p" "q |- q")', "sequent s0: (seq s0 ...) takes one quoted sequent"),
        ('(seq "s0" "p |- p")', "sequent name must be a bare name"),
        ('(rule)', "rule name must be a bare name"),
        ('(seq s0 "p |- p")\n(rule r0)\n(node n0 s0 r0)', "empty (rule) form"),
        ('(seq s0 "p |- p")\n(rule r0)\n(node n0 s0 r0)', "node n0: rule r0: empty (rule) form"),
        ('(seq s0 "p |- p")\n(rule r0 Subst (x "Z"))\n(node n0 s0 r0)',
         "Subst requires exactly one child"),
        # a node reached twice from the root, though no node is its own ancestor
        ('(node n0 (seq "p |- p") (rule OrL) (children a b))\n'
         '(node a (seq "p |- p") (rule WkL) (children c))\n'
         '(node b (seq "p |- p") (rule WkL) (children c))\n'
         '(node c (seq "p |- p") open)', "node 'c' is listed as a child twice"),
        ('(node n0 (seq "p |- p") (rule OrL) (children a a))\n'
         '(node a (seq "p |- p") open)', "node 'a' is listed as a child twice"),
        # the type and formula tables: a name is defined once, above its use
        ('(form f0 Succ f1)\n(form f1 Zero)', "formula f0: unknown formula name 'f1'"),
        ('(form f0 Var x)\n(form f1 Lam x t0 f0)', "formula f1: unknown type name 't0'"),
        ('(type t0 t1 O)', "type t0: unknown type name 't1'"),
        ('(form f0 Zero)\n(seq s0 |- f1)', "sequent s0: unknown formula name 'f1'"),
        ('(rule r0 Cut f0)\n(form f0 Zero)', "rule r0: unknown formula name 'f0'"),
        ('(form f0 Succ "f0")', "formula f0: unknown formula name 'f0'"),
        ('(form f0 Zero)\n(form f0 Zero)', "duplicate formula name 'f0'"),
        ('(type t0 O O)\n(type t0 N O)', "duplicate type name 't0'"),
        ('(type O N O)', "duplicate type name 'O'"),
        ('(form f0 Zro)', "formula f0: unknown formula tag 'Zro'"),
        ('(form f0)', "formula f0: unknown formula tag None"),
        ('(form f0 Var x y)', "formula f0: Var takes name"),
        ('(form f0 Zero)\n(form f1 Or f0)', "formula f1: Or takes lhs rhs"),
        ('(form f0 Zero x)', "formula f0: Zero takes no fields"),
        ('(type t0 O)', "type t0: (type t0 ...) takes two type names"),
        ('(form f0 Var X)\n(form f1 Mu X N f0)',
         "formula f1: fixed-point binder cannot have type N"),
        ('(type t0 O N)', "type t0: arrow result must be a proposition type, not N"),
        ('(form f0 Var Z)', "formula f0: 'Z' is not a variable name of the formula grammar"),
        ('(form f0 Zero)\n(form f1 Nu mu O f0)',
         "formula f1: 'mu' is not a variable name of the formula grammar"),
        ('(form f0 Zero)\n(seq s0 f0 f0)', "sequent s0: (seq s0 ...) takes one quoted sequent, "
                                           "or formula names around one |-"),
        ('(form f0 Zero)\n(seq s0 f0 |- f0 |- f0)', "sequent s0: (seq s0 ...) takes one"),
        ('(form f0 Zero)\n(seq s0 f0 "|-" f0)', "sequent s0: (seq s0 ...) takes one"),
    ])
    def test_format_errors(self, bad, hint):
        with pytest.raises(ProofFormatError) as err:
            loads_preproof(bad)
        assert hint in str(err.value)

    def test_each_distinct_string_is_unescaped_once(self, monkeypatch):
        # five laps: 21 nodes over the loop's four sequent strings
        text = string_table(unrolled_loop(5))
        calls = []
        real = proofio._unquote
        monkeypatch.setattr(proofio, "_unquote", lambda tok: calls.append(tok) or real(tok))
        pp = loads_preproof(text)
        assert len(pp.nodes) == 21
        assert len(calls) == len(set(calls)) == 4
        assert len({id(n.seq) for n in pp.tree.walk()}) == 4

    def test_each_distinct_rule_form_is_built_once(self, monkeypatch):
        # five laps of the mu loop: 20 closed nodes over two rule forms,
        # built from the leaf up
        text = dumps_preproof(built_loop(5, "mu"))
        calls = []
        real = proofio.rule_from_form
        monkeypatch.setattr(proofio, "rule_from_form",
                            lambda parts, kids: calls.append(parts) or real(parts, kids))
        pp = loads_preproof(text)
        assert len(pp.nodes) == 21
        assert calls == [["LamR"], ["MuR"]]
        assert len({id(n.rule) for n in pp.tree.walk() if not n.is_open()}) == 2

    def test_a_dump_writes_each_distinct_sequent_once(self):
        pp = unrolled_loop(64)
        text = dumps_preproof(pp)
        assert len(text) < 10_000
        seqs = {n.seq for n in pp.tree.walk()}
        assert len(seqs) == 4
        assert text.count("(seq ") == len(seqs)
        assert text.count("(form ") == len(formula_nodes(seqs)) == 17
        assert '"' not in text
        assert text.count("(node ") == len(pp.nodes) == 257

    def test_shared_formulas_dump_linearly(self):
        # F_64 = F_63 \\/ F_63: 2**64 leaves as a tree, 65 distinct nodes
        f = Var("x")
        for _ in range(64):
            f = Or(f, f)
        pp = PreProof(DerivTree("n0", Sequent((f,), (f,)), Axiom()))
        text = dumps_preproof(pp)
        assert len(text) < 3_000
        again = loads_preproof(text)
        assert again.tree.seq is pp.tree.seq
        assert isinstance(check_cyclic_proof(again), Accepted)
        assert dumps_preproof(again) == text

    def test_an_inline_text_loads_and_dumps_to_tables(self):
        # the corpus file has no tables: each node writes its sequent and rule
        text = (CORPUS / "higher_order_loop.hflp").read_text(encoding="utf-8")
        assert "(seq s" not in text
        pp = loads_preproof(text)
        dumped = dumps_preproof(pp)
        assert dumped.count("(seq ") == 4 and dumped.count("(rule ") == 3
        again = loads_preproof(dumped)
        assert again == pp and dumps_preproof(again) == dumped
        assert repr(check_cyclic_proof(again)) == repr(check_cyclic_proof(pp)) == "Accepted()"

    def test_one_subst_form_is_built_once_per_child_sequent(self):
        text = (r'(node r (seq "p (S Z) \\/ p (S Z) |- S Z = S Z") (rule OrL) (children a b))'
                '\n(node a (seq "p (S Z) |- S Z = S Z") (rule Subst (x "S Z")) (children a1))'
                '\n(node a1 (seq "p x |- x = x") open)'
                '\n(node b (seq "p (S Z) |- S Z = S Z") (rule Subst (x "S Z")) (children b1))'
                '\n(node b1 (seq "p x |- S Z = x") open)\n')
        pp = loads_preproof(text)
        a, b = pp.node("a"), pp.node("b")
        assert a.rule.source is a.children[0].seq and b.rule.source is b.children[0].seq
        assert a.rule is not b.rule
        for node in (a, b):
            check_rule(node.seq, node.rule, [node.children[0].seq])

    def test_a_proof_over_a_deep_formula_loads_back_with_its_verdict(self):
        # F |- F by Axiom, F printed as p \\/ (p \\/ ...) 340 levels deep
        f = Var("p")
        for _ in range(340):
            f = Or(Var("p"), f)
        pp = PreProof(DerivTree("n0", Sequent((f,), (f,)), Axiom()))
        text = dumps_preproof(pp)
        again = loads_preproof(text)
        assert again.tree.seq is pp.tree.seq
        assert dumps_preproof(again) == text
        assert repr(check_cyclic_proof(again)) == repr(check_cyclic_proof(pp)) == "Accepted()"

    @pytest.mark.parametrize("name", ["Z", "S", "mu"])
    def test_a_sequent_that_would_load_back_as_another_is_not_dumped(self, name):
        # Var("Z") prints as Z, which reads back as Zero(); S and mu do not parse
        bad = Var(name)
        pp = PreProof(DerivTree("n0", Sequent((bad,), (bad,)), Axiom()))
        assert isinstance(check_cyclic_proof(pp), Accepted)
        with pytest.raises(ProofFormatError,
                           match=f"^node n0: '{name}' is not a variable name of the formula grammar$"):
            dumps_preproof(pp)

    def test_a_rule_formula_that_would_load_back_as_another_is_not_dumped(self):
        p, zero = Var("p"), Var("Z")
        leaves = (DerivTree("a", Sequent((p,), (p, zero)), None),
                  DerivTree("b", Sequent((p, zero), (p,)), None))
        pp = PreProof(DerivTree("r", Sequent((p,), (p,)), Cut(zero), leaves))
        with pytest.raises(ProofFormatError,
                           match="^node r: 'Z' is not a variable name of the formula grammar$"):
            dumps_preproof(pp)

    @pytest.mark.parametrize("build,message", [
        (lambda leaf: PreProof(DerivTree("a b", ps("|- p"), WkR(), (leaf,)), {"l": "a b"}),
         "^node id 'a b' is not a bare name$"),
        (lambda leaf: PreProof(DerivTree("r", ps("|-"), Nat("x y"), (leaf,)), {"l": "r"}),
         "^node r: Nat variable 'x y' is not a bare name$"),
    ], ids=["node_id", "nat_variable"])
    def test_a_name_that_is_not_one_atom_is_not_dumped(self, build, message):
        # written as it is, the name would load as two atoms or fail to load
        pp = build(DerivTree("l", ps("|-"), None))
        with pytest.raises(ProofFormatError, match=message):
            dumps_preproof(pp)

    @pytest.mark.parametrize("name", ["Z", "S", "mu", "nu"])
    def test_a_keyword_binds_no_variable_in_a_dump(self, name):
        bad = Lam(name, PROP, Var("p"))
        pp = PreProof(DerivTree("n0", Sequent((bad,), (bad,)), Axiom()))
        with pytest.raises(ProofFormatError,
                           match=f"^node n0: '{name}' is not a variable name of the formula grammar$"):
            dumps_preproof(pp)

    def test_a_subst_whose_source_is_not_its_child_sequent_is_not_dumped(self):
        # the loader takes the child's sequent as the source, so the text
        # would load as another proof
        rule = Subst(ps("p x |- x = x"), (("x", pe("S Z")),))
        leaf = DerivTree("a", ps("p x |- S Z = x"), None)
        pp = PreProof(DerivTree("r", ps("p (S Z) |- S Z = S Z"), rule, (leaf,)), {"a": "r"})
        assert len(validate_preproof(pp)) == 2
        with pytest.raises(ProofFormatError,
                           match="^node r: the Subst source is not the sequent of its one child$"):
            dumps_preproof(pp)

    def test_child_cycle_rejected(self):
        text = ('(node n0 (seq "p |- p") (rule WkL) (children n1))\n'
                '(node n1 (seq "p |- p") (rule WkL) (children n0))\n')
        with pytest.raises(ProofFormatError):
            loads_preproof(text)

    def test_subst_source_is_child_sequent(self):
        text = ('(node n0 (seq "p (S Z) |- S Z = S Z") (rule Subst (x "S Z")) (children n1))\n'
                '(node n1 (seq "p x |- x = x") open)\n'
                '(back n1 n0)\n')
        pp = loads_preproof(text)
        assert isinstance(pp.tree.rule, Subst)
        assert sequent_alpha_eq(pp.tree.rule.source, ps("p x |- x = x"))
        # the inference itself checks out
        check_rule(pp.tree.seq, pp.tree.rule, [pp.tree.children[0].seq])

    def test_registry_covers_all_tags(self):
        assert sorted(RULES) == [
            "AndL", "AndR", "Axiom", "CtrL", "CtrR", "Cut", "EqL", "EqR",
            "ExL", "ExR", "LamL", "LamR", "Mono", "MuL", "MuR", "Nat", "NuL",
            "NuR", "OrL", "OrR", "P1", "P2", "Subst", "WkL", "WkR",
        ]
        assert all(cls.tag == tag == cls.__name__ for tag, cls in RULES.items())
