"""Tests for the bounded-domain evaluator and validity oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from hflcyc.encodings import derived_encodings, forall_nat
from hflcyc.syntax import (
    And, App, Eq, HflError, Lam, Mu, Nu, Or, Succ, Var, Zero,
    FIXPOINTS, NAT, PROP, arrow, exists_nat,
    head_step, make_app, numeral, parse_expr, sequent,
)
from hflcyc.semantics import (
    BoundedDomain, DomainTooLarge, Invalid, NatOverflow, TableFun, Unknown,
    Valid, check_validity_bounded, iter_valuations, render_value,
)

ENC = derived_encodings()
# nu X. \x. X (S x): every approximant is top
NU_C = Nu("X", arrow(NAT, PROP), Lam("x", NAT, App(Var("X"), Succ(Var("x")))))
# nu X. \x. exists x'. x = S x' /\ X x': the a-th approximant is x >= a
NU_DESCENT = Nu("X", arrow(NAT, PROP), Lam("x", NAT, exists_nat(
    "x'", And(Eq(Var("x"), Succ(Var("x'"))), App(Var("X"), Var("x'"))))))


@pytest.fixture(scope="module")
def d8():
    return BoundedDomain(8)


@pytest.fixture(scope="module")
def d5():
    return BoundedDomain(5)


# ---------------------------------------------------------------------------
# pinned evaluator results
# ---------------------------------------------------------------------------


class TestPinnedEvaluations:
    def test_empty_mu_is_false(self, d8):
        assert d8.eval(Mu("x", PROP, Var("x"))) is False

    def test_empty_nu_is_true(self, d8):
        assert d8.eval(Nu("x", PROP, Var("x"))) is True

    def test_equality_under_valuation(self, d8):
        assert d8.eval(Eq(Var("n"), Var("n")), {"n": 3}) is True
        assert d8.eval(Eq(Var("n"), Zero()), {"n": 3}) is False

    def test_sum_two_three_five(self, d8):
        assert d8.eval(make_app(ENC["sum"], numeral(2), numeral(3), numeral(5))) is True

    def test_sum_two_three_six(self, d8):
        assert d8.eval(make_app(ENC["sum"], numeral(2), numeral(3), numeral(6))) is False

    def test_sum_grid_matches_arithmetic(self):
        d = BoundedDomain(6)
        for a in range(4):
            for b in range(4):
                for c in range(7):
                    got = d.eval(make_app(ENC["sum"], numeral(a), numeral(b), numeral(c)))
                    assert got == (a + b == c), (a, b, c)

    def test_leq_lt_neq_grids(self, d5):
        for a in range(6):
            for b in range(6):
                assert d5.eval(make_app(ENC["leq"], numeral(a), numeral(b))) == (a <= b)
                assert d5.eval(ENC["lt"](numeral(a), numeral(b))) == (a < b)
                assert d5.eval(ENC["neq"](numeral(a), numeral(b))) == (a != b)

    def test_nat_predicate_true_on_range(self, d8):
        for m in range(9):
            assert d8.eval(App(ENC["nat"], numeral(m))) is True

    def test_top_bot(self, d5):
        assert d5.eval(ENC["top"]) is True
        assert d5.eval(ENC["bot"]) is False

    def test_parsed_formula_evaluates(self, d5):
        phi = parse_expr("(mu X:N->O. \\x:N. (x = Z) \\/ X x) 0")
        assert d5.eval(phi) is True


# ---------------------------------------------------------------------------
# quantifier encodings range over {0..K}
# ---------------------------------------------------------------------------


class TestBoundedQuantifiers:
    def test_exists_within_bound(self, d8):
        assert d8.eval(exists_nat("x", Eq(Var("x"), numeral(3)))) is True
        assert d8.eval(exists_nat("x", Eq(Succ(Var("x")), numeral(3)))) is True

    def test_exists_beyond_bound_refuted(self, d8):
        # the truncated model quantifies over {0..8} only
        assert d8.eval(exists_nat("x", Eq(Var("x"), numeral(20)))) is False

    def test_forall_combinator_true_case(self, d5):
        pred = Lam("x", NAT, make_app(ENC["leq"], Zero(), Var("x")))
        assert d5.eval(make_app(ENC["forall"], pred, Zero())) is True

    def test_forall_combinator_false_case(self, d5):
        pred = Lam("x", NAT, make_app(ENC["leq"], Var("x"), numeral(3)))
        assert d5.eval(make_app(ENC["forall"], pred, Zero())) is False

    def test_forall_nat_encoding(self, d5):
        assert d5.eval(forall_nat("x", make_app(ENC["leq"], Zero(), Var("x")))) is True
        assert d5.eval(forall_nat("x", Eq(Var("x"), Var("x")))) is True
        assert d5.eval(forall_nat("x", Eq(Var("x"), Zero()))) is False

    def test_type_level_quantifiers(self, d5):
        assert d5.eval(ENC["exists_T"]("x", PROP, Var("x"))) is True
        assert d5.eval(ENC["forall_T"]("x", PROP, Var("x"))) is False

    def test_climbs_resolve_to_unit(self, d5):
        climb = Lam("x", NAT, App(Var("X"), Succ(Var("x"))))
        nu_c = Nu("X", arrow(NAT, PROP), climb)
        mu_c = Mu("X", arrow(NAT, PROP), climb)
        for start in (0, 3, 5):
            assert d5.eval(App(nu_c, numeral(start))) is True
            assert d5.eval(App(mu_c, numeral(start))) is False

    def test_fixpoint_applied_beyond_bound_gives_unit(self, d5):
        climb = Lam("x", NAT, App(Var("X"), Var("x")))
        assert d5.eval(App(Nu("X", arrow(NAT, PROP), climb), numeral(6))) is True
        assert d5.eval(App(Mu("X", arrow(NAT, PROP), climb), numeral(6))) is False

    @given(k=st.integers(min_value=1, max_value=6), m=st.integers(min_value=0, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_exists_eq_literal_iff_in_range(self, k, m):
        d = BoundedDomain(k)
        assert d.eval(exists_nat("x", Eq(Var("x"), numeral(m)))) == (m <= k)


# ---------------------------------------------------------------------------
# fixed-point structure: unfolding, approximants, convergence
# ---------------------------------------------------------------------------


class TestFixpoints:
    @pytest.mark.parametrize("phi,args", [
        ("nat", (numeral(2),)),
        ("leq", (numeral(1), numeral(3))),
        ("leq", (numeral(4), numeral(2))),
        ("sum", (numeral(2), numeral(2), numeral(4))),
        ("sum", (numeral(2), numeral(2), numeral(5))),
    ])
    def test_unfold_invariance(self, d5, phi, args):
        closed = ENC[phi]
        unfolded = head_step(closed, FIXPOINTS).result
        assert d5.eval(make_app(unfolded, *args)) == d5.eval(make_app(closed, *args))

    def test_least_alpha_is_successor_of_value(self, d5):
        # (mu N. \x. x=Z \/ exists x'. x=Sx' /\ N x')^alpha holds at m
        # exactly when alpha >= m+1
        for m in range(4):
            for alpha in range(7):
                got = d5.eval(App(ENC["nat"], numeral(m)), alphas={(0,): alpha})
                assert got == (alpha >= m + 1), (m, alpha)

    def test_alpha_zero_is_unit(self, d5):
        assert d5.eval(App(ENC["nat"], numeral(0)), alphas={(0,): 0}) is False
        assert d5.eval(App(NU_C, Zero()), alphas={(0,): 0}) is True

    def test_approximant_at_height_equals_eval(self):
        d = BoundedDomain(4)
        h = d.height(arrow(NAT, PROP))
        for m in range(5):
            e = App(ENC["nat"], numeral(m))
            assert d.eval(e, alphas={(0,): h}) == d.eval(e)

    def test_iteration_stabilizes_past_height(self):
        # Kleene: once the height is reached the iterates are the fixed point
        d = BoundedDomain(3)
        h = d.height(arrow(NAT, PROP))
        ty = arrow(NAT, PROP)
        key_fix = d.value_key(d.eval(ENC["nat"]), ty)
        for extra in (0, 1, 3):
            key_alpha = d.value_key(d.eval(ENC["nat"], alphas={(): h + extra}), ty)
            assert key_alpha == key_fix

    @pytest.mark.parametrize("e,is_mu", [
        (ENC["nat"], True),
        (NU_C, False),
        (NU_DESCENT, False),
    ], ids=["nat", "nu_c", "nu_descent"])
    def test_approximants_are_monotone_in_alpha(self, e, is_mu):
        # mu^a rises and nu^a falls with a, and from the lattice height on
        # the approximant is the fixed point
        d = BoundedDomain(3)
        ty = arrow(NAT, PROP)
        h = d.height(ty)
        approx = [d.eval(e, alphas={(): a}) for a in range(h + 3)]
        for lo, hi in zip(approx, approx[1:]):
            assert d.leq_value(lo, hi, ty) if is_mu else d.leq_value(hi, lo, ty)
        key_fix = d.value_key(d.eval(e), ty)
        assert all(d.value_key(v, ty) == key_fix for v in approx[h:])

    def test_descending_nu_approximants_are_strict(self):
        # nu X. \x. exists x'. x = S x' /\ X x' holds at m in its a-th
        # approximant exactly when m >= a; its fixed point is empty
        d = BoundedDomain(3)
        for a in range(5):
            for m in range(4):
                got = d.eval(App(NU_DESCENT, numeral(m)), alphas={(0,): a})
                assert got == (m >= a), (a, m)
        assert not any(d.eval(App(NU_DESCENT, numeral(m))) for m in range(4))

    def test_higher_order_fixpoints(self, d5):
        body = Lam("f", arrow(PROP, PROP), App(Var("f"), App(Var("X"), Var("f"))))
        ident = Lam("y", PROP, Var("y"))
        assert d5.eval(App(Nu("X", arrow(arrow(PROP, PROP), PROP), body), ident)) is True
        assert d5.eval(App(Mu("X", arrow(arrow(PROP, PROP), PROP), body), ident)) is False


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------


class TestEnumeration:
    def test_monotone_function_counts(self):
        d = BoundedDomain(2)
        assert len(d.elements(arrow(PROP, PROP))) == 3
        assert len(d.elements(arrow(NAT, PROP))) == 8  # N is discrete: all maps
        assert len(d.elements(arrow(arrow(PROP, PROP), PROP))) == 4

    def test_enumerated_functions_are_monotone(self):
        d = BoundedDomain(2)
        ty = arrow(arrow(PROP, PROP), PROP)
        fns = d.elements(ty)
        args = d.elements(ty.arg)
        for f in fns:
            for a in args:
                for b in args:
                    if d.leq_value(a, b, ty.arg):
                        assert d.leq_value(d.apply(f, a), d.apply(f, b), PROP)

    def test_elements_distinct_by_key(self):
        d = BoundedDomain(2)
        ty = arrow(NAT, PROP)
        keys = [d.value_key(f, ty) for f in d.elements(ty)]
        assert len(set(keys)) == len(keys)

    def test_enumeration_cap(self):
        d = BoundedDomain(2, max_functions=5)
        with pytest.raises(DomainTooLarge):
            d.elements(arrow(NAT, PROP))

    def test_height_examples(self):
        d = BoundedDomain(4)
        assert d.height(PROP) == 1
        assert d.height(NAT) == 0
        assert d.height(arrow(NAT, PROP)) == 5
        assert d.height(arrow(NAT, NAT, PROP)) == 25
        assert d.height(arrow(PROP, PROP)) == 2

    def test_monotone_in_free_predicate_valuation(self):
        # interpretations are monotone in the valuation of a free variable
        d = BoundedDomain(2)
        ty = arrow(NAT, PROP)
        shapes = [
            App(Var("p"), numeral(1)),
            Or(App(Var("p"), Zero()), App(Var("p"), numeral(2))),
            And(App(Var("p"), Zero()), App(Var("p"), numeral(1))),
            exists_nat("x", App(Var("p"), Var("x"))),
            forall_nat("x", App(Var("p"), Var("x"))),
            App(Mu("X", ty, Lam("x", NAT, Or(App(Var("p"), Var("x")),
                                             App(Var("X"), Succ(Var("x")))))), Zero()),
        ]
        fns = d.elements(ty)
        for phi in shapes:
            for f in fns:
                for g in fns:
                    if d.leq_value(f, g, ty):
                        assert d.eval(phi, {"p": f}) <= d.eval(phi, {"p": g}), phi


# ---------------------------------------------------------------------------
# overflow, fuel, and rendering
# ---------------------------------------------------------------------------


class TestBoundsAndErrors:
    def test_value_key_overflow(self, d5):
        with pytest.raises(NatOverflow):
            d5.value_key(6, NAT)

    def test_table_application_overflow(self, d5):
        f = d5.elements(arrow(NAT, PROP))[0]
        assert isinstance(f, TableFun)
        d5.apply(f, 5)
        with pytest.raises(NatOverflow):
            d5.apply(f, 6)

    def test_fuel_exhaustion(self):
        d = BoundedDomain(5, fuel=100)
        with pytest.raises(DomainTooLarge):
            d.eval(make_app(ENC["sum"], numeral(2), numeral(3), numeral(5)))

    def test_unbound_variable_rejected(self, d5):
        with pytest.raises(HflError):
            d5.eval(Var("nope"))

    def test_succ_is_exact_arithmetic(self, d5):
        # arithmetic never saturates: S is exact even past the bound
        assert d5.eval(Eq(Succ(Var("n")), numeral(7)), {"n": 6}) is True
        assert d5.eval(Eq(Succ(Var("n")), numeral(7)), {"n": 5}) is False

    def test_render_value(self, d5):
        assert render_value(True) == "T"
        assert render_value(False) == "F"
        assert render_value(3) == "3"
        f = d5.tabulate(d5.eval(Lam("x", PROP, Var("x"))), arrow(PROP, PROP))
        assert render_value(f) == "{F->F, T->T}"


# ---------------------------------------------------------------------------
# validity checking
# ---------------------------------------------------------------------------


class TestValidity:
    def test_identity_sequent_valid(self, d5):
        assert isinstance(check_validity_bounded(sequent([Var("x")], [Var("x")]), d5), Valid)

    def test_invalid_with_witness(self, d5):
        v = check_validity_bounded(sequent([], [Eq(Var("x"), Zero())]), d5)
        assert isinstance(v, Invalid)
        assert v.witness["x"] != 0

    def test_empty_sequent_invalid(self, d5):
        v = check_validity_bounded(sequent([], []), d5)
        assert isinstance(v, Invalid)
        assert v.witness == {}

    def test_false_assumption_valid(self, d5):
        assert isinstance(check_validity_bounded(sequent([ENC["bot"]], []), d5), Valid)

    def test_zero_leq_anything(self):
        d = BoundedDomain(6)
        seq = sequent([], [make_app(ENC["leq"], Zero(), Var("t"))])
        assert isinstance(check_validity_bounded(seq, d), Valid)

    def test_climb_sequents(self, d5):
        climb = Lam("x", NAT, App(Var("X"), Succ(Var("x"))))
        nu_c = App(Nu("X", arrow(NAT, PROP), climb), Zero())
        mu_c = App(Mu("X", arrow(NAT, PROP), climb), Zero())
        assert isinstance(check_validity_bounded(sequent([], [nu_c]), d5), Valid)
        assert isinstance(check_validity_bounded(sequent([mu_c], []), d5), Valid)
        assert isinstance(check_validity_bounded(sequent([nu_c], []), d5), Invalid)

    def test_unknown_on_table_overflow(self):
        d = BoundedDomain(4)
        v = check_validity_bounded(sequent([App(Var("g"), numeral(5))], []), d)
        assert isinstance(v, Unknown)

    def test_unknown_on_escaping_climb(self):
        d = BoundedDomain(4)
        climb = Nu("X", arrow(NAT, PROP),
                   Lam("x", NAT, And(App(Var("g"), Succ(Var("x"))),
                                     App(Var("X"), Succ(Var("x"))))))
        v = check_validity_bounded(sequent([App(climb, Zero())], []), d)
        assert isinstance(v, Unknown)

    def test_counterexample_beats_unknown(self):
        # one valuation refutes outright, others overflow: Invalid wins
        d = BoundedDomain(4)
        phi = And(App(Var("g"), Zero()), App(Var("g"), numeral(5)))
        v = check_validity_bounded(sequent([], [phi]), d)
        assert isinstance(v, Invalid)

    def test_unknown_on_oversized_valuation_space(self, d5):
        seq = sequent([Var("x")], [Var("x")])
        v = check_validity_bounded(seq, d5, tyenv={"x": PROP}, max_valuations=1)
        assert isinstance(v, Unknown)

    def test_valuation_enumeration(self):
        d = BoundedDomain(3)
        vals = list(iter_valuations(d, {"x": NAT, "p": PROP}))
        assert len(vals) == 8
        assert all(set(v) == {"x", "p"} for v in vals)

    def test_verdict_rendering(self):
        assert str(Valid()) == "valid"
        assert str(Invalid({"x": 1})) == "invalid [x := 1]"
        assert str(Invalid({})) == "invalid []"
        assert str(Unknown("why")) == "unknown (why)"

    @given(a=st.integers(min_value=0, max_value=3), b=st.integers(min_value=0, max_value=3),
           off=st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_sum_randomized(self, a, b, off):
        d = BoundedDomain(6)
        assert d.eval(make_app(ENC["sum"], numeral(a), numeral(b), numeral(a + b))) is True
        assert d.eval(make_app(ENC["sum"], numeral(a), numeral(b), numeral(a + b + off))) is False

    @given(m=st.integers(min_value=0, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_evaluation_is_repeatable(self, m):
        d = BoundedDomain(5)
        e = App(ENC["nat"], numeral(m))
        assert d.eval(e) == d.eval(e)
