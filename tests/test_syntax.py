"""Parser, printer, alpha-equivalence, substitution and typing tests."""

import pytest
from hypothesis import given, settings, strategies as st

from hflcyc.syntax import (
    NAT, PROP, App, Arrow, Eq, HflSyntaxError, HflTypeError, Lam, Mu, Nu, Or,
    And, IllTyped, Sequent, Succ, UnboundVariable, Var, Zero, alpha_eq,
    app_spine, arrow, beta_head, beta_head_traced, canonical, check_sequent,
    children, count_occurrences, derived_encodings, free_vars, infer_env,
    infer_type, make_app, numeral, numeral_value, parse, parse_expr,
    parse_sequent, parse_type, rebuild, replace_at, sequent, sequent_alpha_eq,
    sigma_paths, subexpr_at, substitute, substitute_traced, to_str,
    type_to_str, unfold, unfold_traced, FromSkeleton, FromCopy,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

NAMES = ["a", "b", "x", "y", "p", "q", "x'", "F_2"]

terms = st.deferred(lambda: st.one_of(
    st.sampled_from(NAMES).map(Var),
    st.just(Zero()),
    terms.map(Succ),
))

types = st.deferred(lambda: st.one_of(
    st.just(NAT),
    st.just(PROP),
    st.tuples(types, types).map(lambda ab: Arrow(ab[0], ab[1]) if ab[1] != NAT else Arrow(ab[0], PROP)),
))

exprs = st.deferred(lambda: st.one_of(
    st.sampled_from(NAMES).map(Var),
    st.just(Zero()),
    exprs.map(Succ),
    st.tuples(exprs, exprs).map(lambda ab: Eq(*ab)),
    st.tuples(exprs, exprs).map(lambda ab: Or(*ab)),
    st.tuples(exprs, exprs).map(lambda ab: And(*ab)),
    st.tuples(st.sampled_from(NAMES), types, exprs).map(lambda t: Lam(*t)),
    st.tuples(exprs, exprs).map(lambda ab: App(*ab)),
    st.tuples(st.sampled_from(NAMES), types.filter(lambda t: t != NAT), exprs).map(lambda t: Mu(*t)),
    st.tuples(st.sampled_from(NAMES), types.filter(lambda t: t != NAT), exprs).map(lambda t: Nu(*t)),
))


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(exprs)
def test_print_parse_round_trip(e):
    assert parse_expr(to_str(e)) == e


@settings(max_examples=100)
@given(types)
def test_type_round_trip(ty):
    assert parse_type(type_to_str(ty)) == ty


@pytest.mark.parametrize("text,expected", [
    ("a \\/ b \\/ c", Or(Or(Var("a"), Var("b")), Var("c"))),
    ("a /\\ b \\/ c", Or(And(Var("a"), Var("b")), Var("c"))),
    ("a \\/ b /\\ c", Or(Var("a"), And(Var("b"), Var("c")))),
    ("f x y", App(App(Var("f"), Var("x")), Var("y"))),
    ("f (S x)", App(Var("f"), Succ(Var("x")))),
    ("f S x", App(Var("f"), Succ(Var("x")))),
    ("S S Z", numeral(2)),
    ("3", numeral(3)),
    ("x = S y", Eq(Var("x"), Succ(Var("y")))),
    ("a \\/ mu X:O. X /\\ b", Or(Var("a"), Mu("X", PROP, And(Var("X"), Var("b"))))),
    ("\\x:N. p x \\/ q", Lam("x", NAT, Or(App(Var("p"), Var("x")), Var("q")))),
])
def test_parse_fixtures(text, expected):
    assert parse_expr(text) == expected


def test_parse_comments_and_unicode_turnstile():
    seq = parse_sequent("p x, # inline comment\n q |- r")
    assert seq == sequent([App(Var("p"), Var("x")), Var("q")], [Var("r")])
    assert parse_sequent("p ⊢ q") == sequent([Var("p")], [Var("q")])
    assert parse_sequent("|-") == sequent()
    assert isinstance(parse("p |- q"), Sequent)


def test_parse_errors_are_positioned():
    with pytest.raises(HflSyntaxError, match="line 2"):
        parse_expr("p \\/\n (q")
    with pytest.raises(HflSyntaxError) as err:
        parse_expr("p \\/\n  q $ r")
    assert str(err.value) == "unexpected character '$' (line 2, column 5)"
    assert err.value.pos == 9
    with pytest.raises(HflSyntaxError):
        parse_expr("mu x:N. x = Z")     # N-typed fixed point
    with pytest.raises(HflSyntaxError):
        parse_type("N -> N")             # N result
    with pytest.raises(HflSyntaxError):
        parse_expr("f ) x")


def test_numerals_print_as_decimals():
    assert to_str(numeral(4)) == "4"
    assert to_str(Succ(Var("x"))) == "S x"
    assert numeral_value(numeral(7)) == 7
    assert numeral_value(Succ(Var("x"))) is None


def test_reserved_words():
    with pytest.raises(HflSyntaxError):
        parse_expr("mu mu:O. x")
    with pytest.raises(HflSyntaxError):
        parse_expr("\\Z:N. p")
    # N and O are ordinary identifiers outside type positions
    assert parse_expr("N x") == App(Var("N"), Var("x"))


# ---------------------------------------------------------------------------
# alpha-equivalence
# ---------------------------------------------------------------------------

def test_alpha_eq_basic():
    a = parse_expr("mu X:O. X \\/ nu Y:O. Y")
    b = parse_expr("mu W:O. W \\/ nu V:O. V")
    assert alpha_eq(a, b)
    assert not alpha_eq(a, parse_expr("mu X:O. X \\/ nu Y:O. X"))
    assert not alpha_eq(a, parse_expr("nu X:O. X \\/ nu Y:O. Y"))
    assert not alpha_eq(parse_expr("\\x:N. p x"), parse_expr("\\x:O. p x"))


@pytest.mark.parametrize("a,b,equal", [
    ("\\x:N. p x", "\\y:N. p y", True),
    ("\\x:N. \\x:N. p x", "\\x:N. \\y:N. p y", True),   # shadowing
    ("\\x:N. \\x:N. p x", "\\x:N. \\y:N. p x", False),
    ("\\x:N. p x", "\\x:O. p x", False),                # binder type
    ("\\x:N. p x y", "\\y:N. p y x", False),            # free and bound swapped
    ("mu X:O. X \\/ x", "mu x:O. x \\/ X", False),
    ("p x", "p y", False),
])
def test_alpha_eq_fixtures(a, b, equal):
    ea, eb = parse_expr(a), parse_expr(b)
    assert alpha_eq(ea, eb) == alpha_eq(eb, ea) == equal
    assert (canonical(ea) == canonical(eb)) == equal


def _binder_paths(e):
    return [p for p, s in _preorder(e) if isinstance(s, (Lam, Mu, Nu))]


def _swap_names(e, x, y):
    """e with the names x and y exchanged everywhere, binders included."""
    swap = {x: y, y: x}
    if isinstance(e, Var):
        return Var(swap.get(e.name, e.name))
    kids = tuple(_swap_names(k, x, y) for k in children(e))
    if isinstance(e, (Lam, Mu, Nu)):
        return type(e)(swap.get(e.var, e.var), e.var_type, kids[0])
    return e if not kids else type(e)(*kids)


@st.composite
def alpha_pairs(draw):
    """A formula and a variant: renamed, shadowed, retyped or name-swapped."""
    a = draw(exprs)
    outer = draw(st.sampled_from(NAMES))
    inner = draw(st.sampled_from(NAMES))   # equal to outer: shadowing
    a = Lam(outer, NAT, Lam(inner, PROP, a))
    path = draw(st.sampled_from(_binder_paths(a)))
    bound = subexpr_at(a, path)
    kind = draw(st.sampled_from(["rename", "rebind", "retype", "swap", "other"]))
    if kind == "rename":  # a true alpha-variant: the fresh name occurs nowhere
        sub = type(bound)("fresh", bound.var_type,
                          substitute(bound.body, {bound.var: Var("fresh")}))
    elif kind == "rebind":  # the binder's name alone changes: may capture
        sub = type(bound)(draw(st.sampled_from(NAMES)), bound.var_type, bound.body)
    elif kind == "retype":
        new_type = draw(types)
        if isinstance(bound, (Mu, Nu)) and new_type == NAT:
            new_type = PROP
        sub = type(bound)(bound.var, new_type, bound.body)
    elif kind == "swap":  # exchange the bound name with a (possibly) free one
        sub = _swap_names(bound, bound.var, draw(st.sampled_from(NAMES)))
    else:
        return a, draw(exprs)
    return a, replace_at(a, path, sub)


@settings(max_examples=200)
@given(alpha_pairs())
def test_alpha_eq_agrees_with_canonical_forms(pair):
    a, b = pair
    assert alpha_eq(a, b) == (canonical(a) == canonical(b)) == alpha_eq(b, a)


@settings(max_examples=200)
@given(exprs)
def test_canonical_preserves_structure_and_free_vars(e):
    c = canonical(e)
    assert free_vars(c) == free_vars(e)
    assert [type(s) for _, s in _preorder(e)] == [type(s) for _, s in _preorder(c)]
    assert alpha_eq(e, c)


def _preorder(e):
    out = [((), e)]
    stack = [((), e)]
    while stack:
        p, x = stack.pop()
        for i, k in enumerate(children(x)):
            out.append((p + (i,), k))
            stack.append((p + (i,), k))
    return out


@settings(max_examples=200)
@given(exprs, st.sampled_from(NAMES), st.sampled_from(NAMES))
def test_alpha_invariant_under_consistent_rename(e, x, y):
    renamed = Lam(y, NAT, substitute(e, {x: Var(y)}))
    if y not in free_vars(e) - {x}:
        assert alpha_eq(Lam(x, NAT, e), renamed)


def test_sequent_alpha():
    s1 = parse_sequent("mu X:O. X |- nu Y:O. Y")
    s2 = parse_sequent("mu A:O. A |- nu B:O. B")
    assert sequent_alpha_eq(s1, s2)
    assert not sequent_alpha_eq(s1, parse_sequent("nu Y:O. Y |- mu X:O. X"))


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(exprs, st.sampled_from(NAMES), terms)
def test_substitution_free_vars(e, x, r):
    out = substitute(e, {x: r})
    expected = free_vars(e) - {x} | (free_vars(r) if x in free_vars(e) else frozenset())
    assert free_vars(out) == expected


def test_substitution_avoids_capture():
    e = parse_expr("\\y:N. p x y")
    out = substitute(e, {"x": Var("y")})
    assert alpha_eq(out, parse_expr("\\w:N. p y w"))
    # shadowed occurrences stay put
    e2 = parse_expr("\\x:N. p x")
    assert substitute(e2, {"x": Zero()}) == e2
    # deterministic choice of the replacement binder
    e3 = parse_expr("\\x_2:N. p x x_2")
    assert substitute(e3, {"x": Succ(Var("x_2"))}) == parse_expr("\\x_3:N. p (S x_2) x_3")


def test_substitution_avoids_capture_through_nested_rename():
    # renaming y -> y_2 must itself re-rename the inner binder y_2
    e = parse_expr("\\y:N. \\y_2:N. p x y y_2")
    out = substitute(e, {"x": Var("y")})
    assert alpha_eq(out, parse_expr("\\a:N. \\b:N. p y a b"))


@settings(max_examples=200)
@given(exprs, st.sampled_from(NAMES), terms)
def test_traced_substitution_agrees_and_covers(e, x, r):
    out, origins = substitute_traced(e, {x: r})
    assert out == substitute(e, {x: r})
    assert set(origins) == set(sigma_paths(out))
    n = count_occurrences(e, x)
    copies = {o.copy for o in origins.values() if isinstance(o, FromCopy)}
    if sigma_paths(r) and x in free_vars(e):
        assert copies == set(range(n))
    for p, o in origins.items():
        node = subexpr_at(out, p)
        if isinstance(o, FromSkeleton):
            assert type(subexpr_at(e, o.src)) is type(node)
        else:
            assert subexpr_at(r, o.src) == node  # copies are verbatim


def _naive_substitute(e, subst):
    """e[subst] by replacing every occurrence of a name in subst, with no
    renaming: right only when no binder of e has such a name."""
    if isinstance(e, Var):
        return subst.get(e.name, e)
    return rebuild(e, tuple(_naive_substitute(k, subst) for k in children(e)))


@st.composite
def capturing_substitutions(draw):
    """(e, subst) where a binder of e captures a free variable of a replacement
    unless it is renamed: e contains \\y:T. (x \\/ e' y z) and x's replacement
    mentions y.  A z like y_2 is what a renaming of y may capture next."""
    names = NAMES + ["y_2", "y_3"]
    y = draw(st.sampled_from(["y", "y_2"]))
    z = draw(st.sampled_from(["y", "y_2", "y_3", "a"]).filter(lambda n: n != y))
    x = draw(st.sampled_from(["a", "b", "x", "p"]).filter(lambda n: n != z))
    binder = draw(st.sampled_from([Lam, Mu, Nu]))
    ty = draw(types.filter(lambda t: binder is Lam or t != NAT))
    inner = binder(y, ty, Or(Var(x), make_app(draw(exprs), Var(y), Var(z))))
    e = draw(st.sampled_from([
        inner, Lam(draw(st.sampled_from(names)), NAT, inner), And(draw(exprs), inner)]))
    subst = {x: draw(st.sampled_from([Var(y), Succ(Var(y)), Or(Var(x), Var(y)),
                                      App(Var(y), Var("y_2"))]))}
    if draw(st.booleans()):  # a second, simultaneous replacement
        subst[draw(st.sampled_from(names))] = draw(terms)
    return e, subst


@settings(max_examples=200)
@given(st.one_of(capturing_substitutions(),
                 st.tuples(exprs, st.dictionaries(st.sampled_from(NAMES), terms, max_size=2))))
def test_substitution_agrees_with_naive_substitution_on_canonical_forms(case):
    # canonical bound names cannot occur in a replacement, so on a canonical
    # form plain replacement captures nothing
    e, subst = case
    expected = _naive_substitute(canonical(e), subst)
    assert alpha_eq(substitute(e, subst), expected)
    assert alpha_eq(substitute_traced(e, subst)[0], expected)


def test_head_steps():
    nu_loop = parse_expr("nu f:(O -> O) -> O. \\g:O -> O. g (f g)")
    idf = parse_expr("\\a:O. a")
    step = unfold_traced(App(nu_loop, idf))
    assert step.result == unfold(App(nu_loop, idf))
    assert step.result == parse_expr(
        "(\\g:O -> O. g ((nu f:(O -> O) -> O. \\g:O -> O. g (f g)) g)) (\\a:O. a)")
    assert step.head_path == (0,)
    assert step.copy_roots == ((0, 0, 1, 0),)
    assert step.sigma_kind == "nu"
    assert set(step.sources) == set(sigma_paths(step.result))

    step2 = beta_head_traced(step.result)
    assert step2.result == beta_head(step.result)
    assert step2.head_path is None
    assert step2.sigma_kind is None
    assert set(step2.sources) == set(sigma_paths(step2.result))

    mu_step = unfold_traced(parse_expr("(mu X:N -> O. \\y:N. y = Z \\/ X (S y)) Z"))
    assert mu_step.sigma_kind == "mu"
    assert mu_step.head_path == (0,)


@settings(max_examples=150)
@given(exprs)
def test_unfold_traced_total_on_sigma_heads(e):
    wrapped = App(Nu("loop", Arrow(PROP, PROP), Lam("z", PROP, e)), Var("q"))
    step = unfold_traced(wrapped)
    assert step.result == unfold(wrapped)
    assert set(step.sources) == set(sigma_paths(step.result))
    assert all(src in set(sigma_paths(wrapped)) for src in step.sources.values())


# ---------------------------------------------------------------------------
# typing
# ---------------------------------------------------------------------------

def test_infer_type_fixtures():
    enc = derived_encodings()
    assert infer_type({}, enc["forall"]) == arrow(arrow(NAT, PROP), NAT, PROP)
    assert infer_type({}, enc["nat"]) == arrow(NAT, PROP)
    assert infer_type({}, enc["sum"]) == arrow(NAT, NAT, NAT, PROP)
    assert infer_type({}, enc["leq"]) == arrow(NAT, NAT, PROP)
    assert infer_type({}, enc["top"]) == PROP
    assert infer_type({"x": NAT}, parse_expr("x = Z")) == PROP


def test_infer_type_rejections():
    with pytest.raises(UnboundVariable):
        infer_type({}, Var("nope"))
    with pytest.raises(HflTypeError):
        infer_type({}, Succ(parse_expr("Z = Z")))
    with pytest.raises(HflTypeError):
        infer_type({}, Eq(parse_expr("mu X:O. X"), Zero()))
    with pytest.raises(HflTypeError):
        infer_type({"p": arrow(NAT, PROP)}, App(Var("p"), parse_expr("mu X:O. X")))
    with pytest.raises(HflTypeError):
        # abstraction body of type N
        infer_type({}, Lam("x", NAT, Var("x")))
    with pytest.raises(HflTypeError):
        # fixed-point body type mismatch
        infer_type({}, Mu("X", PROP, Lam("y", NAT, Var("X"))))


def test_infer_env():
    env = infer_env([parse_expr("p x \\/ x = Z")])
    assert env == {"p": Arrow(NAT, PROP), "x": NAT}
    env2 = infer_env([parse_expr("f g Z \\/ g Z")], {"g": arrow(NAT, PROP)})
    assert env2["f"] == arrow(arrow(NAT, PROP), NAT, PROP)
    with pytest.raises(HflTypeError):
        # g (f g Z) would force f's result type to be N -> N
        infer_env([parse_expr("g (f g Z)")], {"g": arrow(NAT, PROP)})
    with pytest.raises(HflTypeError):
        infer_env([parse_expr("p \\/ q"), parse_expr("p x")])  # p at two types
    assert infer_env([Var("alone")]) == {"alone": PROP}
    # a genuinely underdetermined variable type
    with pytest.raises(HflTypeError):
        infer_env([App(Var("f"), Var("u"))])


@pytest.mark.parametrize("text,expected,found", [
    ("|- p (S (Z = Z))", "N", "O"),
    ("|- p Z /\\ p (Z = Z)", "N", "O"),
    ("|- p Z \\/ S Z", "O", "N"),
])
def test_unifier_names_expected_and_found_as_the_direct_checker(text, expected, found):
    seq = parse_sequent(text)
    for env in (None, {"p": arrow(NAT, PROP)}):  # through the unifier, then directly
        with pytest.raises(IllTyped) as err:
            check_sequent(seq, env)
        assert (err.value.expected, err.value.found) == (expected, found)


def test_type_preservation_under_substitution():
    phi = parse_expr("p x \\/ (mu E:N -> O. \\y:N. y = x \\/ E (S y)) Z")
    env = {"p": arrow(NAT, PROP), "x": NAT}
    assert infer_type(env, phi) == PROP
    inst = substitute(phi, {"x": numeral(3)})
    assert infer_type({"p": arrow(NAT, PROP)}, inst) == PROP


# ---------------------------------------------------------------------------
# misc structure helpers
# ---------------------------------------------------------------------------

def test_spine_and_paths():
    e = parse_expr("f x y z")
    head, args = app_spine(e)
    assert head == Var("f") and args == (Var("x"), Var("y"), Var("z"))
    assert make_app(head, *args) == e
    assert subexpr_at(e, (0, 0, 1)) == Var("x")
    assert replace_at(e, (0, 0, 1), Zero()) == parse_expr("f Z y z")


def test_sigma_paths_preorder():
    e = parse_expr("(mu X:O. nu Y:O. X) \\/ nu W:O. W")
    assert sigma_paths(e) == ((0,), (0, 0), (1,))
