"""Parser, printer, alpha-equivalence, substitution and typing tests."""

import copy
import functools
import gc
import itertools
import pickle
import time
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from hflcyc.syntax import (
    NAT, PROP, App, Arrow, Eq, HflError, HflSyntaxError, HflTypeError, Lam, Mu, Nu, Or,
    And, IllTyped, Sequent, Succ, UnboundVariable, Var, Zero, alpha_eq,
    BINDERS, FIXPOINTS, HeadStep, app_spine, arrow, canonical, check_sequent,
    children, derived_encodings, free_vars, head_step, infer_env,
    is_term_shaped,
    infer_type, make_app, numeral, numeral_value, parse, parse_expr,
    parse_sequent, parse_type, rebuild, replace_at, sequent, sequent_alpha_eq,
    sigma_paths, subexpr_at, substitute, to_str,
    type_to_str, sequent_to_str, var_paths,
)
from hflcyc.syntax import (
    _ATOM_LEVEL, _ATOM_START, _BINARY, _BINDER_KEYWORDS, _BINDER_LEVEL, _INFIX, _INTERNED,
    _Parser, _TMeta, _Unifier, _fresh_variant,
)
from hflcyc.kernel import Mono
from hflcyc.trace import annotate_root

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


# tokens of every kind; so that some strings parse, binders come in one piece
# and names, parentheses and connectives come twice as often
TOKENS = ["x", "f", "Z", "S", "3", "(", ")", "\\/", "/\\", "=", "\\x:N.", "mu p:O.",
          "nu g:N->O.", "\\", "mu", ":", ".", "N", "->", ",", "|-", "$",
          "x", "f", "(", ")", "\\/", "/\\"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(TOKENS), max_size=16))
def test_token_strings_parse_back_or_raise_a_syntax_error(tokens):
    text = " ".join(tokens)
    for source, parse_text, show in ((text, parse_expr, to_str),
                                     (text, parse_sequent, sequent_to_str),
                                     (f"{text} |- {text}", parse_sequent, sequent_to_str)):
        try:
            printed = show(parse_text(source))
        except HflSyntaxError:
            continue
        # printed text, not trees: == on a deep tree recurses
        assert show(parse_text(printed)) == printed


class _RecursiveParser(_Parser):
    """The recursive parser the parsing loops replaced, kept as their
    reference: one Python frame or more per level of nesting."""

    def type_atom(self):
        kind, text, pos = self.next()
        if text == "(":
            ty = self.type_expr()
            self.expect(")", ")")
            return ty
        if kind == "ident" and text == "N":
            return NAT
        if kind == "ident" and text == "O":
            return PROP
        raise HflSyntaxError(f"expected a type, found {text!r}", self.text, pos)

    def type_expr(self):
        left = self.type_atom()
        if self.peek()[0] == "arrow":
            tok = self.next()
            try:
                return Arrow(left, self.type_expr())
            except HflTypeError as exc:
                raise HflSyntaxError(str(exc), self.text, tok[2]) from None
        return left

    def expr(self, level=0):
        kind, _text, pos = self.peek()
        if kind in _BINDER_KEYWORDS and level <= _BINDER_LEVEL:
            self.next()
            name = self.expect("ident", "a variable")[1]
            self.expect(":", ":")
            ty = self.type_expr()
            self.expect(".", ".")
            body = self.expr()
            try:
                return _BINDER_KEYWORDS[kind](name, ty, body)
            except HflTypeError as exc:
                raise HflSyntaxError(str(exc), self.text, pos) from None
        left, prec = self.atom(), _ATOM_LEVEL
        while True:
            kind, text, _pos = self.peek()
            cls = App if kind in _ATOM_START or text == "(" else _INFIX.get(text)
            if cls is None:
                return left
            _sep, op_prec, left_level, right_level = _BINARY[cls]
            if op_prec < level or prec < left_level:
                return left
            if cls is not App:
                self.next()
            left, prec = cls(left, self.expr(right_level)), op_prec

    def atom(self):
        kind, text, pos = self.next()
        if text == "(":
            e = self.expr()
            self.expect(")", ")")
            return e
        if kind == "Z":
            return Zero()
        if kind == "S":
            depth = 1
            while self.peek()[0] == "S":
                self.next()
                depth += 1
            e = self.atom()
            for _ in range(depth):
                e = Succ(e)
            return e
        if kind == "num":
            limit = 10_000
            if len(text.lstrip("0")) > len(str(limit)) or int(text) > limit:
                raise HflSyntaxError(f"numeral larger than {limit}, "
                                     "the most successors one literal may make",
                                     self.text, pos)
            return numeral(int(text))
        if kind == "ident":
            return Var(text)
        raise HflSyntaxError(f"expected an expression, found {text or 'end of input'!r}",
                             self.text, pos)


def _parse_outcome(parser, rule, text):
    """What ``rule`` of ``parser`` makes of the whole ``text``: the object,
    or the error's type, message and position."""
    try:
        p = parser(text)
        out = rule(p)
        kind, rest, pos = p.peek()
        if kind != "eof":
            raise HflSyntaxError(f"unexpected trailing input {rest!r}", text, pos)
        return out
    except HflError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(TOKENS), max_size=16))
@example(["S", "S", "(", "f", "x", ")", "x"])  # a run of S takes one atom
@example(["\\x:N.", "mu p:O.", "x", "=", "x", "=", "x"])  # the body ends where the binder does
def test_parsing_loops_agree_with_the_recursive_parser(tokens):
    text = " ".join(tokens)
    for rule in ("expr", "sequent", "type_expr"):
        for source in (text, f"{text} |- {text}"):
            assert (_parse_outcome(_Parser, getattr(_Parser, rule), source)
                    == _parse_outcome(_RecursiveParser, getattr(_RecursiveParser, rule), source))


@pytest.mark.parametrize("outer,inner", list(itertools.product(_BINARY, repeat=2)),
                         ids=lambda cls: cls.__name__)
def test_every_pair_of_operators_nests_both_ways(outer, inner):
    x, y, z = Var("x"), Var("y"), Var("z")
    for e in (outer(inner(x, y), z), outer(x, inner(y, z))):
        assert parse_expr(to_str(e)) == e


def _nest(inner, make, n):
    for _ in range(n):
        inner = make(inner)
    return inner


P, X, F = Var("p"), Var("x"), Var("f")
BINDER_KINDS = ((Lam, "x", NAT), (Mu, "p", PROP), (Nu, "q", PROP))
DEEP_FORMULAS = {
    "or": lambda n: _nest(P, lambda e: Or(P, e), n),
    "and": lambda n: _nest(P, lambda e: And(P, e), n),
    "application": lambda n: _nest(X, lambda e: App(F, e), n),
    "binders": lambda n: functools.reduce(
        lambda e, i: BINDER_KINDS[i % 3][0](*BINDER_KINDS[i % 3][1:], e), range(n), P),
}


def test_a_hundred_thousand_parentheses_parse_back():
    assert parse_sequent("|- " + "(" * 100_000 + "p" + ")" * 100_000) == sequent([], [P])


@pytest.mark.parametrize("build", DEEP_FORMULAS.values(), ids=DEEP_FORMULAS)
def test_a_deep_formula_parses_back_as_itself(build):
    # printed with one parenthesis level per node but for the binders
    e = build(5_000)
    assert parse_expr(to_str(e)) is e
    seq = sequent([e], [e])
    assert parse_sequent(sequent_to_str(seq)) is seq


@pytest.mark.parametrize("make", [lambda ty: Arrow(ty, PROP), lambda ty: Arrow(NAT, ty)],
                         ids=["left-nested", "right-nested"])
def test_a_deep_arrow_type_parses_back_as_itself(make):
    ty = _nest(PROP, make, 1_500)
    assert parse_type(type_to_str(ty)) is ty
    e = Lam("g", ty, Var("g"))
    assert parse_expr(to_str(e)) is e


def test_numeral_too_deep_to_walk_is_rejected_at_its_position():
    # S^n Z has n successors: one literal may make at most 10,000, and the
    # literal below would take 10^8 Succ nodes if it were built
    start = time.perf_counter()
    for n in (10_001, 99999999):
        with pytest.raises(HflSyntaxError, match="numeral larger") as err:
            parse_sequent(f"|- Z = Z \\/ {n} = {n}")
        assert err.value.pos == 12
    assert time.perf_counter() - start < 1


def test_numerals_print_as_decimals():
    assert to_str(numeral(4)) == "4"
    assert to_str(Succ(Var("x"))) == "S x"
    assert numeral_value(numeral(7)) == 7
    assert numeral_value(Succ(Var("x"))) is None


def _best_time(f, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - start)
    return best


def test_a_successor_chain_prints_in_linear_time():
    # the chain is walked once at its top, not once per S: a quadratic
    # printer takes 16 times as long at 4n
    def chain(n):
        e = Var("x")
        for _ in range(n):
            e = Succ(e)
        return e

    short, long = chain(1000), chain(4000)
    assert to_str(long) == "S " * 4000 + "x"
    assert _best_time(lambda: to_str(long)) < 8 * _best_time(lambda: to_str(short))


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


def test_alpha_eq_walks_a_long_application_chain():
    # deeper than the recursion limit: the chain's spine is not recursed on
    args = [Zero()] * 5000
    a = make_app(Mu("x", PROP, Var("x")), *args)
    assert alpha_eq(a, make_app(Mu("y", PROP, Var("y")), *args))
    assert not alpha_eq(a, make_app(Mu("y", PROP, Var("x")), *args))


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


def _naive_alpha_eq(a, b, env_a=None, env_b=None, depth=0):
    """Alpha-equivalence by one recursive walk over both expressions: a bound
    name compares by the level of its binder, a free one by its text."""
    env_a, env_b = env_a or {}, env_b or {}
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        level = env_a.get(a.name)
        return level == env_b.get(b.name) and (level is not None or a.name == b.name)
    if isinstance(a, (Lam, Mu, Nu)):
        return a.var_type == b.var_type and _naive_alpha_eq(
            a.body, b.body, {**env_a, a.var: depth}, {**env_b, b.var: depth}, depth + 1)
    return all(_naive_alpha_eq(x, y, env_a, env_b, depth)
               for x, y in zip(children(a), children(b)))


def _naive_free_vars(e):
    """The free variables of e by one recursive walk."""
    if isinstance(e, Var):
        return {e.name}
    free = set().union(*map(_naive_free_vars, children(e)))
    return free - {e.var} if isinstance(e, (Lam, Mu, Nu)) else free


@settings(max_examples=200)
@given(alpha_pairs())
def test_alpha_eq_agrees_with_a_recursive_reference(pair):
    a, b = pair
    assert alpha_eq(a, b) == _naive_alpha_eq(a, b) == _naive_alpha_eq(b, a)


@settings(max_examples=200)
@given(exprs)
def test_free_vars_of_every_subterm_agree_with_a_recursive_reference(e):
    for _, sub in _preorder(e):
        assert free_vars(sub) == sub.free == _naive_free_vars(sub)


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


def test_one_sequent_object_is_alpha_equal_without_a_walk(monkeypatch):
    # a sequent shared by a back edge's leaf and target is compared in O(1)
    import hflcyc.syntax as syntax
    text = "mu X:O. X |- nu Y:O. Y, p"
    seq = parse_sequent(text)
    compared = []
    monkeypatch.setattr(syntax, "alpha_eq", lambda a, b: compared.append(a) or True)
    assert sequent_alpha_eq(seq, seq)
    assert compared == []
    assert parse_sequent(text) is seq  # two parses of one text are one object
    assert sequent_alpha_eq(seq, parse_sequent("mu V:O. V |- nu W:O. W, p"))
    assert len(compared) == 3


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


def test_substitution_renames_a_deep_nest_of_capturing_binders_in_one_walk():
    # \y. \y_2. ... \y_2000. x \/ y \/ y_2 \/ ... \/ y_2000: each binder
    # renamed to keep y free takes the name the next binder binds
    names = ["y"] + [f"y_{k}" for k in range(2, 2001)]
    e = functools.reduce(Or, map(Var, names), Var("x"))
    for name in reversed(names):
        e = Lam(name, PROP, e)
    out = substitute(e, {"x": Var("y")})
    assert free_vars(out) == {"y"}
    assert alpha_eq(out, _naive_substitute(canonical(e), {"x": Var("y")}))


# ---------------------------------------------------------------------------
# the traced substitution walk, kept as a reference
# ---------------------------------------------------------------------------

def _traced_substitute(e, subst, origins, path=(), counters=None):
    """e[subst] by a recursive traced walk, the reference for var_paths and
    head_step: it records in ``origins``, by path, each operator of the
    result that sits inside a substituted copy, as the variable, the copy's
    number (the copies of each variable numbered in preorder) and the
    operator's path in the replacement.  A binder that would capture is first
    renamed in its body by a walk of its own."""
    counters = {} if counters is None else counters
    live = {x: r for x, r in subst.items() if x in free_vars(e)}
    if not live:
        return e
    if isinstance(e, Var):
        copy = counters[e.name] = counters.get(e.name, -1) + 1
        for q in sigma_paths(live[e.name]):
            origins[path + q] = (e.name, copy, q)
        return live[e.name]
    if isinstance(e, BINDERS):
        avoid = frozenset().union(*(free_vars(r) for r in live.values()))
        var, body = e.var, e.body
        if var in avoid:
            var = _fresh_variant(var, avoid | free_vars(body))
            body = _traced_substitute(body, {e.var: Var(var)}, {})
        body = _traced_substitute(body, live, origins, path + (0,), counters)
        return type(e)(var, e.var_type, body)
    return rebuild(e, tuple(_traced_substitute(kid, live, origins, path + (i,), counters)
                            for i, kid in enumerate(children(e))))


def _traced_head_step(e, kind):
    """The head step by the traced walk: each operator of the reduced body is
    the head body's at its path or, if the walk recorded it, the
    replacement's at its recorded path."""
    head, args = app_spine(e)
    if not isinstance(head, kind) or (isinstance(head, Lam) and not args):
        return None
    beta = isinstance(head, Lam)
    repl, rest = (args[0], args[1:]) if beta else (head, args)
    origins = {}
    body = _traced_substitute(head.body, {head.var: repl}, origins)
    sources, p = {}, ()
    for _ in rest:
        for q in sigma_paths(subexpr_at(e, p + (1,))):
            sources[p + (1,) + q] = p + (1,) + q
        p += (0,)
    head_path = p + (0,) if beta else p
    repl_path = p + (1,) if beta else head_path
    copy_roots = []
    for q in sigma_paths(body):
        origin = origins.get(q)
        if origin is None:
            sources[p + q] = head_path + (0,) + q
        else:
            sources[p + q] = repl_path + origin[2]
            if not beta and origin[2] == ():
                copy_roots.append(p + q)
    result = make_app(body, *rest)
    if beta:
        return HeadStep(result, sources, None, (), None)
    return HeadStep(result, sources, head_path, tuple(sorted(copy_roots)),
                    "mu" if isinstance(head, Mu) else "nu")


MARK = Nu("t", PROP, Var("t"))  # closed, with one operator, at its root


@settings(max_examples=200)
@given(exprs, st.sampled_from(NAMES), st.one_of(terms, exprs))
def test_traced_substitution_agrees_and_covers(e, x, r):
    origins = {}
    out = _traced_substitute(e, {x: r}, origins)
    assert out == substitute(e, {x: r})
    # the operators outside the copies are e's, at the same paths
    assert set(sigma_paths(out)) - set(origins) == set(sigma_paths(e))
    # copy k of r replaces the k-th free occurrence of x that var_paths lists
    at = var_paths(e, x)
    assert all(subexpr_at(e, v) is Var(x) for v in at)
    for p, (_x, copy, q) in origins.items():
        assert p == at[copy] + q
        assert subexpr_at(out, p) is subexpr_at(r, q)  # copies are verbatim
    # and the walk makes one copy for each of them, numbered in that order
    marked = {}
    _traced_substitute(e, {x: MARK}, marked)
    assert tuple(marked) == at
    assert [copy for _x, copy, _q in marked.values()] == list(range(len(at)))


@st.composite
def redexes(draw):
    """A head redex of either kind, with up to two kept arguments: the
    replacement may mention the head's bound names, so copies are renamed."""
    args = draw(st.lists(st.sampled_from([Var("p"), MARK, parse_expr("mu X:O. nu Y:O. X")]),
                         max_size=2))
    x = draw(st.sampled_from(NAMES))
    body = draw(exprs)
    if draw(st.booleans()):
        return make_app(Lam(x, draw(types), body), draw(exprs), *args), Lam
    fix = draw(st.sampled_from(FIXPOINTS))
    return make_app(fix(x, draw(types.filter(lambda t: t != NAT)), body), *args), FIXPOINTS


@settings(max_examples=150)
@given(redexes())
def test_head_step_agrees_with_the_traced_walk(case):
    e, kind = case
    step, expected = head_step(e, kind), _traced_head_step(e, kind)
    assert step.result == expected.result
    assert list(step.sources.items()) == list(expected.sources.items())
    assert step.copy_roots == expected.copy_roots
    assert repr(step) == repr(expected)


# phi has three free occurrences of w, in the second case one under a binder
# (at the path given) that captures a free variable of psi and chi unless it
# is renamed; psi and chi hold nested fixed points
MONO_CASES = {
    "three-copies": ("w Z \\/ ((mu X:N -> O. \\y:N. w y /\\ X (S y)) Z) \\/ (nu W:O. w (S Z) /\\ W)",
                     "mu L:N -> O. \\n:N. (nu T:O. T) \\/ L (S n)",
                     "\\n:N. nu U:O. (mu V:O. V) /\\ U \\/ n = Z", None),
    "capture": ("(nu y:O. w Z /\\ y) \\/ w (S Z) \\/ (\\z:N. w z) Z",
                "\\n:N. y n \\/ (mu M:O. nu y:O. M /\\ y)",
                "\\n:N. nu K:O. (y n \\/ K)", (0, 0)),
}


@pytest.mark.parametrize("phi,lower,upper,renamed", MONO_CASES.values(), ids=MONO_CASES.keys())
def test_mono_sources_agree_with_the_traced_walk(phi, lower, upper, renamed):
    phi, lower, upper = parse_expr(phi), parse_expr(lower), parse_expr(upper)
    rule = Mono(phi, "w", lower, upper, ("k",))
    conclusion = Sequent((Var("ctx"), substitute(phi, {"w": lower})),
                         (substitute(phi, {"w": upper}), Var("ctx")))
    if renamed is not None:
        for f in (conclusion.left[1], conclusion.right[0]):
            assert subexpr_at(f, renamed).var != subexpr_at(phi, renamed).var
    inference = rule.inference(conclusion)
    assert len(inference.premises) == len(var_paths(phi, "w")) == 3
    for branch in range(3):
        left, right = rule.sources(conclusion, inference, branch)
        for (pos, link), image in ((left[-1], lower), (right[0], upper)):
            origins = {}
            _traced_substitute(phi, {"w": image}, origins)
            expected = {(0,) + q: p for p, (_w, copy, q) in origins.items() if copy == branch}
            assert expected and list(link.items()) == list(expected.items())


def _naive_substitute(e, subst):
    """e[subst] by replacing every occurrence of a name in subst, with no
    renaming: right only when no binder of e has such a name.  Each distinct
    node is rebuilt once its children are, from an explicit stack."""
    done = {}
    todo = [e]
    while todo:
        node = todo[-1]
        waiting = [kid for kid in children(node) if kid not in done]
        if waiting:
            todo += waiting
            continue
        todo.pop()
        done[node] = (subst.get(node.name, node) if isinstance(node, Var)
                      else rebuild(node, tuple(done[kid] for kid in children(node))))
    return done[e]


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
    assert alpha_eq(_traced_substitute(e, subst, {}), expected)


def test_head_steps():
    nu_loop = parse_expr("nu f:(O -> O) -> O. \\g:O -> O. g (f g)")
    idf = parse_expr("\\a:O. a")
    step = head_step(App(nu_loop, idf), Nu)
    assert step.result == parse_expr(
        "(\\g:O -> O. g ((nu f:(O -> O) -> O. \\g:O -> O. g (f g)) g)) (\\a:O. a)")
    assert step.head_path == (0,)
    assert step.copy_roots == ((0, 0, 1, 0),)
    assert step.sigma_kind == "nu"
    assert set(step.sources) == set(sigma_paths(step.result))

    step2 = head_step(step.result, Lam)
    assert step2.result == parse_expr(
        "(\\a:O. a) ((nu f:(O -> O) -> O. \\g:O -> O. g (f g)) (\\a:O. a))")
    assert step2.head_path is None
    assert step2.sigma_kind is None
    assert set(step2.sources) == set(sigma_paths(step2.result))

    mu_step = head_step(parse_expr("(mu X:N -> O. \\y:N. y = Z \\/ X (S y)) Z"), FIXPOINTS)
    assert mu_step.sigma_kind == "mu"
    assert mu_step.head_path == (0,)

    # no redex of the asked kind: a mu head for Nu, a lambda with no argument
    assert head_step(App(nu_loop, idf), Mu) is None
    assert head_step(idf, Lam) is None
    assert head_step(step.result, FIXPOINTS) is None


@settings(max_examples=150)
@given(exprs)
def test_unfold_traced_total_on_sigma_heads(e):
    head = Nu("loop", Arrow(PROP, PROP), Lam("z", PROP, e))
    wrapped = App(head, Var("q"))
    step = head_step(wrapped, FIXPOINTS)
    assert step.result == App(substitute(head.body, {"loop": head}), Var("q"))
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


@pytest.mark.parametrize("text", ["f f", "g (f f)"])
def test_self_application_fails_the_occurs_check(text):
    # f's type would have to hold itself: ?f = ?f -> ?r
    with pytest.raises(IllTyped) as err:
        infer_env([parse_expr(text)])
    assert to_str(err.value.subject) == "f f"
    assert str(err.value) == "ill-typed 'f f': expected ?, found ? -> ?"


def test_a_deep_arrow_type_is_resolved_and_printed_without_recursion():
    chain = functools.reduce(lambda e, k: Lam(f"x{k}", PROP, e), range(3000), Var("p"))
    deep = arrow(*[PROP] * 3001)
    assert infer_type({"p": PROP}, chain) is deep
    assert type_to_str(deep) == "O -> " * 3000 + "O"
    assert infer_env([App(Var("f"), chain)], {"p": PROP}) == {"p": PROP, "f": Arrow(deep, PROP)}
    with pytest.raises(IllTyped) as err:
        infer_env([chain], {"p": PROP})
    assert err.value.subject is chain and err.value.found == type_to_str(deep)


@pytest.mark.parametrize("leaf,env", [("x", {"x": PROP}), ("x = Z", {"x": NAT})])
def test_a_shared_subformula_is_typed_once(leaf, env):
    # the leaf, doubled 30 times: 2^30 leaves as a tree, 31 distinct nodes
    e = functools.reduce(lambda e, _: Or(e, e), range(30), parse_expr(leaf))
    start = time.perf_counter()
    assert infer_env([e]) == env
    assert time.perf_counter() - start < 1


def _reference_infer(e, env, uni, want=None):
    """The recursive type checker the typing loop replaced, over the same
    unifier: one Python frame per node of the formula's tree."""
    if isinstance(e, Var):
        return env.get(e.name) or uni.free_var(e.name)
    if isinstance(e, Zero):
        return NAT
    if isinstance(e, Succ):
        _reference_check(e.arg, NAT, env, uni)
        return NAT
    if isinstance(e, Eq):
        _reference_check(e.lhs, NAT, env, uni)
        _reference_check(e.rhs, NAT, env, uni)
        return PROP
    if isinstance(e, (Or, And)):
        _reference_check(e.lhs, PROP, env, uni)
        _reference_check(e.rhs, PROP, env, uni)
        return PROP
    if isinstance(e, Lam):
        body_ty = _reference_infer(e.body, {**env, e.var: e.var_type}, uni)
        if uni.resolve(body_ty) is NAT:
            raise HflTypeError(f"abstraction body {to_str(e.body)!r} has type N")
        if isinstance(uni.resolve(body_ty), _TMeta):
            uni.props.add(uni.resolve(body_ty))
        return Arrow(e.var_type, body_ty)
    if isinstance(e, FIXPOINTS):
        _reference_check(e.body, e.var_type, {**env, e.var: e.var_type}, uni)
        return e.var_type
    fn_ty = _reference_infer(e.fn, env, uni)
    arg_ty = _reference_infer(e.arg, env, uni)
    fn_ty = uni.resolve(fn_ty)
    if isinstance(fn_ty, _TMeta):
        fn_ty, meta = Arrow(arg_ty, uni.fresh()), fn_ty
        uni.props.add(fn_ty.result)
        uni.unify(fn_ty, meta, e)
    if not isinstance(fn_ty, Arrow):
        raise IllTyped(e.fn, "an arrow type", type_to_str(fn_ty))
    if want is not None:
        uni.unify_if_possible(fn_ty.result, want)
    uni.unify(arg_ty, fn_ty.arg, e.arg)
    return fn_ty.result


def _reference_check(e, want, env, uni):
    uni.unify(_reference_infer(e, env, uni, want), want, e)


def _reference_infer_env(formulas):
    full, uni = {}, _Unifier({})
    for phi in formulas:
        _reference_check(phi, PROP, full, uni)
    for name, meta in uni.free.items():
        ty = uni.resolve(meta)
        if "?" in type_to_str(ty):
            raise HflTypeError(f"cannot determine the type of free variable {name!r}")
        full[name] = ty
    return full


def _typing_outcome(infer, formulas):
    try:
        return infer(formulas)
    except HflTypeError as exc:
        return type(exc), str(exc)


# each list meets its first formula again, alone and inside a disjunction, so
# that the loop takes nodes it has typed from its memo
@settings(max_examples=120, deadline=None)
@given(st.lists(exprs, min_size=1, max_size=3).map(lambda fs: [*fs, Or(fs[-1], fs[0]), fs[0]]))
# a lambda met again after its body's free variable was found to have type N
@example([parse_expr("g (\\y:O. a) \\/ a = Z \\/ g (\\y:O. a)")])
@example([parse_expr("((\\y:O. x) p = Z) \\/ ((\\y:O. x) p = Z)")])
def test_typing_loop_agrees_with_the_recursive_checker(formulas):
    try:
        expected = _typing_outcome(_reference_infer_env, formulas)
    except RecursionError:
        reject()
    assert _typing_outcome(infer_env, formulas) == expected


@pytest.mark.parametrize("text", [
    "(\\y:O. x) p = Z",
    "((\\y:O. x) p = Z) \\/ ((\\y:O. x) p = Z)",
    "x = Z \\/ (\\y:O. x) p = Z",
    "f p = Z \\/ f p",
])
def test_an_arrow_result_is_never_n_whichever_is_typed_first(text):
    # x is a lambda body, and f p an application's result: neither may be
    # N, whether the lambda or the equation that asks for N is met first
    with pytest.raises(HflTypeError):
        infer_env([parse_expr(text)])


def test_an_undetermined_type_names_the_first_variable_met():
    # the types of f and u both stay open; the walk meets f first
    with pytest.raises(HflTypeError, match="free variable 'f'"):
        infer_env([parse_expr("f u")])


# sequents whose p has type O when declared, not N -> O: the argument is an
# arrow of the wrong type, and the error names both arrows whole
P_IS_A_FORMULA = ("|- p \\/ (\\f:N->O. f Z) (\\x:O. x)", "p |- (\\f:N->O. f Z) (\\x:O. x)")


@pytest.mark.parametrize("text,expected,found", [
    ("|- p (S (Z = Z))", "N", "O"),
    ("|- p Z /\\ p (Z = Z)", "N", "O"),
    ("|- p Z \\/ S Z", "O", "N"),
    ("|- p (p Z)", "N", "O"),
    *((text, "N -> O", "O -> O") for text in P_IS_A_FORMULA),
])
def test_unifier_names_expected_and_found_as_the_direct_checker(text, expected, found):
    seq = parse_sequent(text)
    p_type = PROP if text in P_IS_A_FORMULA else arrow(NAT, PROP)
    named = []
    for env in (None, {"p": p_type}):  # p inferred, then p declared
        with pytest.raises(IllTyped) as err:
            check_sequent(seq, env)
        assert (err.value.expected, err.value.found) == (expected, found)
        named.append(to_str(err.value.subject))
    assert named[0] == named[1]


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


# the fixed point, mu x:O. x unless another is given, sits at the deep end of
# each chain, below 5,000 links
MU_X = Mu("x", PROP, Var("x"))
LONG_CHAINS = {
    "application": (lambda fix=MU_X: make_app(fix, *[Var("p")] * 5000), 0),
    "left-nested-or": (lambda fix=MU_X: functools.reduce(Or, [Var("p")] * 5000, fix), 0),
    "right-nested-or": (lambda fix=MU_X: functools.reduce(lambda e, _: Or(Var("p"), e),
                                                          range(5000), fix), 1),
}


@pytest.mark.parametrize("build,step", LONG_CHAINS.values(), ids=LONG_CHAINS.keys())
def test_long_chains_are_walked_hashed_and_compared_without_recursion(build, step):
    a, b = build(), build()
    assert free_vars(a) == {"p"}
    assert Sequent((a,), (b,)).free_vars() == {"p"}
    assert sigma_paths(a) == ((step,) * 5000,)
    assert sigma_paths(a) is sigma_paths(a)  # found once, kept on the formula
    assert annotate_root(a).notes == {(step,) * 5000: ()}
    for again in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert again is a and sigma_paths(again) is sigma_paths(a)
    assert hash(a) == hash(b) and a == b
    renamed = build(Mu("y", PROP, Var("y")))
    assert canonical(a) is canonical(renamed) is not a
    assert alpha_eq(a, renamed) and not alpha_eq(a, build(Mu("y", PROP, Var("p"))))
    q = substitute(a, {"p": Var("q")})
    assert free_vars(q) == {"q"} and sigma_paths(q) == sigma_paths(a)
    top = Nu("t", PROP, Var("t"))
    out, copies = substitute(a, {"p": top}), var_paths(a, "p")
    assert len(copies) == 5000 and var_paths(a, "x") == ()
    assert subexpr_at(out, copies[0]) is subexpr_at(out, copies[-1]) is top
    # the copies' operators sit at var_paths, and the one other operator is
    # a's, at the same path
    (kept,) = set(sigma_paths(out)) - set(copies)
    assert len(sigma_paths(out)) == 5001
    assert kept == (step,) * 5000 and subexpr_at(out, kept) is subexpr_at(a, kept)
    assert repr(a) == repr(b) and repr(a).count("Var(name='p')") == 5000
    if type(a) is Or:
        assert infer_env([a]) == {"p": PROP} and infer_type({"p": PROP}, a) is PROP
        assert check_sequent(Sequent((), (a,))) == {"p": PROP}


@pytest.mark.parametrize("build", [b for b, _ in LONG_CHAINS.values()], ids=LONG_CHAINS.keys())
def test_typing_a_long_chain_is_a_type_error(build):
    # the fault sits 5,000 links down: typing names it, not the chain's depth
    e = build(Zero())
    expected = "O" if type(e) is Or else "an arrow type"
    for typing in (lambda: infer_env([e]), lambda: infer_type({"p": PROP}, e),
                   lambda: check_sequent(Sequent((), (e,)))):
        with pytest.raises(IllTyped) as err:
            typing()
        assert err.value.subject is Zero() and err.value.expected == expected


@pytest.mark.parametrize("build", [b for b, _ in LONG_CHAINS.values()], ids=LONG_CHAINS.keys())
def test_a_long_chain_pickles_and_copies_to_itself(build):
    e = build()
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(e) is e and copy.copy(e) is e
    seq = Sequent((e,), (e,))
    assert pickle.loads(pickle.dumps(seq)) is seq and copy.deepcopy(seq) is seq


def test_a_shared_subformula_is_pickled_once():
    e = Var("p")
    for _ in range(64):  # 2**64 leaves as a tree, 65 distinct nodes
        e = Or(e, e)
    assert pickle.loads(pickle.dumps(e)) is e and copy.deepcopy(e) is e


def test_replace_at_follows_a_long_path_without_recursion():
    chain = make_app(Var("f"), *[Var("p")] * 5000)
    assert replace_at(chain, (0,) * 5000, Var("g")) is make_app(Var("g"), *[Var("p")] * 5000)
    assert replace_at(chain, (0,) * 4999 + (1,), Zero()) is make_app(
        Var("f"), Zero(), *[Var("p")] * 4999)


def test_a_long_successor_chain_is_term_shaped():
    chain = functools.reduce(lambda e, _: Succ(e), range(5000), Var("x"))
    assert is_term_shaped(chain) and not is_term_shaped(Succ(Or(chain, chain)))


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------

class TestInterning:
    """Formulas, types and sequents are one object per value."""

    @pytest.mark.parametrize("build", [
        lambda: parse_expr("mu X:N -> O. \\y:N. y = S Z \\/ X (S y)"),
        lambda: Arrow(arrow(NAT, PROP), PROP),
        lambda: parse_sequent("p, q |- nu t:O. t"),
        lambda: Eq(numeral(600), numeral(600)),
    ], ids=["formula", "type", "sequent", "deep-numeral"])
    def test_equal_constructions_are_one_object(self, build):
        assert build() is build()

    @pytest.mark.parametrize("make_a,make_b", [
        (lambda: Var("3"), lambda: numeral(3)),  # print alike
        (lambda: parse_expr("nu t:O. t"), lambda: parse_expr("nu s:O. s")),  # alpha-equivalent
        (lambda: Arrow(NAT, PROP), lambda: Arrow(PROP, PROP)),
        (lambda: parse_sequent("p |- q"), lambda: parse_sequent("p, q |-")),
    ], ids=["variable-numeral", "bound-names", "argument-type", "sides"])
    def test_distinct_values_stay_apart(self, make_a, make_b):
        assert make_a() is not make_b() and make_a() != make_b()

    @pytest.mark.parametrize("cls,args", [(Mu, ("x", NAT, Var("x"))), (Arrow, (PROP, NAT))],
                             ids=["fixed-point-of-type-N", "arrow-into-N"])
    def test_an_ill_formed_value_raises_and_is_not_kept(self, cls, args):
        with pytest.raises(HflTypeError):
            cls(*args)
        assert (cls, *args) not in _INTERNED

    def test_a_wrong_number_of_fields_is_a_type_error(self):
        with pytest.raises(TypeError, match="Var takes the fields"):
            Var()
        with pytest.raises(TypeError, match="Sequent takes the fields"):
            Sequent((Var("p"),))

    @pytest.mark.parametrize("value,field", [(Var("x"), "name"), (parse_sequent("p |- q"), "left")],
                             ids=["expr", "sequent"])
    def test_fields_are_frozen(self, value, field):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, Var("y"))
        with pytest.raises(FrozenInstanceError):
            delattr(value, field)

    def test_an_unused_value_is_given_back(self):
        value = Or(Var("given_back"), Eq(Zero(), Zero()))
        ref = weakref.ref(value)
        del value
        gc.collect()
        assert ref() is None

    def test_a_dead_value_leaves_the_table_and_is_made_again(self):
        def make():
            return Or(Var("made_again"), Eq(Zero(), Zero()))

        key = (Or, Var("made_again"), Eq(Zero(), Zero()))
        first = make()
        ref = _INTERNED[key]
        forget = ref.__callback__  # a dead reference drops its callback
        assert ref() is first
        del first
        gc.collect()
        assert key not in _INTERNED
        again = make()
        assert _INTERNED[key]() is again and make() is again
        # a late callback of the dead value's reference leaves the entry of
        # the live one in place
        forget(ref)
        assert _INTERNED[key]() is again and make() is again

    @pytest.mark.parametrize("value", [parse_expr("mu X:O. X \\/ p"), arrow(NAT, PROP),
                                       parse_sequent("p |- nu t:O. t")],
                             ids=["formula", "type", "sequent"])
    def test_a_copy_is_the_same_object(self, value):
        assert copy.copy(value) is copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value

    def test_free_variables_are_a_frozen_slot_and_not_a_field(self):
        e = parse_expr("\\x:N. p x y")
        assert e.free == {"p", "y"} and e.body.free == {"p", "x", "y"}
        with pytest.raises(TypeError, match="Var takes the fields"):
            Var("x", frozenset())
        with pytest.raises(FrozenInstanceError):
            e.free = frozenset()
        with pytest.raises(FrozenInstanceError):
            del e.free
        for copied in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert copied.free is e.free
        assert "free" not in repr(e)

    def test_repr_names_the_fields(self):
        assert repr(Lam("x", NAT, Var("x"))) == "Lam(var='x', var_type=NatType(), body=Var(name='x'))"
        assert repr(parse_sequent("|- Z")) == "Sequent(left=(), right=(Zero(),))"
