"""The derived encodings of HFL_N: truth and falsity at each type, the
quantifiers, and arithmetic predicates, as formulas of :mod:`hflcyc.syntax`.

The checker builds none of these.  The two that its ``Nat`` rule needs,
:func:`~hflcyc.syntax.nat_pred` and :func:`~hflcyc.syntax.exists_nat`, are
in :mod:`hflcyc.syntax`.  The tests and the bounded semantics of
:mod:`hflcyc.semantics` use the rest.
"""

from __future__ import annotations

from .syntax import (
    NAT,
    PROP,
    And,
    App,
    Eq,
    Expr,
    Lam,
    Mu,
    Nu,
    Or,
    SimpleType,
    Succ,
    Var,
    Zero,
    _fresh_variant,
    arrow,
    exists_nat,
    free_vars,
    make_app,
    nat_pred,
    substitute,
)

__all__ = [
    "bot_prop",
    "bot_ty",
    "derived_encodings",
    "exists_ty",
    "forall_combinator",
    "forall_nat",
    "forall_ty",
    "leq",
    "leq_pred",
    "lt",
    "neq",
    "sum_pred",
    "top_prop",
    "top_ty",
]


def top_prop() -> Expr:
    return Nu("t", PROP, Var("t"))


def bot_prop() -> Expr:
    return Mu("b", PROP, Var("b"))


def top_ty(ty: SimpleType) -> Expr:
    """The greatest element of type ty, as the formula nu x:ty. x."""
    return Nu("t", ty, Var("t"))


def bot_ty(ty: SimpleType) -> Expr:
    return Mu("b", ty, Var("b"))


def forall_nat(x: str, phi: Expr) -> Expr:
    """forall x:N. phi  :=  (nu A:N->O. \\y:N. phi[y/x] /\\ A (S y)) Z."""
    avoid = free_vars(phi) - {x}
    y = _fresh_variant(x, avoid)
    a = _fresh_variant("A", avoid | {y})
    body = substitute(phi, {x: Var(y)})
    return App(Nu(a, arrow(NAT, PROP), Lam(y, NAT, And(body, App(Var(a), Succ(Var(y)))))), Zero())


def exists_ty(x: str, ty: SimpleType, phi: Expr) -> Expr:
    """exists x:T. phi  :=  (\\x:T. phi) top_T (by monotonicity)."""
    return App(Lam(x, ty, phi), top_ty(ty))


def forall_ty(x: str, ty: SimpleType, phi: Expr) -> Expr:
    return App(Lam(x, ty, phi), bot_ty(ty))


def forall_combinator() -> Expr:
    """nu X. \\p:N->O. \\x:N. p x /\\ X p (S x)."""
    pno = arrow(NAT, PROP)
    return Nu("X", arrow(pno, NAT, PROP),
              Lam("p", pno, Lam("x", NAT,
                  And(App(Var("p"), Var("x")),
                      make_app(Var("X"), Var("p"), Succ(Var("x")))))))



def sum_pred() -> Expr:
    """sum x y z  <=>  x + y = z, by the standard inductive definition."""
    rec = exists_nat("x'", exists_nat("z'", And(
        Eq(Var("x"), Succ(Var("x'"))),
        And(make_app(Var("sum"), Var("x'"), Var("y"), Var("z'")),
            Eq(Var("z"), Succ(Var("z'")))))))
    return Mu("sum", arrow(NAT, NAT, NAT, PROP),
              Lam("x", NAT, Lam("y", NAT, Lam("z", NAT,
                  Or(And(Eq(Var("x"), Zero()), Eq(Var("y"), Var("z"))), rec)))))


def lt(s: Expr, t: Expr) -> Expr:
    """s < t  :=  (mu X. \\y:N. (S y = t) \\/ X (S y)) s."""
    avoid = free_vars(s) | free_vars(t)
    y = _fresh_variant("y", avoid)
    x = _fresh_variant("X", avoid | {y})
    return App(Mu(x, arrow(NAT, PROP),
                  Lam(y, NAT, Or(Eq(Succ(Var(y)), t), App(Var(x), Succ(Var(y)))))), s)


def neq(s: Expr, t: Expr) -> Expr:
    return Or(lt(s, t), lt(t, s))


def leq_pred() -> Expr:
    """leq := mu Y. \\n:N. \\m:N. (n = m) \\/ Y (S n) m."""
    return Mu("Y", arrow(NAT, NAT, PROP),
              Lam("n", NAT, Lam("m", NAT,
                  Or(Eq(Var("n"), Var("m")),
                     make_app(Var("Y"), Succ(Var("n")), Var("m"))))))


def leq(s: Expr, t: Expr) -> Expr:
    return make_app(leq_pred(), s, t)


def derived_encodings() -> dict[str, object]:
    """The standard encodings, closed formulas directly and families as callables."""
    return {
        "top": top_prop(),
        "bot": bot_prop(),
        "top_T": top_ty,
        "bot_T": bot_ty,
        "forall": forall_combinator(),
        "exists": exists_nat,
        "exists_T": exists_ty,
        "forall_nat": forall_nat,
        "forall_T": forall_ty,
        "nat": nat_pred(),
        "sum": sum_pred(),
        "lt": lt,
        "neq": neq,
        "leq": leq_pred(),
    }
