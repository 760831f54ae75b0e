"""Object language: simple types, terms and formulas, parsing, printing,
type inference and capture-avoiding substitution.

The term language is ``x | Z | S t`` and the formula language is

    phi ::= s = t | phi \\/ phi | phi /\\ phi | x | \\x:A. phi
          | phi psi | phi t | mu x:T. phi | nu x:T. phi

Both layers share one expression datatype; the two application typing rules
are disambiguated by type inference, not by a stored tag.  Alpha-equivalence
(not syntactic equality) is the notion of identity every other module uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Union

# ---------------------------------------------------------------------------
# Simple types
# ---------------------------------------------------------------------------


class SimpleType:
    """Base class for the simple types N, O and A -> T."""

    __slots__ = ()

    def __str__(self) -> str:
        return type_to_str(self)


@dataclass(frozen=True)
class NatType(SimpleType):
    __slots__ = ()


@dataclass(frozen=True)
class PropType(SimpleType):
    __slots__ = ()


@dataclass(frozen=True)
class Arrow(SimpleType):
    __slots__ = ("arg", "result")
    arg: SimpleType
    result: SimpleType

    def __post_init__(self) -> None:
        if isinstance(self.result, NatType):
            raise HflTypeError("arrow result must be a proposition type, not N")


NAT = NatType()
PROP = PropType()


def arrow(*types: SimpleType) -> SimpleType:
    """Right-associated arrow: arrow(A, B, C) = A -> (B -> C)."""
    if not types:
        raise ValueError("arrow needs at least one type")
    result = types[-1]
    for arg in reversed(types[:-1]):
        result = Arrow(arg, result)
    return result


def type_to_str(ty: SimpleType) -> str:
    if isinstance(ty, NatType):
        return "N"
    if isinstance(ty, PropType):
        return "O"
    if isinstance(ty, Arrow):
        left = type_to_str(ty.arg)
        if isinstance(ty.arg, Arrow):
            left = f"({left})"
        return f"{left} -> {type_to_str(ty.result)}"
    return "?"  # inference metavariable


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class HflError(Exception):
    """Base class for all object-language errors."""


class HflSyntaxError(HflError):
    def __init__(self, message: str, text: str = "", pos: int = -1):
        if pos >= 0:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.pos = pos


class HflTypeError(HflError):
    pass


class UnboundVariable(HflTypeError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class IllTyped(HflTypeError):
    def __init__(self, subject, expected: str, found: str):
        super().__init__(f"ill-typed {to_str(subject)!r}: expected {expected}, found {found}")
        self.subject = subject
        self.expected = expected
        self.found = found


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of terms and formulas (immutable, structurally hashable)."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True)
class Var(Expr):
    __slots__ = ("name",)
    name: str


@dataclass(frozen=True)
class Zero(Expr):
    __slots__ = ()


@dataclass(frozen=True)
class Succ(Expr):
    __slots__ = ("arg",)
    arg: Expr


@dataclass(frozen=True)
class Eq(Expr):
    __slots__ = ("lhs", "rhs")
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Or(Expr):
    __slots__ = ("lhs", "rhs")
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class And(Expr):
    __slots__ = ("lhs", "rhs")
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Lam(Expr):
    __slots__ = ("var", "var_type", "body")
    var: str
    var_type: SimpleType
    body: Expr


@dataclass(frozen=True)
class App(Expr):
    __slots__ = ("fn", "arg")
    fn: Expr
    arg: Expr


@dataclass(frozen=True)
class Mu(Expr):
    __slots__ = ("var", "var_type", "body")
    var: str
    var_type: SimpleType
    body: Expr

    def __post_init__(self) -> None:
        if isinstance(self.var_type, NatType):
            raise HflTypeError("fixed-point binder cannot have type N")


@dataclass(frozen=True)
class Nu(Expr):
    __slots__ = ("var", "var_type", "body")
    var: str
    var_type: SimpleType
    body: Expr

    def __post_init__(self) -> None:
        if isinstance(self.var_type, NatType):
            raise HflTypeError("fixed-point binder cannot have type N")


FIXPOINTS = (Mu, Nu)
BINDERS = (Lam, Mu, Nu)

Path = tuple[int, ...]


def children(e: Expr) -> tuple[Expr, ...]:
    """Subexpressions in canonical child order (defines path indices)."""
    if isinstance(e, (Var, Zero)):
        return ()
    if isinstance(e, Succ):
        return (e.arg,)
    if isinstance(e, (Eq, Or, And)):
        return (e.lhs, e.rhs)
    if isinstance(e, BINDERS):
        return (e.body,)
    if isinstance(e, App):
        return (e.fn, e.arg)
    raise TypeError(f"not an expression: {e!r}")


def rebuild(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    """Rebuild a node of the same shape with new children."""
    if isinstance(e, (Var, Zero)):
        return e
    if isinstance(e, Succ):
        return Succ(*kids)
    if isinstance(e, (Eq, Or, And, App)):
        return type(e)(*kids)
    if isinstance(e, BINDERS):
        return type(e)(e.var, e.var_type, kids[0])
    raise TypeError(f"not an expression: {e!r}")


def subexpr_at(e: Expr, path: Path) -> Expr:
    for i in path:
        e = children(e)[i]
    return e


def replace_at(e: Expr, path: Path, sub: Expr) -> Expr:
    if not path:
        return sub
    kids = list(children(e))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], sub)
    return rebuild(e, tuple(kids))


def sigma_paths(e: Expr) -> tuple[Path, ...]:
    """Paths of every fixed-point operator in preorder."""
    out: list[Path] = []
    _sigma_walk(e, (), out)
    return tuple(out)


def _sigma_walk(e: Expr, path: Path, out: list[Path]) -> None:
    while True:  # the last child is walked by this loop, the others recursively
        t = type(e)
        if t is Mu or t is Nu:
            out.append(path)
        if t is App:
            _sigma_walk(e.fn, path + (0,), out)
            e, path = e.arg, path + (1,)
        elif t is Var or t is Zero:
            return
        else:
            kids = children(e)
            for i in range(len(kids) - 1):
                _sigma_walk(kids[i], path + (i,), out)
            e, path = kids[-1], path + (len(kids) - 1,)


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, BINDERS):
        return free_vars(e.body) - {e.var}
    out: frozenset[str] = frozenset()
    for kid in children(e):
        out |= free_vars(kid)
    return out


def is_term_shaped(e: Expr) -> bool:
    """True for expressions built only from Var, Z and S (term candidates)."""
    if isinstance(e, Var):
        return True
    if isinstance(e, Zero):
        return True
    if isinstance(e, Succ):
        return is_term_shaped(e.arg)
    return False


def numeral(n: int) -> Expr:
    """The closed term S^n Z."""
    if n < 0:
        raise ValueError("numerals are non-negative")
    e: Expr = Zero()
    for _ in range(n):
        e = Succ(e)
    return e


def numeral_value(e: Expr) -> Optional[int]:
    """n when e is S^n Z, else None."""
    n = 0
    while isinstance(e, Succ):
        n += 1
        e = e.arg
    return n if isinstance(e, Zero) else None


def app_spine(e: Expr) -> tuple[Expr, tuple[Expr, ...]]:
    """Unroll an application chain: app_spine(f a b) = (f, (a, b))."""
    args: list[Expr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    return e, tuple(reversed(args))


def make_app(fn: Expr, *args: Expr) -> Expr:
    for a in args:
        fn = App(fn, a)
    return fn


# ---------------------------------------------------------------------------
# Alpha-equivalence
# ---------------------------------------------------------------------------

# Canonical bound names use a character the lexer rejects, so they can never
# collide with user-written free variables.
_CANON = "\x00"


def canonical(e: Expr) -> Expr:
    """Rename bound variables to a canonical scheme (de Bruijn levels).

    The result has the same tree structure as the input (paths are stable),
    and two expressions are alpha-equivalent iff their canonical forms are
    structurally equal.  Free variables are left untouched.
    """

    def go(e: Expr, env: Mapping[str, str], depth: int) -> Expr:
        if isinstance(e, Var):
            return Var(env.get(e.name, e.name))
        if isinstance(e, BINDERS):
            fresh = _CANON + str(depth)
            body = go(e.body, {**env, e.var: fresh}, depth + 1)
            return type(e)(fresh, e.var_type, body)
        kids = tuple(go(k, env, depth) for k in children(e))
        return rebuild(e, kids)

    return go(e, {}, 0)


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Alpha-equivalence, by one simultaneous walk over both expressions.

    A bound name is compared by the depth of the binder that binds it and a
    free name by its text, so the answer is that of comparing canonical forms.
    """
    return a is b or _alpha(a, b, {}, {}, 0)


def _alpha(a: Expr, b: Expr, env_a: dict[str, int], env_b: dict[str, int],
           depth: int) -> bool:
    while True:
        t = type(a)
        if t is not type(b):
            return False
        if t is Var:
            level = env_a.get(a.name)
            return level == env_b.get(b.name) and (level is not None or a.name == b.name)
        if t is Zero:
            return True
        if t is Succ:
            a, b = a.arg, b.arg
        elif t is App:
            if not _alpha(a.fn, b.fn, env_a, env_b, depth):
                return False
            a, b = a.arg, b.arg
        elif t is Eq or t is Or or t is And:
            if not _alpha(a.lhs, b.lhs, env_a, env_b, depth):
                return False
            a, b = a.rhs, b.rhs
        elif t is Lam or t is Mu or t is Nu:
            if a.var_type != b.var_type:
                return False
            env_a = {**env_a, a.var: depth}
            env_b = {**env_b, b.var: depth}
            depth += 1
            a, b = a.body, b.body
        else:
            raise TypeError(f"not an expression: {a!r}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def _fresh_variant(name: str, avoid: frozenset[str]) -> str:
    """`name` itself when available, else the smallest unused numeric suffix."""
    if name not in avoid:
        return name
    base = re.sub(r"_\d+$", "", name) or "v"
    k = 2
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def substitute(e: Expr, subst: Mapping[str, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution e[subst].

    Binders are renamed (deterministically) only when they would capture a
    free variable of a live replacement.
    """
    return _substitute(e, subst, None)


# --- the substitution walk ---------------------------------------------------
#
# substitute and substitute_traced are one walk, _substitute.  It descends only
# into subtrees where some substituted variable is free, and renames a binder
# only when it would capture a free variable of a replacement; the renaming is
# itself a substitution by the same walk.  The trace/gtc machinery also needs
# to know, for every fixed-point operator of e[subst], whether it comes from
# the skeleton of e or sits inside the j-th substituted copy of some
# replacement (occurrences numbered per variable in preorder).  Renaming
# preserves tree structure, so a skeleton operator keeps its path and origins
# are exact path correspondences.  The walk records them only when it is given
# a dict to fill, so the kernel's untraced substitutions pay nothing for them.


@dataclass(frozen=True)
class FromSkeleton:
    """Operator in the result corresponds to the one at `src` in the source."""

    src: Path


@dataclass(frozen=True)
class FromCopy:
    """Operator inside the copy-th inserted replacement for `var`, at `src`
    relative to the replacement's root."""

    var: str
    copy: int
    src: Path


SigmaOrigin = Union[FromSkeleton, FromCopy]


def substitute_traced(e: Expr, subst: Mapping[str, Expr]) -> tuple[Expr, dict[Path, SigmaOrigin]]:
    """substitute(e, subst) together with an origin for each fixed-point
    operator position of the result."""
    origins: dict[Path, SigmaOrigin] = {}
    return _substitute(e, subst, origins), origins


def _substitute(e: Expr, subst: Mapping[str, Expr],
                origins: Optional[dict[Path, SigmaOrigin]]) -> Expr:
    """The capture-avoiding substitution walk; fills `origins` unless None."""
    counters: dict[str, int] = {}

    def go(e: Expr, sub: Mapping[str, Expr], path: Path) -> Expr:
        live = {x: r for x, r in sub.items() if x in free_vars(e)}
        if not live:
            if origins is not None:
                for p in sigma_paths(e):
                    origins[path + p] = FromSkeleton(path + p)
            return e
        if isinstance(e, Var):  # e.name is a live key
            repl = live[e.name]
            if origins is not None:
                copy = counters.get(e.name, 0)
                counters[e.name] = copy + 1
                for p in sigma_paths(repl):
                    origins[path + p] = FromCopy(e.name, copy, p)
            return repl
        if isinstance(e, BINDERS):
            # every live key is free in e, so none is e.var
            repl_fvs: frozenset[str] = frozenset()
            for repl in live.values():
                repl_fvs |= free_vars(repl)
            var, body = e.var, e.body
            if var in repl_fvs:
                new = _fresh_variant(var, repl_fvs | free_vars(body))
                body = _substitute(body, {var: Var(new)}, None)
                var = new
            if origins is not None and isinstance(e, FIXPOINTS):
                origins[path] = FromSkeleton(path)
            return type(e)(var, e.var_type, go(body, live, path + (0,)))
        return rebuild(e, tuple(go(k, live, path + (i,)) for i, k in enumerate(children(e))))

    return go(e, subst, ())


def count_occurrences(e: Expr, x: str) -> int:
    """Number of free occurrences of x in e (the Mono premise count)."""
    if isinstance(e, Var):
        return 1 if e.name == x else 0
    if isinstance(e, BINDERS):
        return 0 if e.var == x else count_occurrences(e.body, x)
    return sum(count_occurrences(k, x) for k in children(e))


# --- head reduction steps ---------------------------------------------------


def _head_redex(e: Expr, beta: bool) -> tuple[Expr, Expr, tuple[Expr, ...]]:
    """Split e at its head redex, a lambda when `beta` and else a fixed point,
    into the head binder, the expression substituted for its variable and
    the arguments kept after the step."""
    head, args = app_spine(e)
    if beta:
        if not isinstance(head, Lam) or not args:
            raise HflError(f"no head beta-redex in {to_str(e)!r}")
        return head, args[0], args[1:]
    if not isinstance(head, FIXPOINTS):
        raise HflError(f"head of {to_str(e)!r} is not a fixed-point")
    return head, head, args


def beta_head(e: Expr) -> Expr:
    """One beta step on the head redex: (\\x. phi) psi psi_vec -> phi[psi/x] psi_vec."""
    head, repl, rest = _head_redex(e, beta=True)
    return make_app(substitute(head.body, {head.var: repl}), *rest)


def unfold(e: Expr) -> Expr:
    """Unfold a fixed-point head: (sigma x. phi) psi_vec -> phi[sigma x. phi/x] psi_vec."""
    head, repl, rest = _head_redex(e, beta=False)
    return make_app(substitute(head.body, {head.var: repl}), *rest)


@dataclass(frozen=True)
class HeadStep:
    """A head reduction step together with the induced correspondence of
    fixed-point operator positions.

    sources maps every sigma-path of `result` to the sigma-path of the source
    expression it descends from.  For an unfold, the consumed operator sits at
    `head_path` in the source; its descendants in the result are exactly the
    roots of the substituted copies, listed in `copy_roots`, and sigma_kind
    is "mu" or "nu" as it is a least or a greatest fixed point.  For a beta
    step head_path and sigma_kind are None and copy_roots is empty: every
    result operator has a unique source and no operator is consumed or
    duplicated at the root.
    """

    result: Expr
    sources: dict[Path, Path]
    head_path: Optional[Path]
    copy_roots: tuple[Path, ...]
    sigma_kind: Optional[str]


def _spine_arg_sources(e: Expr, kept_args: int, sources: dict[Path, Path]) -> None:
    """Record identity sources for operators inside shared spine arguments.

    The outermost kept_args applied arguments occupy identical paths in the
    source and the result spine (the i-th argument from the outside sits at
    (0,)*(i-1) + (1,) in both), so their operators map by the identity.
    """
    p: Path = ()
    for _ in range(kept_args):
        arg_path = p + (1,)
        for q in sigma_paths(subexpr_at(e, arg_path)):
            sources[arg_path + q] = arg_path + q
        p = p + (0,)


def beta_head_traced(e: Expr) -> HeadStep:
    """beta_head together with the sigma-position correspondence."""
    return _head_step_traced(e, beta=True)


def unfold_traced(e: Expr) -> HeadStep:
    """unfold together with the sigma-position correspondence.

    Every operator inside the consumed head's body appears once in the result
    skeleton and once inside each substituted copy; the head itself descends
    exactly to the copy roots.
    """
    return _head_step_traced(e, beta=False)


def _head_step_traced(e: Expr, beta: bool) -> HeadStep:
    head, repl, rest = _head_redex(e, beta)
    origins: dict[Path, SigmaOrigin] = {}
    result = make_app(_substitute(head.body, {head.var: repl}, origins), *rest)
    sources: dict[Path, Path] = {}
    _spine_arg_sources(e, len(rest), sources)
    core_prefix = (0,) * len(rest)
    # a beta redex's head is applied to the replacement as well, as the
    # innermost argument; an unfolded head is the replacement itself
    head_path = core_prefix + (0,) if beta else core_prefix
    repl_path = core_prefix + (1,) if beta else head_path
    copy_roots: list[Path] = []
    for p, origin in origins.items():
        rp = core_prefix + p
        if isinstance(origin, FromSkeleton):
            sources[rp] = head_path + (0,) + origin.src
        else:
            sources[rp] = repl_path + origin.src
            if not beta and origin.src == ():  # the root of a copy of the head
                copy_roots.append(rp)
    if beta:
        return HeadStep(result, sources, None, (), None)
    return HeadStep(result, sources, head_path, tuple(sorted(copy_roots)),
                    "mu" if isinstance(head, Mu) else "nu")


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TMeta(SimpleType):
    """Type metavariable used only inside inference."""

    __slots__ = ("id",)
    id: int


class _Unifier:
    def __init__(self) -> None:
        self.sol: dict[int, SimpleType] = {}
        self._next = 0

    def fresh(self) -> _TMeta:
        self._next += 1
        return _TMeta(self._next)

    def resolve(self, ty: SimpleType) -> SimpleType:
        while isinstance(ty, _TMeta) and ty.id in self.sol:
            ty = self.sol[ty.id]
        if isinstance(ty, Arrow):
            return Arrow(self.resolve(ty.arg), self.resolve(ty.result))
        return ty

    def unify(self, found: SimpleType, want: SimpleType, where: Expr) -> None:
        found, want = self.resolve(found), self.resolve(want)
        if found == want:
            return
        if isinstance(found, _TMeta):
            self.sol[found.id] = want
            return
        if isinstance(want, _TMeta):
            self.sol[want.id] = found
            return
        if isinstance(found, Arrow) and isinstance(want, Arrow):
            self.unify(found.arg, want.arg, where)
            self.unify(found.result, want.result, where)
            return
        raise IllTyped(where, type_to_str(want), type_to_str(found))


def _infer(e: Expr, env: dict[str, SimpleType], uni: Optional[_Unifier]) -> SimpleType:
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, Zero):
        return NAT
    if isinstance(e, Succ):
        _expect(e.arg, _infer(e.arg, env, uni), NAT, uni)
        return NAT
    if isinstance(e, Eq):
        _expect(e.lhs, _infer(e.lhs, env, uni), NAT, uni)
        _expect(e.rhs, _infer(e.rhs, env, uni), NAT, uni)
        return PROP
    if isinstance(e, (Or, And)):
        _expect(e.lhs, _infer(e.lhs, env, uni), PROP, uni)
        _expect(e.rhs, _infer(e.rhs, env, uni), PROP, uni)
        return PROP
    if isinstance(e, Lam):
        inner = dict(env)
        inner[e.var] = e.var_type
        body_ty = _infer(e.body, inner, uni)
        resolved = uni.resolve(body_ty) if uni else body_ty
        if isinstance(resolved, NatType):
            raise HflTypeError(f"abstraction body {to_str(e.body)!r} has type N")
        return Arrow(e.var_type, body_ty)
    if isinstance(e, FIXPOINTS):
        inner = dict(env)
        inner[e.var] = e.var_type
        body_ty = _infer(e.body, inner, uni)
        _expect(e.body, body_ty, e.var_type, uni)
        return e.var_type
    if isinstance(e, App):
        fn_ty = _infer(e.fn, env, uni)
        arg_ty = _infer(e.arg, env, uni)
        if uni:
            result = uni.fresh()
            uni.unify(Arrow(arg_ty, result), fn_ty, e)
            return result
        if not isinstance(fn_ty, Arrow):
            raise IllTyped(e.fn, "an arrow type", type_to_str(fn_ty))
        if fn_ty.arg != arg_ty:
            raise IllTyped(e.arg, type_to_str(fn_ty.arg), type_to_str(arg_ty))
        return fn_ty.result
    raise TypeError(f"not an expression: {e!r}")


def _expect(where: Expr, found: SimpleType, want: SimpleType, uni: Optional[_Unifier]) -> None:
    if uni:
        uni.unify(found, want, where)
    elif found != want:
        raise IllTyped(where, type_to_str(want), type_to_str(found))


def infer_type(env: Mapping[str, SimpleType], e: Expr) -> SimpleType:
    """The unique type of e under env (syntax-directed; raises on failure)."""
    return _infer(e, dict(env), None)


def infer_env(formulas, env: Optional[Mapping[str, SimpleType]] = None) -> dict[str, SimpleType]:
    """Infer types for the free variables of the given Omega-formulas.

    Known types may be supplied in env; the result extends it.  Raises
    HflTypeError when a free variable's type is not fully determined.
    """
    full: dict[str, SimpleType] = dict(env or {})
    try:  # when every free variable's type is known, no unifier is needed
        for phi in formulas:
            _expect(phi, _infer(phi, full, None), PROP, None)
        return full
    except UnboundVariable:
        pass
    uni = _Unifier()
    metas: dict[str, _TMeta] = {}
    for phi in formulas:
        for name in free_vars(phi):
            if name not in full and name not in metas:
                metas[name] = uni.fresh()
    scope = {**full, **metas}
    for phi in formulas:
        _expect(phi, _infer(phi, scope, uni), PROP, uni)
    for name, meta in metas.items():
        ty = uni.resolve(meta)
        if _has_meta(ty):
            raise HflTypeError(f"cannot determine the type of free variable {name!r}")
        full[name] = ty
    return full


def _has_meta(ty: SimpleType) -> bool:
    if isinstance(ty, Arrow):
        return _has_meta(ty.arg) or _has_meta(ty.result)
    return isinstance(ty, _TMeta)


# ---------------------------------------------------------------------------
# Sequents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sequent:
    """A pair of ordered formula lists Gamma |- Delta."""

    left: tuple[Expr, ...]
    right: tuple[Expr, ...]

    def __str__(self) -> str:
        return sequent_to_str(self)

    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for phi in self.left + self.right:
            out |= free_vars(phi)
        return out


def sequent(left=(), right=()) -> Sequent:
    return Sequent(tuple(left), tuple(right))


def sequent_alpha_eq(a: Sequent, b: Sequent) -> bool:
    return (len(a.left) == len(b.left) and len(a.right) == len(b.right)
            and all(map(alpha_eq, a.left + a.right, b.left + b.right)))


def check_sequent(seq: Sequent, env: Optional[Mapping[str, SimpleType]] = None) -> dict[str, SimpleType]:
    """Type-check every member formula at type O; returns the inferred env."""
    return infer_env(seq.left + seq.right, env)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# Every character is in one match (blanks and comments, an operator, a number,
# a name, punctuation, or one character that starts no token), so a token's
# position is the total length of the matches before it.
_TOKEN_RE = re.compile(
    r"\s+|\#[^\n]*|->|\\/|/\\|\\|\|-|⊢|\d+|[A-Za-z_][A-Za-z0-9_']*|[().:,=]|.",
    re.DOTALL)

_KINDS = {"->": "arrow", "\\/": "orop", "/\\": "andop", "\\": "lam",
          "|-": "turnstile", "⊢": "turnstile", "mu": "mu", "nu": "nu", "Z": "Z",
          "S": "S", **dict.fromkeys("().:,=", "punct")}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

Token = tuple[str, str, int]
"""(kind, text, position); a keyword's kind is its own text."""


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    pos = 0
    for tok in _TOKEN_RE.findall(text):
        kind = _KINDS.get(tok)
        if kind is None:
            first = tok[0]
            if first in _NAME_START:
                kind = "ident"
            elif first.isdecimal():
                kind = "num"
            elif not (first.isspace() or first == "#"):
                raise HflSyntaxError(f"unexpected character {tok!r}", text, pos)
        if kind:
            toks.append((kind, tok, pos))
        pos += len(tok)
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    # -- helpers --
    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.next()
        if tok[0] != kind and tok[1] != kind:
            raise HflSyntaxError(
                f"expected {what or kind!r}, found {tok[1] or 'end of input'!r}",
                self.text, tok[2])
        return tok

    def fail(self, message: str):
        raise HflSyntaxError(message, self.text, self.peek()[2])

    # -- types --
    def type_atom(self) -> SimpleType:
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

    def type_expr(self) -> SimpleType:
        left = self.type_atom()
        if self.peek()[0] == "arrow":
            tok = self.next()
            try:
                return Arrow(left, self.type_expr())
            except HflTypeError as exc:
                raise HflSyntaxError(str(exc), self.text, tok[2]) from None
        return left

    # -- expressions --
    def expr(self) -> Expr:
        tok = self.peek()
        if tok[0] == "lam":
            self.next()
            name = self.expect("ident", "a variable")[1]
            self.expect(":", ":")
            ty = self.type_expr()
            self.expect(".", ".")
            return Lam(name, ty, self.expr())
        if tok[0] in ("mu", "nu"):
            self.next()
            name = self.expect("ident", "a variable")[1]
            self.expect(":", ":")
            ty = self.type_expr()
            self.expect(".", ".")
            body = self.expr()
            try:
                return (Mu if tok[0] == "mu" else Nu)(name, ty, body)
            except HflTypeError as exc:
                raise HflSyntaxError(str(exc), self.text, tok[2]) from None
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.peek()[0] == "orop":
            self.next()
            if self.peek()[0] in ("lam", "mu", "nu"):
                return Or(left, self.expr())  # binder body extends maximally
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.eq_expr()
        while self.peek()[0] == "andop":
            self.next()
            if self.peek()[0] in ("lam", "mu", "nu"):
                return And(left, self.expr())
            left = And(left, self.eq_expr())
        return left

    def eq_expr(self) -> Expr:
        left = self.app_expr()
        if self.peek()[1] == "=":
            self.next()
            return Eq(left, self.app_expr())
        return left

    def app_expr(self) -> Expr:
        head = self.atom()
        while True:
            kind, text, _pos = self.peek()
            if kind in ("ident", "num", "Z", "S") or text == "(":
                head = App(head, self.atom())
            else:
                break
        return head

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if text == "(":
            e = self.expr()
            self.expect(")", ")")
            return e
        if kind == "Z":
            return Zero()
        if kind == "S":
            # S binds to the immediately following atom: S x, S (f y), S S x.
            return Succ(self.atom())
        if kind == "num":
            return numeral(int(text))
        if kind == "ident":
            return Var(text)
        raise HflSyntaxError(f"expected an expression, found {text or 'end of input'!r}",
                             self.text, pos)

    # -- sequents --
    def formula_list(self, stop_kinds: tuple[str, ...]) -> tuple[Expr, ...]:
        if self.peek()[0] in stop_kinds:
            return ()
        items = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            items.append(self.expr())
        return tuple(items)

    def sequent(self) -> Sequent:
        left = self.formula_list(("turnstile",))
        self.expect("turnstile", "|-")
        right = self.formula_list(("eof",))
        return Sequent(left, right)


def _parse_all(text: str, rule):
    p = _Parser(text)
    out = rule(p)
    if p.peek()[0] != "eof":
        p.fail(f"unexpected trailing input {p.peek()[1]!r}")
    return out


def parse_expr(text: str) -> Expr:
    return _parse_all(text, _Parser.expr)


def parse_sequent(text: str) -> Sequent:
    return _parse_all(text, _Parser.sequent)


def parse_type(text: str) -> SimpleType:
    return _parse_all(text, _Parser.type_expr)


def parse(text: str) -> Union[Expr, Sequent]:
    """Parse a formula, a term, or (when a turnstile is present) a sequent."""
    if any(t[0] == "turnstile" for t in _tokenize(text)):
        return parse_sequent(text)
    return parse_expr(text)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence levels: binder bodies 0, \/ 1, /\ 2, = 3, application 4, atoms 5.


def to_str(e: Expr, notes: Optional[Mapping[Path, tuple[int, ...]]] = None) -> str:
    """The concrete syntax of e.  With ``notes``, the fixed-point operator at
    each path p carries ``notes[p]`` in braces (nothing when it is empty)."""
    return _print(e, 0, (), notes)


# separator, precedence, and the levels of the two operands
_BINARY = {Eq: (" = ", 3, 4, 4), Or: (" \\/ ", 1, 1, 2), And: (" /\\ ", 2, 2, 3),
           App: (" ", 4, 4, 5)}


def _print(e: Expr, level: int, path: Path, notes) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Zero):
        return "Z"
    if isinstance(e, Succ):
        n = numeral_value(e)
        if n is not None:
            return str(n)
        return _wrap(f"S {_print(e.arg, 5, path + (0,), notes)}", 4, level)
    if isinstance(e, BINDERS):
        head = "\\"
        if isinstance(e, FIXPOINTS):
            note = notes[path] if notes is not None else ()
            label = "{" + ".".join(map(str, note)) + "}" if note else ""
            head = ("mu" if isinstance(e, Mu) else "nu") + label + " "
        body = _print(e.body, 0, path + (0,), notes)
        return _wrap(f"{head}{e.var}:{type_to_str(e.var_type)}. {body}", 0, level)
    if type(e) in _BINARY:
        sep, prec, left, right = _BINARY[type(e)]
        lhs, rhs = children(e)
        return _wrap(_print(lhs, left, path + (0,), notes) + sep
                     + _print(rhs, right, path + (1,), notes), prec, level)
    raise TypeError(f"not an expression: {e!r}")


def _wrap(s: str, prec: int, level: int) -> str:
    return s if prec >= level else f"({s})"


def sequent_to_str(seq: Sequent) -> str:
    left = ", ".join(to_str(f) for f in seq.left)
    right = ", ".join(to_str(f) for f in seq.right)
    if left:
        return f"{left} |- {right}" if right else f"{left} |-"
    return f"|- {right}" if right else "|-"


# ---------------------------------------------------------------------------
# Derived encodings
# ---------------------------------------------------------------------------


def top_prop() -> Expr:
    return Nu("t", PROP, Var("t"))


def bot_prop() -> Expr:
    return Mu("b", PROP, Var("b"))


def top_ty(ty: SimpleType) -> Expr:
    """The greatest element of type ty, as the formula nu x:ty. x."""
    return Nu("t", ty, Var("t"))


def bot_ty(ty: SimpleType) -> Expr:
    return Mu("b", ty, Var("b"))


def exists_nat(x: str, phi: Expr) -> Expr:
    """exists x:N. phi  :=  (mu E:N->O. \\y:N. phi[y/x] \\/ E (S y)) Z."""
    avoid = free_vars(phi) - {x}
    y = _fresh_variant(x, avoid)
    e = _fresh_variant("E", avoid | {y})
    body = substitute(phi, {x: Var(y)})
    return App(Mu(e, arrow(NAT, PROP), Lam(y, NAT, Or(body, App(Var(e), Succ(Var(y)))))), Zero())


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


def nat_pred() -> Expr:
    """N := mu X. \\x:N. (x = Z) \\/ exists x'. (x = S x' /\\ X x')."""
    step = exists_nat("x'", And(Eq(Var("x"), Succ(Var("x'"))), App(Var("X"), Var("x'"))))
    return Mu("X", arrow(NAT, PROP),
              Lam("x", NAT, Or(Eq(Var("x"), Zero()), step)))


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
