"""Bounded-domain evaluator: an independent validity oracle.

Enumerated domains truncate the naturals to {0..K}; propositions are
booleans; arrow types denote monotone function spaces.  Fixed points are
computed by Kleene iteration where the number of iterations is the lattice
height at bound K (the longest strictly increasing chain), which reaches the
fixed point of the truncated functional; iterates are kept as lazy closures
and connectives short-circuit, so evaluation explores only the values a
query actually depends on.

Verdicts are relative to the bound: every fixed-point iterate is wrapped in
a guard that resolves applications to naturals beyond K to the iterate's
unit (bottom for mu, top for nu), so recursion over N is cut off at exactly
{0..K} and on the standard encodings quantifiers range over {0..K}.
Arithmetic itself is exact — comparisons against out-of-range successors
are decided correctly, never saturated.  NatOverflow is raised where the
bound genuinely bites: when an enumerated (tabulated) function standing in
for a free variable is applied beyond {0..K}, the oracle answers Unknown
rather than guessing.

The same interpreter gives the approximants of the paper's soundness
argument: ``eval(phi, alphas={p: a})`` replaces the fixed point at sigma-path
p of phi by its a-th approximant, the a-th Kleene iterate of its functional
from the unit.  On a finite lattice and a monotone functional that iterate
equals the transfinite join of f(mu^b) over b < a (meet for nu), and from
the lattice height on it is the fixed point itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

from .syntax import (
    And, App, Arrow, Eq, Expr, HflError, Lam, Mu, Nu, Or,
    Path, PropType, NatType, Sequent, SimpleType, Succ, Var, Zero,
    free_vars, infer_env, type_to_str,
)

# ---------------------------------------------------------------------------
# errors and verdicts
# ---------------------------------------------------------------------------


class NatOverflow(HflError):
    """A natural beyond the bound K reached a position that requires an
    enumerated domain element (a tabulated function's argument)."""

    def __init__(self, bound: int):
        super().__init__(f"natural exceeds bound {bound}")
        self.bound = bound


class DomainTooLarge(HflError):
    """An enumeration or evaluation exceeded the configured size budget."""


@dataclass(frozen=True)
class Valid:
    def __str__(self) -> str:
        return "valid"


@dataclass(frozen=True)
class Invalid:
    witness: dict

    def __str__(self) -> str:
        parts = ", ".join(f"{x} := {render_value(v)}" for x, v in sorted(self.witness.items()))
        return f"invalid [{parts}]" if parts else "invalid []"


@dataclass(frozen=True)
class Unknown:
    reason: str

    def __str__(self) -> str:
        return f"unknown ({self.reason})"


Verdict = Union[Valid, Invalid, Unknown]

# ---------------------------------------------------------------------------
# semantic values
# ---------------------------------------------------------------------------

# N-values are ints, Omega-values are bools, arrow values are SemFun objects.
Value = Union[int, bool, "SemFun"]


class SemFun:
    """Base class of semantic function values."""

    __slots__ = ()

    def apply(self, dom: "BoundedDomain", arg: Value) -> Value:
        raise NotImplementedError


@dataclass(frozen=True)
class BotFun(SemFun):
    ty: Arrow

    def apply(self, dom, arg):
        return dom.bottom(self.ty.result)


@dataclass(frozen=True)
class TopFun(SemFun):
    ty: Arrow

    def apply(self, dom, arg):
        return dom.top(self.ty.result)


@dataclass(frozen=True)
class Closure(SemFun):
    """A lambda body awaiting its argument."""

    var: str
    body: Expr
    env: tuple  # sorted tuple of (name, value) pairs
    alphas: tuple = ()  # (path, alpha) pairs of approximants, relative to body

    def apply(self, dom, arg):
        env = dict(self.env)
        env[self.var] = arg
        return dom._eval(self.body, env, dict(self.alphas))


@dataclass(frozen=True)
class GuardFun(SemFun):
    """Truncation guard wrapped around every fixed-point iterate.

    Applying an iterate to a natural beyond the bound resolves to the fixed
    point's own unit (bottom for mu, top for nu) at every curried level, so
    recursion over N is cut off at exactly {0..K} — the quantifier encodings
    become quantifiers over {0..K} — independently of iteration budgets.
    """

    ty: Arrow
    is_mu: bool
    inner: SemFun

    def apply(self, dom, arg):
        if isinstance(self.ty.arg, NatType) and isinstance(arg, int) and arg > dom.K:
            return dom.bottom(self.ty.result) if self.is_mu else dom.top(self.ty.result)
        out = self.inner.apply(dom, arg)
        if isinstance(self.ty.result, Arrow):
            return GuardFun(self.ty.result, self.is_mu, out)
        return out


@dataclass(frozen=True)
class TableFun(SemFun):
    """An enumerated monotone function, keyed extensionally.

    Tables only cover arguments within the bound, so applying one to an
    out-of-range natural raises NatOverflow — an enumerated witness cannot
    answer such a query and the oracle must report Unknown."""

    arg_type: SimpleType
    entries: tuple  # tuple of (arg_key, value) aligned with domain order

    def apply(self, dom, arg):
        if isinstance(self.arg_type, NatType) and isinstance(arg, int) and arg > dom.K:
            raise NatOverflow(dom.K)
        key = dom.value_key(arg, self.arg_type)
        for k, v in self.entries:
            if k == key:
                return v
        raise HflError("argument outside the enumerated domain")


def render_value(v: Value) -> str:
    if isinstance(v, bool):
        return "T" if v else "F"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, TableFun):
        return "{" + ", ".join(f"{_render_key(k)}->{render_value(val)}" for k, val in v.entries) + "}"
    return "<fun>"


def _render_key(k) -> str:
    if isinstance(k, bool):
        return "T" if k else "F"
    if isinstance(k, int):
        return str(k)
    return "{" + ", ".join(_render_key(x) for x in k) + "}"


# ---------------------------------------------------------------------------
# the bounded domain
# ---------------------------------------------------------------------------


@dataclass
class BoundedDomain:
    """Finite approximation of the semantics with naturals in {0..K}.

    max_functions caps enumerated monotone-function spaces; fuel caps the
    total number of evaluation steps of a single top-level call.  Both
    overflows surface as DomainTooLarge, which the validity checker maps to
    the Unknown verdict.
    """

    K: int
    max_functions: int = 2 ** 16
    fuel: int = 10 ** 7
    _steps: int = field(default=0, repr=False)
    _elements: dict = field(default_factory=dict, repr=False)
    # per-top-level-call application memo; evaluation is pure, so a result
    # is determined by the function object and the argument
    _app_cache: dict = field(default_factory=dict, repr=False)

    # -- lattice structure --

    def bottom(self, ty: SimpleType) -> Value:
        if isinstance(ty, PropType):
            return False
        if isinstance(ty, Arrow):
            return BotFun(ty)
        raise HflError("N has no bottom element")

    def top(self, ty: SimpleType) -> Value:
        if isinstance(ty, PropType):
            return True
        if isinstance(ty, Arrow):
            return TopFun(ty)
        raise HflError("N has no top element")

    def height(self, ty: SimpleType) -> int:
        """Length of the longest strictly increasing chain (0 for N)."""
        if isinstance(ty, PropType):
            return 1
        if isinstance(ty, NatType):
            return 0
        assert isinstance(ty, Arrow)
        return self.size(ty.arg) * self.height(ty.result)

    def size(self, ty: SimpleType) -> int:
        if isinstance(ty, NatType):
            return self.K + 1
        if isinstance(ty, PropType):
            return 2
        return len(self.elements(ty))

    def elements(self, ty: SimpleType) -> list:
        """All elements of the type's domain (monotone maps at arrows)."""
        if isinstance(ty, NatType):
            return list(range(self.K + 1))
        if isinstance(ty, PropType):
            return [False, True]
        assert isinstance(ty, Arrow)
        if ty in self._elements:
            return self._elements[ty]
        dom_elems = self.elements(ty.arg)
        cod_elems = self.elements(ty.result)
        dom_keys = [self.value_key(a, ty.arg) for a in dom_elems]
        n = len(dom_elems)
        below = [[i for i in range(n) if i != j
                  and self.leq_value(dom_elems[i], dom_elems[j], ty.arg)]
                 for j in range(n)]
        # enumerate in an order compatible with the partial order so the
        # monotonicity check only ever looks at already-assigned positions
        order = self._linearize(below)
        rebelow = self._reindex(below, order)
        inv = {orig: pos for pos, orig in enumerate(order)}
        out: list[Value] = []

        def extend(assigned: list):
            if len(out) > self.max_functions:
                raise DomainTooLarge(
                    f"more than {self.max_functions} monotone functions in {type_to_str(ty)}")
            j = len(assigned)
            if j == n:
                table = tuple((dom_keys[i], assigned[inv[i]]) for i in range(n))
                out.append(TableFun(ty.arg, table))
                return
            for v in cod_elems:
                if all(self.leq_value(assigned[i], v, ty.result) for i in rebelow[j]):
                    assigned.append(v)
                    extend(assigned)
                    assigned.pop()

        extend([])
        self._elements[ty] = out
        return out

    @staticmethod
    def _linearize(below: list[list[int]]) -> list[int]:
        """A linear extension of the order (indices of smaller elements first)."""
        n = len(below)
        seen: list[int] = []
        marked = [False] * n

        def visit(j: int):
            if marked[j]:
                return
            marked[j] = True
            for i in below[j]:
                visit(i)
            seen.append(j)

        for j in range(n):
            visit(j)
        return seen

    @staticmethod
    def _reindex(below: list[list[int]], order: list[int]) -> list[list[int]]:
        pos = {orig: new for new, orig in enumerate(order)}
        return [[pos[i] for i in below[orig] if pos[i] < new]
                for new, orig in enumerate(order)]

    def leq_value(self, a: Value, b: Value, ty: SimpleType) -> bool:
        if isinstance(ty, NatType):
            return a == b  # N is discretely ordered
        if isinstance(ty, PropType):
            return (not a) or bool(b)
        assert isinstance(ty, Arrow)
        return all(self.leq_value(self.apply(a, x), self.apply(b, x), ty.result)
                   for x in self.elements(ty.arg))

    def value_key(self, v: Value, ty: SimpleType):
        """A hashable extensional key (forces tabulation of closures)."""
        if isinstance(ty, NatType):
            if isinstance(v, int) and v > self.K:
                raise NatOverflow(self.K)
            return v
        if isinstance(ty, PropType):
            return v
        assert isinstance(ty, Arrow)
        return tuple(self.value_key(self.apply(v, a), ty.result)
                     for a in self.elements(ty.arg))

    def tabulate(self, v: Value, ty: SimpleType) -> Value:
        """Force a value into fully enumerated (printable, comparable) form."""
        if isinstance(ty, (NatType, PropType)):
            return v
        assert isinstance(ty, Arrow)
        entries = tuple(
            (self.value_key(a, ty.arg), self.tabulate(self.apply(v, a), ty.result))
            for a in self.elements(ty.arg))
        return TableFun(ty.arg, entries)

    # -- evaluation --

    def apply(self, f: Value, arg: Value) -> Value:
        self._tick()
        if not isinstance(f, SemFun):
            raise HflError(f"cannot apply non-function value {f!r}")
        # Memoise on object identity: values are immutable and evaluation is
        # pure, and the cache keeps its key objects alive so ids stay unique.
        if isinstance(arg, (int, bool)):
            key = (id(f), isinstance(arg, bool), arg)
            hit = self._app_cache.get(key)
            if hit is not None and hit[0] is f:
                return hit[2]
        else:
            key = (id(f), id(arg))
            hit = self._app_cache.get(key)
            if hit is not None and hit[0] is f and hit[1] is arg:
                return hit[2]
        out = f.apply(self, arg)
        self._app_cache[key] = (f, arg, out)
        return out

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.fuel:
            raise DomainTooLarge(f"evaluation exceeded {self.fuel} steps")

    def eval(self, phi: Expr, rho: Optional[Mapping[str, Value]] = None,
             alphas: Optional[Mapping[Path, int]] = None) -> Value:
        """Interpret phi under valuation rho in the truncated model, with the
        fixed point at each sigma-path p in alphas replaced by its
        alphas[p]-th approximant."""
        self._steps = 0
        self._app_cache.clear()
        return self._eval(phi, dict(rho or {}), dict(alphas or {}))

    def _guard(self, ty: SimpleType, is_mu: bool, v: Value) -> Value:
        """Wrap a fixed-point iterate so naturals beyond K resolve to its unit."""
        if not isinstance(ty, Arrow):
            return v
        if isinstance(v, GuardFun) and v.is_mu == is_mu and v.ty == ty:
            return v
        return GuardFun(ty, is_mu, v)

    def _eval(self, e: Expr, env: dict, alphas: dict) -> Value:
        """Interpret e; alphas maps sigma-paths relative to e to approximant
        indices, and each child is passed only the entries below it."""
        self._tick()
        if isinstance(e, Var):
            try:
                return env[e.name]
            except KeyError:
                raise HflError(f"no value for free variable {e.name!r}") from None
        if isinstance(e, Zero):
            return 0
        if isinstance(e, Succ):
            return self._eval(e.arg, env, _below(alphas, 0)) + 1
        if isinstance(e, Eq):
            return (self._eval(e.lhs, env, _below(alphas, 0))
                    == self._eval(e.rhs, env, _below(alphas, 1)))
        if isinstance(e, Or):
            return (self._eval(e.lhs, env, _below(alphas, 0))
                    or self._eval(e.rhs, env, _below(alphas, 1)))
        if isinstance(e, And):
            return (self._eval(e.lhs, env, _below(alphas, 0))
                    and self._eval(e.rhs, env, _below(alphas, 1)))
        if isinstance(e, Lam):
            return Closure(e.var, e.body, _pack_env(env, e.body, e.var),
                           tuple(_below(alphas, 0).items()))
        if isinstance(e, App):
            return self.apply(self._eval(e.fn, env, _below(alphas, 0)),
                              self._eval(e.arg, env, _below(alphas, 1)))
        if isinstance(e, (Mu, Nu)):
            # the alpha-th approximant is the alpha-th Kleene iterate; the
            # lattice height of iterates reaches the fixed point
            is_mu = isinstance(e, Mu)
            steps = alphas.get((), self.height(e.var_type))
            body_alphas = _below(alphas, 0)
            v = self.bottom(e.var_type) if is_mu else self.top(e.var_type)
            for _ in range(steps):
                inner = dict(env)
                inner[e.var] = self._guard(e.var_type, is_mu, v)
                v = self._eval(e.body, inner, body_alphas)
            return self._guard(e.var_type, is_mu, v)
        raise HflError(f"cannot evaluate {e!r}")


def _below(alphas: dict, child: int) -> dict:
    """The entries of alphas under the given child, relative to it."""
    if not alphas:
        return alphas
    return {p[1:]: a for p, a in alphas.items() if p and p[0] == child}


def _pack_env(env: dict, body: Expr, bound: str) -> tuple:
    """Shrink a closure environment to the body's free variables."""
    needed = free_vars(body) - {bound}
    return tuple(sorted((x, v) for x, v in env.items() if x in needed))


# ---------------------------------------------------------------------------
# validity checking
# ---------------------------------------------------------------------------


def iter_valuations(dom: BoundedDomain, tyenv: Mapping[str, SimpleType],
                    max_valuations: int = 2 ** 16) -> Iterator[dict]:
    names = sorted(tyenv)
    pools = [dom.elements(tyenv[x]) for x in names]
    total = 1
    for p in pools:
        total *= len(p)
        if total > max_valuations:
            raise DomainTooLarge(f"more than {max_valuations} valuations to enumerate")
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


def check_validity_bounded(seq: Sequent, dom: BoundedDomain,
                           tyenv: Optional[Mapping[str, SimpleType]] = None,
                           max_valuations: int = 2 ** 16) -> Verdict:
    """Valid iff under every valuation some left formula is false or some
    right formula is true.  A definite counter-valuation wins over Unknown;
    overflow or an oversized domain under some valuation yields Unknown."""
    env = infer_env(seq.left + seq.right, tyenv)  # ill-typed input raises
    free = {x: env[x] for x in seq.free_vars()}
    unknown: Optional[str] = None
    try:
        valuations = list(iter_valuations(dom, free, max_valuations))
    except DomainTooLarge as exc:
        return Unknown(str(exc))
    for rho in valuations:
        try:
            if not _holds(seq, rho, dom):
                return Invalid(dict(rho))
        except (NatOverflow, DomainTooLarge) as exc:
            unknown = unknown or str(exc)
    if unknown is not None:
        return Unknown(unknown)
    return Valid()


def _holds(seq: Sequent, rho: dict, dom: BoundedDomain) -> bool:
    for phi in seq.left:
        if dom.eval(phi, rho) is False:
            return True
    for phi in seq.right:
        if dom.eval(phi, rho) is True:
            return True
    return False
