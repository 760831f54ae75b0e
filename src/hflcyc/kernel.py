"""Sequent-calculus kernel: rule checking, derivation trees, pre-proofs.

Every rule is represented by a small immutable object carrying exactly the
parameters needed to reconstruct its premises from its conclusion, so
checking an inference is deterministic: rebuild the expected premises and
compare with the supplied ones up to alpha-equivalence.  No unification or
parameter inference happens here; proof producers (proof files, generators)
must spell parameters out.

Conventions, fixed once for the whole code base:
  - the principal formula of a left rule is the LAST formula of the left
    list; the principal formula of a right rule is the FIRST formula of the
    right list (exchange rules move formulas into position);
  - Cut's premises are ordered [Gamma |- phi, Delta ;  Gamma, phi |- Delta];
  - rules never weaken or contract implicitly.

Each rule states its premises once (:meth:`Rule.premise_rows`): every
premise formula comes with its source, the conclusion formula it descends
from, if any (a cut formula is fresh), and how its fixed-point operators sit
in that formula.  The trace machinery builds on these links.
Sequents and rules are interned when they are built
(:class:`~hflcyc.syntax.Interned`), so equal ones are one object, whether a
proof was loaded or built in memory.  A pre-proof keeps the
:class:`Inference` (premises and their sources, among them the head step of
a lambda or fixed-point rule) of each distinct (conclusion, rule) pair, so
validation, the trace automaton and all nodes with that pair share one
head step; each formula keeps its own operator positions
(:func:`~hflcyc.syntax.sigma_paths`).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, ClassVar, Mapping, Optional, Union

from .syntax import (
    And, App, Eq, Expr, HeadStep, HflError, HflTypeError,
    Interned, Lam, Mu, Nu, Or, Path, Record, Sequent, Succ, Var, Zero, alpha_eq,
    check_sequent, children, head_step, is_term_shaped, make_app, nat_pred, sequent_alpha_eq,
    sequent_to_str, sigma_paths, substitute, to_str, var_paths,
)

LEFT = "left"
RIGHT = "right"

# occurrence position inside one sequent: (side, index)
OccPos = tuple[str, int]

# How a premise formula's operators sit in the conclusion formula it comes
# from: a path to it inside that formula, the head step that made it (whose
# sources map the step's result operators), or an explicit map from the
# premise formula's operator positions.
Link = Union[Path, HeadStep, Mapping[Path, Path]]
# Where one premise formula comes from: None when it is fresh.
Source = Optional[tuple[OccPos, Link]]
Sources = tuple[tuple[Source, ...], tuple[Source, ...]]
# A premise formula with its source, and a premise as its two rows of them.
Item = tuple[Expr, Source]
Rows = tuple[tuple[Item, ...], tuple[Item, ...]]


class KernelError(HflError):
    """Base class for rule/proof checking failures."""


class SchemaMismatch(KernelError):
    """A sequent does not have the shape the rule schema requires.

    premise_index is None when the *conclusion* is at fault.
    """

    def __init__(self, premise_index: Optional[int], expected: str, found: str):
        which = "conclusion" if premise_index is None else f"premise {premise_index}"
        super().__init__(f"{which}: expected {expected}, found {found}")
        self.premise_index = premise_index
        self.expected = expected
        self.found = found


class SideConditionViolated(KernelError):
    def __init__(self, description: str):
        super().__init__(description)
        self.description = description


def _need_left(seq: Sequent, what: str) -> Expr:
    if not seq.left:
        raise SchemaMismatch(None, what, sequent_to_str(seq))
    return seq.left[-1]


def _need_right(seq: Sequent, what: str) -> Expr:
    if not seq.right:
        raise SchemaMismatch(None, what, sequent_to_str(seq))
    return seq.right[0]


def _last(seq: Sequent) -> OccPos:
    """The position of a left rule's principal formula."""
    return LEFT, len(seq.left) - 1


_FIRST: OccPos = (RIGHT, 0)  # the position of a right rule's principal formula

# The kinds of a rule parameter (:attr:`Rule.params`).  LEFT and RIGHT are
# contexts, which the proof format writes after that word; SOURCE and PAIRS
# are Subst's: the premise's sequent and (variable, formula) pairs.
FORMULA, POSITION, NAME, NAMES, SOURCE, PAIRS = (
    "formula", "position", "name", "names", "source", "pairs")


def _tuple_of(test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, tuple) and all(map(test, v))


# each kind's test of a value, and what a value of the kind is
_KINDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    FORMULA: (lambda v: isinstance(v, Expr), "an Expr"),
    POSITION: (lambda v: type(v) is int and 0 <= v <= sys.maxsize, "an int from 0 to sys.maxsize"),
    NAME: (lambda v: isinstance(v, str), "a str"),
    NAMES: (_tuple_of(lambda y: isinstance(y, str)), "a tuple of str"),
    LEFT: (_tuple_of(lambda f: isinstance(f, Expr)), "a tuple of Exprs"),
    RIGHT: (_tuple_of(lambda f: isinstance(f, Expr)), "a tuple of Exprs"),
    SOURCE: (lambda v: isinstance(v, Sequent), "a Sequent"),
    PAIRS: (_tuple_of(lambda p: isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str)
                      and isinstance(p[1], Expr)), "a tuple of (str, Expr) pairs"),
}


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


class Inference(Record):
    """A rule applied to one conclusion: its premises and, for each premise,
    where each of its formulas comes from, as its left row and its right
    row of :data:`Source` values (see :meth:`Rule.premise_rows`)."""

    __slots__ = ("premises", "sources")
    premises: tuple[Sequent, ...]
    sources: tuple[Sources, ...]


class Rule(Interned):
    """Base class; a subclass states its premises once, in
    :meth:`premise_rows`, each premise formula with its source.  A rule's
    tag, its name in the proof format, is its class name.

    A rule is interned: its parameters are the fields its class lists in
    ``__slots__``, and a rule without parameters is one object per class.
    ``params`` declares them once, in ``__slots__`` order: each field's kind
    and the name its errors use after the tag.  Building a rule with a field
    of another kind raises :class:`KernelError`, before the intern table is
    read, so a value equal to a right one (``True == 1``) is refused too;
    the proof format reads and writes the fields by the same declaration.
    """

    __slots__ = ()
    tag: ClassVar[str]
    params: ClassVar[tuple[tuple[str, str], ...]] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.tag = cls.__name__

    def __new__(cls, *args):
        for value, (kind, what) in zip(args, cls.params):
            test, text = _KINDS[kind]
            if not test(value):
                raise KernelError(f"{cls.tag} {what} must be {text}")
        return super().__new__(cls, *args)

    def premise_rows(self, conclusion: Sequent) -> tuple[Rows, ...]:
        """Each premise as its left row and its right row of (formula,
        source) items.  A source is None for a fresh formula (a cut
        formula, Nat's ``N x``), or the conclusion position and the
        :data:`Link` of the formula it descends from: a path link is ``()``
        for a copy and ``(b,)`` for a formula's immediate subformula ``b``.

        A copy, a subformula and a head step are computed from their link
        (:func:`_copies`, :func:`_part`, :class:`~hflcyc.syntax.HeadStep`),
        so a premise formula and its link cannot disagree.  Raises
        :class:`SchemaMismatch` or :class:`SideConditionViolated` when the
        rule does not apply to the conclusion.
        """
        raise NotImplementedError

    def inference(self, conclusion: Sequent) -> Inference:
        """The premises for the conclusion, with their sources."""
        rows = self.premise_rows(conclusion)
        return Inference(
            tuple([Sequent(tuple([f for f, _ in left]), tuple([f for f, _ in right]))
                   for left, right in rows]),
            tuple([(tuple([s for _, s in left]), tuple([s for _, s in right]))
                   for left, right in rows]))

    def premises_of(self, conclusion: Sequent) -> tuple[Sequent, ...]:
        return self.inference(conclusion).premises


def _copies(conclusion: Sequent) -> Rows:
    """Every formula of the conclusion as a copy of itself."""
    return (tuple([(f, ((LEFT, i), ())) for i, f in enumerate(conclusion.left)]),
            tuple([(f, ((RIGHT, j), ())) for j, f in enumerate(conclusion.right)]))


def _part(phi: Expr, pos: OccPos, b: int) -> Item:
    """Immediate subformula ``b`` of ``phi``, the formula at ``pos``."""
    return children(phi)[b], (pos, (b,))


class Axiom(Rule):
    def premise_rows(self, conclusion):
        if (len(conclusion.left) != 1 or len(conclusion.right) != 1
                or not alpha_eq(conclusion.left[0], conclusion.right[0])):
            raise SchemaMismatch(None, "phi |- phi", sequent_to_str(conclusion))
        return ()


class Cut(Rule):
    __slots__ = ("formula",)
    params = ((FORMULA, "formula"),)
    formula: Expr

    def premise_rows(self, conclusion):
        left, right = _copies(conclusion)
        cut = (self.formula, None)  # fresh
        return (left, (cut,) + right), (left + (cut,), right)


class WkL(Rule):
    def premise_rows(self, conclusion):
        _need_left(conclusion, "Gamma, phi |-")
        left, right = _copies(conclusion)
        return ((left[:-1], right),)


class WkR(Rule):
    def premise_rows(self, conclusion):
        _need_right(conclusion, "|- phi, Delta")
        left, right = _copies(conclusion)
        return ((left, right[1:]),)


class CtrL(Rule):
    def premise_rows(self, conclusion):
        _need_left(conclusion, "Gamma, phi |-")
        left, right = _copies(conclusion)
        return ((left + left[-1:], right),)  # both copies descend from phi


class CtrR(Rule):
    def premise_rows(self, conclusion):
        _need_right(conclusion, "|- phi, Delta")
        left, right = _copies(conclusion)
        return ((left, right[:1] + right),)


class ExL(Rule):
    __slots__ = ("pos",)
    params = ((POSITION, "position"),)
    pos: int  # index of the earlier of the two swapped formulas

    def premise_rows(self, conclusion):
        p = self.pos
        if not 0 <= p < len(conclusion.left) - 1:
            raise SchemaMismatch(None, f"at least {p + 2} left formulas",
                                 sequent_to_str(conclusion))
        left, right = _copies(conclusion)
        return ((left[:p] + (left[p + 1], left[p]) + left[p + 2:], right),)


class ExR(Rule):
    __slots__ = ("pos",)
    params = ((POSITION, "position"),)
    pos: int

    def premise_rows(self, conclusion):
        p = self.pos
        if not 0 <= p < len(conclusion.right) - 1:
            raise SchemaMismatch(None, f"at least {p + 2} right formulas",
                                 sequent_to_str(conclusion))
        left, right = _copies(conclusion)
        return ((left, right[:p] + (right[p + 1], right[p]) + right[p + 2:]),)


class Subst(Rule):
    """conclusion = source[mapping]; the premise is the source sequent."""

    __slots__ = ("source", "mapping")
    params = ((SOURCE, "source"), (PAIRS, "mapping"))
    source: Sequent
    mapping: tuple[tuple[str, Expr], ...]

    def premise_rows(self, conclusion):
        subst = dict(self.mapping)
        want = Sequent(tuple(substitute(f, subst) for f in self.source.left),
                       tuple(substitute(f, subst) for f in self.source.right))
        if not sequent_alpha_eq(want, conclusion):
            raise SchemaMismatch(None, sequent_to_str(want), sequent_to_str(conclusion))
        # renaming keeps the tree's shape, so each operator of f is at the
        # same path in f[mapping]; those inside substituted copies have none
        return (tuple(tuple([(f, ((side, i), {q: q for q in sigma_paths(f)}))
                             for i, f in enumerate(row)])
                      for side, row in ((LEFT, self.source.left), (RIGHT, self.source.right))),)


class Mono(Rule):
    """Gamma, phi[psi/x] |- phi[chi/x], Delta from k copies of
    Gamma, psi y~ |- chi y~, Delta (k = free occurrences of x in phi).
    Both principals keep their index, and premise k's psi and chi are the
    copies of psi and chi in phi[psi/x] and phi[chi/x] at the k-th free
    occurrence of x in phi, in preorder."""

    __slots__ = ("formula", "var", "lower", "upper", "names")
    params = ((FORMULA, "formula"), (NAME, "variable"), (FORMULA, "lower bound"),
              (FORMULA, "upper bound"), (NAMES, "fresh name"))
    formula: Expr  # phi
    var: str
    lower: Expr  # psi
    upper: Expr  # chi
    names: tuple[str, ...]  # the fresh argument vector y~

    def premise_rows(self, conclusion):
        want_l = substitute(self.formula, {self.var: self.lower})
        want_r = substitute(self.formula, {self.var: self.upper})
        got_l = _need_left(conclusion, f"Gamma, {to_str(want_l)} |-")
        got_r = _need_right(conclusion, f"|- {to_str(want_r)}, Delta")
        if not alpha_eq(got_l, want_l):
            raise SchemaMismatch(None, to_str(want_l), to_str(got_l))
        if not alpha_eq(got_r, want_r):
            raise SchemaMismatch(None, to_str(want_r), to_str(got_r))
        if len(set(self.names)) != len(self.names):
            raise SideConditionViolated(f"argument names {self.names} are not distinct")
        used: set[str] = set()
        for f in conclusion.left[:-1] + (self.lower, self.upper) + conclusion.right[1:]:
            used |= f.free
        clash = used & set(self.names)
        if clash:
            raise SideConditionViolated(
                f"names {sorted(clash)} are not fresh for the context and psi/chi")
        args = tuple(Var(y) for y in self.names)
        lower, upper = make_app(self.lower, *args), make_app(self.upper, *args)
        spine = (0,) * len(self.names)
        left, right = _copies(conclusion)

        def copy(image, at):  # image y~'s operators sit in phi[image/x] below at
            return {spine + q: at + q for q in sigma_paths(image)}
        return tuple((left[:-1] + ((lower, (_last(conclusion), copy(self.lower, at))),),
                      ((upper, (_FIRST, copy(self.upper, at))),) + right[1:])
                     for at in var_paths(self.formula, self.var))


class EqL(Rule):
    """Rewriting with an equation: the conclusion's contexts are templates
    with two holes filled by (lhs, rhs) plus the equation lhs = rhs as the
    principal formula; the premise fills the same holes with (rhs, lhs).
    """

    __slots__ = ("hole_l", "hole_r", "lhs", "rhs", "left_ctx", "right_ctx")
    params = ((NAME, "hole"), (NAME, "hole"), (FORMULA, "lhs"), (FORMULA, "rhs"),
              (LEFT, "left context"), (RIGHT, "right context"))
    hole_l: str  # template variable filled with lhs in the conclusion
    hole_r: str  # template variable filled with rhs in the conclusion
    lhs: Expr
    rhs: Expr
    left_ctx: tuple[Expr, ...]
    right_ctx: tuple[Expr, ...]

    def premise_rows(self, conclusion):
        if self.hole_l == self.hole_r:
            raise SideConditionViolated("the two template variables must differ")
        for u in (self.lhs, self.rhs):
            if not is_term_shaped(u):
                raise SideConditionViolated(f"{to_str(u)} is not a term")
        down = {self.hole_l: self.lhs, self.hole_r: self.rhs}
        want = Sequent(tuple(substitute(g, down) for g in self.left_ctx)
                       + (Eq(self.lhs, self.rhs),),
                       tuple(substitute(d, down) for d in self.right_ctx))
        if not sequent_alpha_eq(want, conclusion):
            raise SchemaMismatch(None, sequent_to_str(want), sequent_to_str(conclusion))
        # swapping terms keeps every operator at its path; s = t is dropped
        up = {self.hole_l: self.rhs, self.hole_r: self.lhs}
        return ((tuple([(substitute(g, up), ((LEFT, i), ())) for i, g in enumerate(self.left_ctx)]),
                 tuple([(substitute(d, up), ((RIGHT, j), ()))
                        for j, d in enumerate(self.right_ctx)])),)


class EqR(Rule):
    def premise_rows(self, conclusion):
        phi = _need_right(conclusion, "|- t = t, Delta")
        if not (isinstance(phi, Eq) and alpha_eq(phi.lhs, phi.rhs)):
            raise SchemaMismatch(None, "t = t", to_str(phi))
        return ()


class OrL(Rule):
    def premise_rows(self, conclusion):
        phi = _need_left(conclusion, "Gamma, phi \\/ psi |-")
        if not isinstance(phi, Or):
            raise SchemaMismatch(None, "phi \\/ psi", to_str(phi))
        left, right = _copies(conclusion)
        return tuple((left[:-1] + (_part(phi, _last(conclusion), b),), right) for b in (0, 1))


class OrR(Rule):
    def premise_rows(self, conclusion):
        phi = _need_right(conclusion, "|- phi \\/ psi, Delta")
        if not isinstance(phi, Or):
            raise SchemaMismatch(None, "phi \\/ psi", to_str(phi))
        left, right = _copies(conclusion)
        return ((left, (_part(phi, _FIRST, 0), _part(phi, _FIRST, 1)) + right[1:]),)


class AndL(Rule):
    def premise_rows(self, conclusion):
        phi = _need_left(conclusion, "Gamma, phi /\\ psi |-")
        if not isinstance(phi, And):
            raise SchemaMismatch(None, "phi /\\ psi", to_str(phi))
        left, right = _copies(conclusion)
        principal = _last(conclusion)
        return ((left[:-1] + (_part(phi, principal, 0), _part(phi, principal, 1)), right),)


class AndR(Rule):
    def premise_rows(self, conclusion):
        phi = _need_right(conclusion, "|- phi /\\ psi, Delta")
        if not isinstance(phi, And):
            raise SchemaMismatch(None, "phi /\\ psi", to_str(phi))
        left, right = _copies(conclusion)
        return tuple((left, (_part(phi, _FIRST, b),) + right[1:]) for b in (0, 1))


_REDEX_SHAPES = {Lam: "(\\x. phi) psi psi_vec", Mu: "(mu x. phi) psi_vec",
                 Nu: "(nu x. phi) psi_vec"}


class HeadStepRule(Rule):
    """Shared shape of the lambda and fixed-point left and right rules: the
    premise replaces the principal formula, on ``side``, by one head step on
    its ``kind`` redex, which is also the step's link."""

    side: ClassVar[str]
    kind: ClassVar[type]

    def premise_rows(self, conclusion):
        principal = (_need_left(conclusion, "a principal left formula") if self.side == LEFT
                     else _need_right(conclusion, "a principal right formula"))
        step = head_step(principal, self.kind)
        if step is None:
            raise SchemaMismatch(None, _REDEX_SHAPES[self.kind], to_str(principal))
        left, right = _copies(conclusion)
        if self.side == LEFT:
            return ((left[:-1] + ((step.result, (_last(conclusion), step)),), right),)
        return ((left, ((step.result, (_FIRST, step)),) + right[1:]),)


class LamL(HeadStepRule):
    side: ClassVar[str] = LEFT
    kind: ClassVar[type] = Lam


class LamR(HeadStepRule):
    side: ClassVar[str] = RIGHT
    kind: ClassVar[type] = Lam


class MuL(HeadStepRule):
    side: ClassVar[str] = LEFT
    kind: ClassVar[type] = Mu


class MuR(HeadStepRule):
    side: ClassVar[str] = RIGHT
    kind: ClassVar[type] = Mu


class NuL(HeadStepRule):
    side: ClassVar[str] = LEFT
    kind: ClassVar[type] = Nu


class NuR(HeadStepRule):
    side: ClassVar[str] = RIGHT
    kind: ClassVar[type] = Nu


class Nat(Rule):
    """Gamma |- Delta from Gamma, N x |- Delta (x a natural-number variable)."""

    __slots__ = ("var",)
    params = ((NAME, "variable"),)
    var: str

    def premise_rows(self, conclusion):
        left, right = _copies(conclusion)
        return ((left + ((App(nat_pred(), Var(self.var)), None),), right),)  # N x is fresh


class P1(Rule):
    def premise_rows(self, conclusion):
        ok = (len(conclusion.left) == 1 and not conclusion.right
              and isinstance(conclusion.left[0], Eq)
              and isinstance(conclusion.left[0].lhs, Succ)
              and isinstance(conclusion.left[0].rhs, Zero)
              and is_term_shaped(conclusion.left[0].lhs))
        if not ok:
            raise SchemaMismatch(None, "S s = Z |-", sequent_to_str(conclusion))
        return ()


class P2(Rule):
    def premise_rows(self, conclusion):
        phi = _need_left(conclusion, "Gamma, S s = S t |-")
        ok = (isinstance(phi, Eq) and isinstance(phi.lhs, Succ)
              and isinstance(phi.rhs, Succ)
              and is_term_shaped(phi.lhs) and is_term_shaped(phi.rhs))
        if not ok:
            raise SchemaMismatch(None, "S s = S t", to_str(phi))
        left, right = _copies(conclusion)
        # s = t keeps the operators of S s = S t (terms have none) at their paths
        return ((left[:-1] + ((Eq(phi.lhs.arg, phi.rhs.arg), (_last(conclusion), ())),), right),)


RULE_CLASSES: tuple[type[Rule], ...] = (
    Axiom, Cut, WkL, WkR, CtrL, CtrR, ExL, ExR, Subst, Mono,
    EqL, EqR, OrL, OrR, AndL, AndR, LamL, LamR, MuL, MuR, NuL, NuR,
    Nat, P1, P2,
)
RULES: dict[str, type[Rule]] = {cls.tag: cls for cls in RULE_CLASSES}


def check_rule(conclusion: Sequent, rule: Rule, premises: list[Sequent] | tuple[Sequent, ...]) -> None:
    """Raise SchemaMismatch / SideConditionViolated unless the premises are
    exactly the rule's premises for the conclusion (up to alpha)."""
    _check_premises(rule, rule.premises_of(conclusion), premises)


def _check_premises(rule: Rule, expected: tuple[Sequent, ...],
                    premises: list[Sequent] | tuple[Sequent, ...]) -> None:
    if len(expected) != len(premises):
        raise SchemaMismatch(None, f"{len(expected)} premises ({rule.tag})",
                             f"{len(premises)} premises")
    for i, (want, got) in enumerate(zip(expected, premises)):
        if not sequent_alpha_eq(want, got):
            raise SchemaMismatch(i, sequent_to_str(want), sequent_to_str(got))


# ---------------------------------------------------------------------------
# derivation trees and pre-proofs
# ---------------------------------------------------------------------------


class OccurrenceRef(Record):
    """A formula occurrence in a named proof node."""

    __slots__ = ("node", "side", "index")
    node: str
    side: str  # LEFT or RIGHT
    index: int


class DerivTree(Record):
    """A node of a derivation tree, with its subtree: rule None marks an
    open leaf.  It is what an in-memory builder makes and what the
    :attr:`PreProof.tree`, :attr:`PreProof.nodes` and :meth:`PreProof.node`
    views return.  A pre-proof's value is its rows, so a tree compares and
    hashes by identity.  It prints from an explicit stack, but a copy or
    pickle of it recurses once per level: copy its pre-proof instead."""

    __slots__ = ("id", "seq", "rule", "children")
    _defaults = ((),)
    id: str
    seq: Sequent
    rule: Optional[Rule]
    children: tuple[DerivTree, ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def walk(self):
        """Every node of the tree in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


# A node of a pre-proof's table: its sequent, its rule (None for an open
# leaf) and its child ids.
Row = tuple[Sequent, Optional[Rule], tuple[str, ...]]


def _preorder(root: str, rows: Mapping[str, Row], back_edges: Mapping[str, str]
              ) -> tuple[dict[str, Row], dict[str, Optional[tuple[str, ...]]]]:
    """``rows`` in preorder from ``root``, and the successor table, in one
    walk without recursion.  Raises :class:`KernelError` for a row that is
    not (Sequent, Rule or None, tuple of child ids), a root or child id with
    no row, a node reached twice or a row never reached; then for an open
    leaf with children; then for a back edge that leaves no open leaf or
    reaches no node."""
    out: dict[str, Row] = {}
    table: dict[str, Optional[tuple[str, ...]]] = {}
    crowded: list[str] = []  # the open leaves with children
    stack: list = [None, root]  # None stops the walk when the tree is done
    for node_id in iter(stack.pop, None):
        row = rows.get(node_id) if isinstance(node_id, str) else None
        if row is None:
            raise KernelError(f"no node {node_id!r} in the pre-proof")
        if node_id in out:
            raise KernelError(f"node {node_id!r} is reached twice")
        if not (type(row) is tuple and len(row) == 3 and type(row[0]) is Sequent
                and type(row[2]) is tuple and (row[1] is None or isinstance(row[1], Rule))):
            raise KernelError(f"node {node_id!r}: a row is (Sequent, Rule or None, "
                              f"tuple of child ids), got {row!r}")
        out[node_id] = row
        _, rule, kids = row
        if rule is not None:
            table[node_id] = kids
        else:
            table[node_id] = None
            if kids:
                crowded.append(node_id)
        stack += reversed(kids)
    if len(out) < len(rows):
        left_out = sorted(rows.keys() - out, key=str)
        raise KernelError(f"nodes not reachable from the root: {left_out}")
    if crowded:
        raise KernelError(f"node {crowded[0]!r}: open leaf with children")
    for source, target in back_edges.items():
        if table.get(source, ()) is not None:
            raise KernelError(f"back edge source {source!r} is not an open leaf")
        if not (isinstance(target, str) and target in out):
            raise KernelError(f"back edge {source!r} -> {target!r} targets a missing node")
        table[source] = (target,)
    return out, table


class PreProof(Record):
    """A derivation tree plus a back-edge target for every open leaf, as
    its node table.

    Its value is ``(root, rows, back_edges)``: ``==`` and ``repr`` read
    them, and a copy or pickle rebuilds them with :meth:`from_rows`.
    :attr:`rows` holds, for each node id in preorder, the node's sequent,
    its rule (None for an open leaf) and its child ids, and :attr:`root`
    is the root's id.  Hashing raises ``TypeError`` for the dicts.
    ``back_edges`` is a copy of the mapping given, so a later edit to the
    caller's dict changes nothing here.  Equal sequents and rules
    (equal as values, not merely alpha-equivalent, since a report prints
    bound names) are one object, as they are interned.

    Every pre-proof is made by :func:`_preorder`, which raises
    :class:`KernelError` unless the rows form a finite tree whose open
    leaves have no children, and each back edge leaves an open leaf for a
    node.  An open leaf may lack a back edge, so a partial proof is a
    value, which validation and the trace condition refuse.  The same walk
    makes :attr:`successor_table`, each node's successor ids in preorder:
    a closed node's child ids, an open leaf's ``(target,)``, or ``None``
    for an open leaf without a back edge, for which :func:`successors`
    raises.  ``PreProof(tree, back_edges)`` takes the rows from a tree
    built in memory, and keeps the tree; a repeated node id, or a tree node
    that is not a :class:`DerivTree`, raises :class:`KernelError`.  A
    pre-proof made by :meth:`from_rows` makes the :class:`DerivTree` views
    (:attr:`tree`, :attr:`nodes`, :meth:`node`) on first use, in one pass
    from the leaves up; a check reads none.

    A pre-proof also keeps, for its whole life, the work a check does once
    per distinct sequent rather than once per node:

    - the :class:`Inference` of each (conclusion, rule) pair, keyed by the
      interned sequent and rule themselves;
    - the occurrence steps of each (inference, branch) pair, in
      ``step_table``, which :func:`hflcyc.trace.node_steps` fills and reads,
      keyed by the id of an inference that the first table holds.

    The views and the tables are not compared or copied.
    """

    __slots__ = ("root", "rows", "back_edges", "successor_table", "_tree", "_nodes",
                 "_inferences", "step_table")
    _compared = ("root", "rows", "back_edges")
    root: str
    rows: dict[str, Row]
    back_edges: Mapping[str, str]
    successor_table: dict[str, Optional[tuple[str, ...]]]
    _tree: Optional[DerivTree]
    _nodes: Optional[dict[str, DerivTree]]
    _inferences: dict[tuple[Sequent, Rule], Inference]
    step_table: dict[tuple[int, int], Any]

    def __init__(self, tree: DerivTree, back_edges: Optional[Mapping[str, str]] = None) -> None:
        nodes: dict[str, DerivTree] = {}
        for node in DerivTree.walk(tree):  # a node is checked before its children are read
            if not isinstance(node, DerivTree):
                raise KernelError(f"tree node {node!r} is not a DerivTree")
            if node.id in nodes:
                raise KernelError(f"duplicate node id {node.id!r}")
            nodes[node.id] = node
        rows = {node_id: (node.seq, node.rule, tuple([c.id for c in node.children]))
                for node_id, node in nodes.items()}
        self._start(tree.id, rows, back_edges, tree, nodes)

    @classmethod
    def from_rows(cls, root: str, rows: dict[str, Row],
                  back_edges: Optional[Mapping[str, str]] = None) -> PreProof:
        """The pre-proof whose node table is ``rows``, in any order, put in
        preorder from ``root`` by :func:`_preorder`, which raises
        :class:`KernelError` unless they and ``back_edges`` form a
        pre-proof; a copy or pickle of any pre-proof is made here too."""
        pp = cls.__new__(cls)
        pp._start(root, rows, back_edges, None, None)
        return pp

    def _start(self, root: str, rows: dict[str, Row], back_edges: Optional[Mapping[str, str]],
               tree: Optional[DerivTree], nodes: Optional[dict[str, DerivTree]]) -> None:
        back = {} if back_edges is None else dict(back_edges)
        rows, table = _preorder(root, rows, back)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "back_edges", back)
        object.__setattr__(self, "successor_table", table)
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_inferences", {})
        object.__setattr__(self, "step_table", {})

    def __reduce__(self):
        return PreProof.from_rows, (self.root, self.rows, self.back_edges)

    def _build_nodes(self) -> None:
        """The nodes of a row-built pre-proof, each built after its children."""
        rows = self.rows
        built: dict[str, DerivTree] = {}
        for node_id in reversed(rows):  # in preorder a node's children follow it
            seq, rule, kids = rows[node_id]
            built[node_id] = DerivTree(node_id, seq, rule, tuple([built[k] for k in kids]))
        object.__setattr__(self, "_nodes", {node_id: built[node_id] for node_id in rows})
        object.__setattr__(self, "_tree", built[self.root])

    @property
    def tree(self) -> DerivTree:
        """The derivation tree; a row-built pre-proof makes it on first use."""
        if self._tree is None:
            self._build_nodes()
        return self._tree

    @property
    def nodes(self) -> dict[str, DerivTree]:
        """Every node by id, in preorder."""
        if self._nodes is None:
            self._build_nodes()
        return self._nodes

    def row(self, node_id: str) -> Row:
        """The (sequent, rule, child ids) of a node."""
        try:
            return self.rows[node_id]
        except (KeyError, TypeError):  # a TypeError for an unhashable id
            raise KernelError(f"no node {node_id!r} in the pre-proof") from None

    def node(self, node_id: str) -> DerivTree:
        try:
            return self.nodes[node_id]
        except (KeyError, TypeError):
            raise KernelError(f"no node {node_id!r} in the pre-proof") from None

    def inference(self, node_id: str) -> Inference:
        """The inference at a closed node (see :meth:`inference_at`).
        Raises :class:`KernelError` for an open leaf."""
        seq, rule, _ = self.row(node_id)
        if rule is None:
            raise KernelError(f"node {node_id!r} is an open leaf")
        return self.inference_at(seq, rule)

    def inference_at(self, seq: Sequent, rule: Rule) -> Inference:
        """The inference of ``rule`` at ``seq``, computed once per pre-proof
        for each sequent and rule.

        Validation and the trace automaton both read it, so each head step
        is taken once per check.  Raises the rule's :class:`KernelError`
        when the rule does not apply; a failure is not kept.
        """
        got = self._inferences.get((seq, rule))
        if got is None:
            got = self._inferences[(seq, rule)] = rule.inference(seq)
        return got

    def positions(self, node_id: str) -> dict[OccPos, tuple[Path, ...]]:
        """The operator positions of each formula of a node's sequent, by
        position (each formula keeps its own, :func:`~hflcyc.syntax.sigma_paths`)."""
        seq = self.row(node_id)[0]
        return {(side, index): sigma_paths(formula)
                for side, row in ((LEFT, seq.left), (RIGHT, seq.right))
                for index, formula in enumerate(row)}


class ValidationIssue(Record):
    __slots__ = ("node", "message")
    node: str
    message: str

    def __str__(self) -> str:
        return f"{self.node}: {self.message}"


_UNSEEN = object()


def validate_preproof(pp: PreProof) -> list[ValidationIssue]:
    """Check every inference, every sequent's typing, and every back edge.

    Each back edge leaves an open leaf for a node (:class:`PreProof`); an
    open leaf without one, a leaf target or a differing sequent is an issue.
    One pass over :attr:`PreProof.rows`.  Each sequent object is typed
    once, and each (conclusion, rule, child sequents) triple is checked
    once; every failing node still gets its own issue.  Returns all problems
    found (empty list = valid pre-proof).
    """
    issues: list[ValidationIssue] = []
    rows = pp.rows
    typed: dict[Sequent, Optional[str]] = {}
    compared: dict[tuple, Optional[str]] = {}
    for node_id, (seq, rule, kids) in rows.items():
        bad = typed.get(seq, _UNSEEN)
        if bad is _UNSEEN:
            try:
                check_sequent(seq)
                bad = None
            except HflTypeError as exc:
                bad = str(exc)
            typed[seq] = bad
        if bad is not None:
            issues.append(ValidationIssue(node_id, f"ill-typed sequent: {bad}"))
            continue
        if rule is None:
            continue
        premises = tuple([rows[k][0] for k in kids])
        key = (seq, rule, premises)
        bad = compared.get(key, _UNSEEN)
        if bad is _UNSEEN:
            try:
                _check_premises(rule, pp.inference_at(seq, rule).premises, premises)
                bad = None
            except KernelError as exc:
                bad = str(exc)
            compared[key] = bad
        if bad is not None:
            issues.append(ValidationIssue(node_id, f"{rule.tag}: {bad}"))

    for node_id, out in pp.successor_table.items():
        if out is None:
            issues.append(ValidationIssue(node_id, "open leaf without back edge"))
    for leaf_id, target_id in pp.back_edges.items():
        source, target = rows[leaf_id], rows[target_id]
        if not target[2]:
            issues.append(ValidationIssue(leaf_id, f"back edge target {target_id!r} is a leaf"))
        elif not sequent_alpha_eq(source[0], target[0]):
            issues.append(ValidationIssue(
                leaf_id,
                f"back edge target sequent differs: {sequent_to_str(target[0])}"
                f" vs {sequent_to_str(source[0])}"))
    return issues


def successors(pp: PreProof, node_id: str) -> tuple[str, ...]:
    """The nodes a path may step to next: children, or the back-edge target
    for an open leaf, or nothing for a closed leaf.  Raises
    :class:`KernelError` for a missing node or an open leaf without a back
    edge."""
    try:
        out = pp.successor_table[node_id]
    except (KeyError, TypeError):
        raise KernelError(f"no node {node_id!r} in the pre-proof") from None
    if out is None:
        raise KernelError(f"open leaf {node_id!r} has no back edge")
    return out
