"""Sequent-calculus kernel: rule checking, derivation trees, pre-proofs.

Every rule is represented by a small frozen dataclass carrying exactly the
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

Each rule also knows its occurrence map — for a premise, which formula of
the conclusion every premise formula descends from (None when the formula
appears out of thin air, e.g. a cut formula).  The trace machinery builds
on these maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Mapping, Optional

from .syntax import (
    And, App, Eq, Expr, HflError, HflTypeError, Lam, Mu, Nu, Or, Sequent,
    Succ, Var, Zero, app_spine, alpha_eq, beta_head, check_sequent,
    count_occurrences, free_vars, is_term_shaped, make_app, nat_pred,
    sequent, sequent_alpha_eq, sequent_to_str, substitute, to_str, unfold,
)

LEFT = "left"
RIGHT = "right"

# occurrence position inside one sequent: (side, index)
OccPos = tuple[str, int]


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


def _identity_map(seq: Sequent) -> dict[OccPos, OccPos]:
    out: dict[OccPos, OccPos] = {}
    for i in range(len(seq.left)):
        out[(LEFT, i)] = (LEFT, i)
    for j in range(len(seq.right)):
        out[(RIGHT, j)] = (RIGHT, j)
    return out


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """Base class; subclasses define tag, premise reconstruction and the
    premise-to-conclusion occurrence correspondence."""

    tag: ClassVar[str] = "?"

    def premises_of(self, conclusion: Sequent) -> tuple[Sequent, ...]:
        raise NotImplementedError

    def occurrence_map(self, conclusion: Sequent, premise_index: int) -> dict[OccPos, Optional[OccPos]]:
        """Map each premise position to the conclusion position it is
        relevant to (None = fresh).  By default each premise formula
        descends from the conclusion formula at the same position."""
        return _identity_map(conclusion)


@dataclass(frozen=True)
class Axiom(Rule):
    tag: ClassVar[str] = "Axiom"

    def premises_of(self, conclusion):
        if (len(conclusion.left) != 1 or len(conclusion.right) != 1
                or not alpha_eq(conclusion.left[0], conclusion.right[0])):
            raise SchemaMismatch(None, "phi |- phi", sequent_to_str(conclusion))
        return ()


@dataclass(frozen=True)
class Cut(Rule):
    tag: ClassVar[str] = "Cut"
    formula: Expr = None  # type: ignore[assignment]

    def premises_of(self, conclusion):
        phi = self.formula
        return (Sequent(conclusion.left, (phi,) + conclusion.right),
                Sequent(conclusion.left + (phi,), conclusion.right))

    def occurrence_map(self, conclusion, premise_index):
        out = _identity_map(conclusion)
        if premise_index == 0:
            out = {(s, i): (s, i) for (s, i) in out if s == LEFT}
            out[(RIGHT, 0)] = None  # the cut formula comes from nowhere
            for j in range(len(conclusion.right)):
                out[(RIGHT, j + 1)] = (RIGHT, j)
        else:
            out[(LEFT, len(conclusion.left))] = None
        return out


@dataclass(frozen=True)
class WkL(Rule):
    tag: ClassVar[str] = "WkL"

    def premises_of(self, conclusion):
        _need_left(conclusion, "Gamma, phi |-")
        return (Sequent(conclusion.left[:-1], conclusion.right),)

    def occurrence_map(self, conclusion, premise_index):
        out = _identity_map(conclusion)
        del out[(LEFT, len(conclusion.left) - 1)]
        return out


@dataclass(frozen=True)
class WkR(Rule):
    tag: ClassVar[str] = "WkR"

    def premises_of(self, conclusion):
        _need_right(conclusion, "|- phi, Delta")
        return (Sequent(conclusion.left, conclusion.right[1:]),)

    def occurrence_map(self, conclusion, premise_index):
        out: dict[OccPos, Optional[OccPos]] = {
            (LEFT, i): (LEFT, i) for i in range(len(conclusion.left))}
        for j in range(len(conclusion.right) - 1):
            out[(RIGHT, j)] = (RIGHT, j + 1)
        return out


@dataclass(frozen=True)
class CtrL(Rule):
    tag: ClassVar[str] = "CtrL"

    def premises_of(self, conclusion):
        phi = _need_left(conclusion, "Gamma, phi |-")
        return (Sequent(conclusion.left + (phi,), conclusion.right),)

    def occurrence_map(self, conclusion, premise_index):
        out = _identity_map(conclusion)
        n = len(conclusion.left)
        out[(LEFT, n)] = (LEFT, n - 1)  # both copies point at the contraction
        return out


@dataclass(frozen=True)
class CtrR(Rule):
    tag: ClassVar[str] = "CtrR"

    def premises_of(self, conclusion):
        phi = _need_right(conclusion, "|- phi, Delta")
        return (Sequent(conclusion.left, (phi,) + conclusion.right),)

    def occurrence_map(self, conclusion, premise_index):
        out: dict[OccPos, Optional[OccPos]] = {
            (LEFT, i): (LEFT, i) for i in range(len(conclusion.left))}
        out[(RIGHT, 0)] = (RIGHT, 0)
        for j in range(len(conclusion.right)):
            out[(RIGHT, j + 1)] = (RIGHT, j)
        return out


@dataclass(frozen=True)
class ExL(Rule):
    tag: ClassVar[str] = "ExL"
    pos: int = 0  # index of the earlier of the two swapped formulas

    def premises_of(self, conclusion):
        left = list(conclusion.left)
        if not 0 <= self.pos < len(left) - 1:
            raise SchemaMismatch(None, f"at least {self.pos + 2} left formulas",
                                 sequent_to_str(conclusion))
        left[self.pos], left[self.pos + 1] = left[self.pos + 1], left[self.pos]
        return (Sequent(tuple(left), conclusion.right),)

    def occurrence_map(self, conclusion, premise_index):
        out = _identity_map(conclusion)
        out[(LEFT, self.pos)] = (LEFT, self.pos + 1)
        out[(LEFT, self.pos + 1)] = (LEFT, self.pos)
        return out


@dataclass(frozen=True)
class ExR(Rule):
    tag: ClassVar[str] = "ExR"
    pos: int = 0

    def premises_of(self, conclusion):
        right = list(conclusion.right)
        if not 0 <= self.pos < len(right) - 1:
            raise SchemaMismatch(None, f"at least {self.pos + 2} right formulas",
                                 sequent_to_str(conclusion))
        right[self.pos], right[self.pos + 1] = right[self.pos + 1], right[self.pos]
        return (Sequent(conclusion.left, tuple(right)),)

    def occurrence_map(self, conclusion, premise_index):
        out = _identity_map(conclusion)
        out[(RIGHT, self.pos)] = (RIGHT, self.pos + 1)
        out[(RIGHT, self.pos + 1)] = (RIGHT, self.pos)
        return out


@dataclass(frozen=True)
class Subst(Rule):
    """conclusion = source[mapping]; the premise is the source sequent."""

    tag: ClassVar[str] = "Subst"
    source: Sequent = None  # type: ignore[assignment]
    mapping: tuple[tuple[str, Expr], ...] = ()

    def premises_of(self, conclusion):
        subst = dict(self.mapping)
        want = Sequent(tuple(substitute(f, subst) for f in self.source.left),
                       tuple(substitute(f, subst) for f in self.source.right))
        if not sequent_alpha_eq(want, conclusion):
            raise SchemaMismatch(None, sequent_to_str(want), sequent_to_str(conclusion))
        return (self.source,)


@dataclass(frozen=True)
class Mono(Rule):
    """Gamma, phi[psi/x] |- phi[chi/x], Delta from k copies of
    Gamma, psi y~ |- chi y~, Delta (k = free occurrences of x in phi).
    The occurrence map is the identity: both principals keep their index."""

    tag: ClassVar[str] = "Mono"
    formula: Expr = None  # type: ignore[assignment]  # phi
    var: str = ""
    lower: Expr = None  # type: ignore[assignment]  # psi
    upper: Expr = None  # type: ignore[assignment]  # chi
    names: tuple[str, ...] = ()  # the fresh argument vector y~

    def premise_count(self) -> int:
        return count_occurrences(self.formula, self.var)

    def premises_of(self, conclusion):
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
        ctx_l, ctx_r = conclusion.left[:-1], conclusion.right[1:]
        used: set[str] = set()
        for f in ctx_l + (self.lower, self.upper) + ctx_r:
            used |= free_vars(f)
        clash = used & set(self.names)
        if clash:
            raise SideConditionViolated(
                f"names {sorted(clash)} are not fresh for the context and psi/chi")
        args = tuple(Var(y) for y in self.names)
        prem = Sequent(ctx_l + (make_app(self.lower, *args),),
                       (make_app(self.upper, *args),) + ctx_r)
        return (prem,) * self.premise_count()


@dataclass(frozen=True)
class EqL(Rule):
    """Rewriting with an equation: the conclusion's contexts are templates
    with two holes filled by (lhs, rhs) plus the equation lhs = rhs as the
    principal formula; the premise fills the same holes with (rhs, lhs).
    """

    tag: ClassVar[str] = "EqL"
    hole_l: str = ""  # template variable filled with lhs in the conclusion
    hole_r: str = ""  # template variable filled with rhs in the conclusion
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]
    left_ctx: tuple[Expr, ...] = ()
    right_ctx: tuple[Expr, ...] = ()

    def premises_of(self, conclusion):
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
        up = {self.hole_l: self.rhs, self.hole_r: self.lhs}
        return (Sequent(tuple(substitute(g, up) for g in self.left_ctx),
                        tuple(substitute(d, up) for d in self.right_ctx)),)

    def occurrence_map(self, conclusion, premise_index):
        out = _identity_map(conclusion)
        del out[(LEFT, len(conclusion.left) - 1)]  # s = t has no premise image
        return out


@dataclass(frozen=True)
class EqR(Rule):
    tag: ClassVar[str] = "EqR"

    def premises_of(self, conclusion):
        phi = _need_right(conclusion, "|- t = t, Delta")
        if not (isinstance(phi, Eq) and alpha_eq(phi.lhs, phi.rhs)):
            raise SchemaMismatch(None, "t = t", to_str(phi))
        return ()


@dataclass(frozen=True)
class OrL(Rule):
    tag: ClassVar[str] = "OrL"

    def premises_of(self, conclusion):
        phi = _need_left(conclusion, "Gamma, phi \\/ psi |-")
        if not isinstance(phi, Or):
            raise SchemaMismatch(None, "phi \\/ psi", to_str(phi))
        return (Sequent(conclusion.left[:-1] + (phi.lhs,), conclusion.right),
                Sequent(conclusion.left[:-1] + (phi.rhs,), conclusion.right))


@dataclass(frozen=True)
class OrR(Rule):
    tag: ClassVar[str] = "OrR"

    def premises_of(self, conclusion):
        phi = _need_right(conclusion, "|- phi \\/ psi, Delta")
        if not isinstance(phi, Or):
            raise SchemaMismatch(None, "phi \\/ psi", to_str(phi))
        return (Sequent(conclusion.left, (phi.lhs, phi.rhs) + conclusion.right[1:]),)

    def occurrence_map(self, conclusion, premise_index):
        out: dict[OccPos, Optional[OccPos]] = {
            (LEFT, i): (LEFT, i) for i in range(len(conclusion.left))}
        out[(RIGHT, 0)] = (RIGHT, 0)
        out[(RIGHT, 1)] = (RIGHT, 0)
        for j in range(1, len(conclusion.right)):
            out[(RIGHT, j + 1)] = (RIGHT, j)
        return out


@dataclass(frozen=True)
class AndL(Rule):
    tag: ClassVar[str] = "AndL"

    def premises_of(self, conclusion):
        phi = _need_left(conclusion, "Gamma, phi /\\ psi |-")
        if not isinstance(phi, And):
            raise SchemaMismatch(None, "phi /\\ psi", to_str(phi))
        return (Sequent(conclusion.left[:-1] + (phi.lhs, phi.rhs), conclusion.right),)

    def occurrence_map(self, conclusion, premise_index):
        out = _identity_map(conclusion)
        n = len(conclusion.left)
        out[(LEFT, n)] = (LEFT, n - 1)  # psi also descends from phi /\ psi
        return out


@dataclass(frozen=True)
class AndR(Rule):
    tag: ClassVar[str] = "AndR"

    def premises_of(self, conclusion):
        phi = _need_right(conclusion, "|- phi /\\ psi, Delta")
        if not isinstance(phi, And):
            raise SchemaMismatch(None, "phi /\\ psi", to_str(phi))
        return (Sequent(conclusion.left, (phi.lhs,) + conclusion.right[1:]),
                Sequent(conclusion.left, (phi.rhs,) + conclusion.right[1:]))


def _head_step_rule(conclusion: Sequent, side: str, kind, step) -> Sequent:
    """Shared shape for the lambda/fixed-point left and right rules."""
    principal = (_need_left(conclusion, "a principal left formula") if side == LEFT
                 else _need_right(conclusion, "a principal right formula"))
    head, args = app_spine(principal)
    if kind is Lam:
        if not (isinstance(head, Lam) and args):
            raise SchemaMismatch(None, "(\\x. phi) psi psi_vec", to_str(principal))
    elif not isinstance(head, kind):
        want = "(mu x. phi) psi_vec" if kind is Mu else "(nu x. phi) psi_vec"
        raise SchemaMismatch(None, want, to_str(principal))
    reduced = step(principal)
    if side == LEFT:
        return Sequent(conclusion.left[:-1] + (reduced,), conclusion.right)
    return Sequent(conclusion.left, (reduced,) + conclusion.right[1:])


@dataclass(frozen=True)
class LamL(Rule):
    tag: ClassVar[str] = "LamL"

    def premises_of(self, conclusion):
        return (_head_step_rule(conclusion, LEFT, Lam, beta_head),)


@dataclass(frozen=True)
class LamR(Rule):
    tag: ClassVar[str] = "LamR"

    def premises_of(self, conclusion):
        return (_head_step_rule(conclusion, RIGHT, Lam, beta_head),)


@dataclass(frozen=True)
class MuL(Rule):
    tag: ClassVar[str] = "MuL"

    def premises_of(self, conclusion):
        return (_head_step_rule(conclusion, LEFT, Mu, unfold),)


@dataclass(frozen=True)
class MuR(Rule):
    tag: ClassVar[str] = "MuR"

    def premises_of(self, conclusion):
        return (_head_step_rule(conclusion, RIGHT, Mu, unfold),)


@dataclass(frozen=True)
class NuL(Rule):
    tag: ClassVar[str] = "NuL"

    def premises_of(self, conclusion):
        return (_head_step_rule(conclusion, LEFT, Nu, unfold),)


@dataclass(frozen=True)
class NuR(Rule):
    tag: ClassVar[str] = "NuR"

    def premises_of(self, conclusion):
        return (_head_step_rule(conclusion, RIGHT, Nu, unfold),)


@dataclass(frozen=True)
class Nat(Rule):
    """Gamma |- Delta from Gamma, N x |- Delta (x a natural-number variable)."""

    tag: ClassVar[str] = "Nat"
    var: str = ""

    def premises_of(self, conclusion):
        return (Sequent(conclusion.left + (App(nat_pred(), Var(self.var)),),
                        conclusion.right),)

    def occurrence_map(self, conclusion, premise_index):
        out = _identity_map(conclusion)
        out[(LEFT, len(conclusion.left))] = None  # N x comes from nowhere
        return out


@dataclass(frozen=True)
class P1(Rule):
    tag: ClassVar[str] = "P1"

    def premises_of(self, conclusion):
        ok = (len(conclusion.left) == 1 and not conclusion.right
              and isinstance(conclusion.left[0], Eq)
              and isinstance(conclusion.left[0].lhs, Succ)
              and isinstance(conclusion.left[0].rhs, Zero)
              and is_term_shaped(conclusion.left[0].lhs))
        if not ok:
            raise SchemaMismatch(None, "S s = Z |-", sequent_to_str(conclusion))
        return ()


@dataclass(frozen=True)
class P2(Rule):
    tag: ClassVar[str] = "P2"

    def premises_of(self, conclusion):
        phi = _need_left(conclusion, "Gamma, S s = S t |-")
        ok = (isinstance(phi, Eq) and isinstance(phi.lhs, Succ)
              and isinstance(phi.rhs, Succ)
              and is_term_shaped(phi.lhs) and is_term_shaped(phi.rhs))
        if not ok:
            raise SchemaMismatch(None, "S s = S t", to_str(phi))
        return (Sequent(conclusion.left[:-1] + (Eq(phi.lhs.arg, phi.rhs.arg),),
                        conclusion.right),)


RULE_CLASSES: tuple[type[Rule], ...] = (
    Axiom, Cut, WkL, WkR, CtrL, CtrR, ExL, ExR, Subst, Mono,
    EqL, EqR, OrL, OrR, AndL, AndR, LamL, LamR, MuL, MuR, NuL, NuR,
    Nat, P1, P2,
)
RULES: dict[str, type[Rule]] = {cls.tag: cls for cls in RULE_CLASSES}


def check_rule(conclusion: Sequent, rule: Rule, premises: list[Sequent] | tuple[Sequent, ...]) -> None:
    """Raise SchemaMismatch / SideConditionViolated unless the premises are
    exactly the rule's premises for the conclusion (up to alpha)."""
    expected = rule.premises_of(conclusion)
    if len(expected) != len(premises):
        raise SchemaMismatch(None, f"{len(expected)} premises ({rule.tag})",
                             f"{len(premises)} premises")
    for i, (want, got) in enumerate(zip(expected, premises)):
        if not sequent_alpha_eq(want, got):
            raise SchemaMismatch(i, sequent_to_str(want), sequent_to_str(got))


def relevant_occurrences(conclusion: Sequent, rule: Rule, premise_index: int,
                         premises: Optional[tuple[Sequent, ...]] = None
                         ) -> dict[OccPos, Optional[OccPos]]:
    """For one premise of a rule application, the map sending each premise
    occurrence to the conclusion occurrence it is relevant to (None when the
    premise formula has no ancestor, e.g. cut formulas and (Nat)'s N x).

    ``premises`` is ``rule.premises_of(conclusion)`` when the caller has it.
    """
    if premises is None:
        premises = rule.premises_of(conclusion)
    if not 0 <= premise_index < len(premises):
        raise KernelError(f"premise index {premise_index} out of range for {rule.tag}")
    return rule.occurrence_map(conclusion, premise_index)


# ---------------------------------------------------------------------------
# derivation trees and pre-proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OccurrenceRef:
    """A formula occurrence in a named proof node."""

    node: str
    side: str  # LEFT or RIGHT
    index: int


@dataclass(frozen=True)
class DerivTree:
    """A finite derivation tree node.  rule None marks an open leaf."""

    id: str
    seq: Sequent
    rule: Optional[Rule]
    children: tuple["DerivTree", ...] = ()

    def is_open(self) -> bool:
        return self.rule is None

    def walk(self):
        """Every node of the tree in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class PreProof:
    """A derivation tree plus a back-edge target for every open leaf."""

    tree: DerivTree
    back_edges: Mapping[str, str] = field(default_factory=dict)

    @cached_property
    def nodes(self) -> dict[str, DerivTree]:
        out: dict[str, DerivTree] = {}
        for node in self.tree.walk():
            if node.id in out:
                raise KernelError(f"duplicate node id {node.id!r}")
            out[node.id] = node
        return out

    def node(self, node_id: str) -> DerivTree:
        node = self.nodes.get(node_id)
        if node is None:
            raise KernelError(f"no node {node_id!r} in the pre-proof")
        return node

    def open_leaves(self) -> list[DerivTree]:
        return [n for n in self.tree.walk() if n.is_open()]


@dataclass(frozen=True)
class ValidationIssue:
    node: str
    message: str

    def __str__(self) -> str:
        return f"{self.node}: {self.message}"


def validate_preproof(pp: PreProof) -> list[ValidationIssue]:
    """Check every inference, every sequent's typing, and every back edge.

    Returns all problems found (empty list = valid pre-proof).
    """
    issues: list[ValidationIssue] = []
    try:
        nodes = pp.nodes
    except KernelError as exc:
        return [ValidationIssue("<tree>", str(exc))]

    for node in pp.tree.walk():
        try:
            check_sequent(node.seq)
        except HflTypeError as exc:
            issues.append(ValidationIssue(node.id, f"ill-typed sequent: {exc}"))
            continue
        if node.rule is None:
            if node.children:
                issues.append(ValidationIssue(node.id, "open leaf with children"))
            continue
        try:
            check_rule(node.seq, node.rule, [c.seq for c in node.children])
        except KernelError as exc:
            issues.append(ValidationIssue(node.id, f"{node.rule.tag}: {exc}"))

    open_ids = {n.id for n in pp.open_leaves()}
    for leaf_id in open_ids:
        if leaf_id not in pp.back_edges:
            issues.append(ValidationIssue(leaf_id, "open leaf without back edge"))
    for leaf_id, target_id in pp.back_edges.items():
        if leaf_id not in open_ids:
            issues.append(ValidationIssue(leaf_id, "back edge source is not an open leaf"))
            continue
        target = nodes.get(target_id)
        if target is None:
            issues.append(ValidationIssue(leaf_id, f"back edge target {target_id!r} does not exist"))
            continue
        if not target.children:
            issues.append(ValidationIssue(leaf_id, f"back edge target {target_id!r} is a leaf"))
            continue
        if not sequent_alpha_eq(nodes[leaf_id].seq, target.seq):
            issues.append(ValidationIssue(
                leaf_id,
                f"back edge target sequent differs: {sequent_to_str(target.seq)}"
                f" vs {sequent_to_str(nodes[leaf_id].seq)}"))
    return issues


def successors(pp: PreProof, node_id: str) -> tuple[str, ...]:
    """The nodes a path may step to next: children, or the back-edge target
    for an open leaf, or nothing for a closed leaf."""
    node = pp.node(node_id)
    if node.is_open():
        return (pp.back_edges[node.id],)
    return tuple(c.id for c in node.children)
