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

Each rule also says, next to its premises, where every premise formula and
its fixed-point operators come from (:meth:`Rule.sources`): the conclusion
formula it descends from, if any (a cut formula is fresh), and how its
operators sit in that formula.  The trace machinery builds on these.
Sequents and rules are interned when they are built
(:class:`~hflcyc.syntax.Interned`), so equal ones are one object, whether a
proof was loaded or built in memory.  A pre-proof keeps the
:class:`Inference` (premises, and the head step of a lambda or fixed-point
rule with its operator sources) of each distinct (conclusion, rule) pair,
so validation, the trace automaton and all nodes with that pair share one
head step; each formula keeps its own operator positions
(:func:`~hflcyc.syntax.sigma_paths`).
"""

from __future__ import annotations

from typing import Any, ClassVar, Mapping, Optional, Union

from .syntax import (
    And, App, Eq, Expr, HeadStep, HflError, HflTypeError,
    Interned, Lam, Mu, Nu, Or, Path, Record, Sequent, Succ, Var, Zero, alpha_eq,
    check_sequent, head_step, is_term_shaped, make_app, nat_pred, sequent_alpha_eq,
    sequent_to_str, sigma_paths, substitute, to_str, var_paths,
)

LEFT = "left"
RIGHT = "right"

# occurrence position inside one sequent: (side, index)
OccPos = tuple[str, int]

# How a premise formula's operators sit in the conclusion formula it comes
# from: a path to it inside that formula, the inference's head step (whose
# sources map the step's result operators), or an explicit map from the
# premise formula's operator positions.
Link = Union[Path, HeadStep, Mapping[Path, Path]]
# Where one premise formula comes from: None when it is fresh.
Source = Optional[tuple[OccPos, Link]]
Sources = tuple[tuple[Source, ...], tuple[Source, ...]]


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


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


class Inference(Record):
    """A rule applied to one conclusion: its premises and, for the lambda and
    fixed-point rules, the head step that reduces the principal formula
    (None for every other rule)."""

    __slots__ = _compared = ("premises", "head_step")
    premises: tuple[Sequent, ...]
    head_step: Optional[HeadStep]

    def __init__(self, premises: tuple[Sequent, ...], head_step: Optional[HeadStep] = None) -> None:
        object.__setattr__(self, "premises", premises)
        object.__setattr__(self, "head_step", head_step)


class Rule(Interned):
    """Base class; subclasses define premise reconstruction and, when a
    premise formula is not a copy of the conclusion formula at its position,
    where it comes from.  A rule's tag, its name in the proof format, is its
    class name.

    A rule is interned: its parameters are the fields its class lists in
    ``__slots__``, and a rule without parameters is one object per class.
    """

    __slots__ = ()
    tag: ClassVar[str]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.tag = cls.__name__

    def premises_of(self, conclusion: Sequent) -> tuple[Sequent, ...]:
        raise NotImplementedError

    def inference(self, conclusion: Sequent) -> Inference:
        """The premises for the conclusion, with the head step if any."""
        return Inference(self.premises_of(conclusion))

    def sources(self, conclusion: Sequent, inference: Inference, branch: int) -> Sources:
        """Where each formula of premise ``branch`` comes from, as its left
        row and its right row: None for a fresh formula (a cut formula), or
        the conclusion position and the :data:`Link` of the formula it
        descends from.  A path link is ``()`` for a copy and ``(b,)`` for a
        formula's immediate subformula ``b``.

        ``inference`` is ``self.inference(conclusion)`` and ``branch`` one of
        its premises.  By default each premise formula is a copy of the
        conclusion formula at its position.
        """
        return (tuple(((LEFT, i), ()) for i in range(len(conclusion.left))),
                tuple(((RIGHT, j), ()) for j in range(len(conclusion.right))))


class Axiom(Rule):
    def premises_of(self, conclusion):
        if (len(conclusion.left) != 1 or len(conclusion.right) != 1
                or not alpha_eq(conclusion.left[0], conclusion.right[0])):
            raise SchemaMismatch(None, "phi |- phi", sequent_to_str(conclusion))
        return ()


class Cut(Rule):
    __slots__ = ("formula",)
    formula: Expr

    def premises_of(self, conclusion):
        phi = self.formula
        return (Sequent(conclusion.left, (phi,) + conclusion.right),
                Sequent(conclusion.left + (phi,), conclusion.right))

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return (left, (None,) + right) if branch == 0 else (left + (None,), right)


class WkL(Rule):
    def premises_of(self, conclusion):
        _need_left(conclusion, "Gamma, phi |-")
        return (Sequent(conclusion.left[:-1], conclusion.right),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left[:-1], right


class WkR(Rule):
    def premises_of(self, conclusion):
        _need_right(conclusion, "|- phi, Delta")
        return (Sequent(conclusion.left, conclusion.right[1:]),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left, right[1:]


class CtrL(Rule):
    def premises_of(self, conclusion):
        phi = _need_left(conclusion, "Gamma, phi |-")
        return (Sequent(conclusion.left + (phi,), conclusion.right),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left + left[-1:], right  # both copies descend from phi


class CtrR(Rule):
    def premises_of(self, conclusion):
        phi = _need_right(conclusion, "|- phi, Delta")
        return (Sequent(conclusion.left, (phi,) + conclusion.right),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left, right[:1] + right


class ExL(Rule):
    __slots__ = ("pos",)
    pos: int  # index of the earlier of the two swapped formulas

    def premises_of(self, conclusion):
        left = list(conclusion.left)
        if not 0 <= self.pos < len(left) - 1:
            raise SchemaMismatch(None, f"at least {self.pos + 2} left formulas",
                                 sequent_to_str(conclusion))
        left[self.pos], left[self.pos + 1] = left[self.pos + 1], left[self.pos]
        return (Sequent(tuple(left), conclusion.right),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        p = self.pos
        return left[:p] + (left[p + 1], left[p]) + left[p + 2:], right


class ExR(Rule):
    __slots__ = ("pos",)
    pos: int

    def premises_of(self, conclusion):
        right = list(conclusion.right)
        if not 0 <= self.pos < len(right) - 1:
            raise SchemaMismatch(None, f"at least {self.pos + 2} right formulas",
                                 sequent_to_str(conclusion))
        right[self.pos], right[self.pos + 1] = right[self.pos + 1], right[self.pos]
        return (Sequent(conclusion.left, tuple(right)),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        p = self.pos
        return left, right[:p] + (right[p + 1], right[p]) + right[p + 2:]


class Subst(Rule):
    """conclusion = source[mapping]; the premise is the source sequent."""

    __slots__ = ("source", "mapping")
    source: Sequent
    mapping: tuple[tuple[str, Expr], ...]

    def premises_of(self, conclusion):
        subst = dict(self.mapping)
        want = Sequent(tuple(substitute(f, subst) for f in self.source.left),
                       tuple(substitute(f, subst) for f in self.source.right))
        if not sequent_alpha_eq(want, conclusion):
            raise SchemaMismatch(None, sequent_to_str(want), sequent_to_str(conclusion))
        return (self.source,)

    def sources(self, conclusion, inference, branch):
        # renaming keeps the tree's shape, so each operator of f is at the
        # same path in f[mapping]; those inside substituted copies have none
        return tuple(tuple(((side, i), {q: q for q in sigma_paths(f)})
                           for i, f in enumerate(row))
                     for side, row in ((LEFT, self.source.left), (RIGHT, self.source.right)))


class Mono(Rule):
    """Gamma, phi[psi/x] |- phi[chi/x], Delta from k copies of
    Gamma, psi y~ |- chi y~, Delta (k = free occurrences of x in phi).
    Both principals keep their index, and premise k's psi and chi are the
    copies of psi and chi in phi[psi/x] and phi[chi/x] at the k-th free
    occurrence of x in phi, in preorder."""

    __slots__ = ("formula", "var", "lower", "upper", "names")
    formula: Expr  # phi
    var: str
    lower: Expr  # psi
    upper: Expr  # chi
    names: tuple[str, ...]  # the fresh argument vector y~

    def premise_count(self) -> int:
        return len(var_paths(self.formula, self.var))

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
            used |= f.free
        clash = used & set(self.names)
        if clash:
            raise SideConditionViolated(
                f"names {sorted(clash)} are not fresh for the context and psi/chi")
        args = tuple(Var(y) for y in self.names)
        prem = Sequent(ctx_l + (make_app(self.lower, *args),),
                       (make_app(self.upper, *args),) + ctx_r)
        return (prem,) * self.premise_count()

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        spine = (0,) * len(self.names)
        at = var_paths(self.formula, self.var)[branch]

        def copy(image):  # image y~'s operators sit in phi[image/x] below at
            return {spine + q: at + q for q in sigma_paths(image)}
        return (left[:-1] + ((_last(conclusion), copy(self.lower)),),
                ((_FIRST, copy(self.upper)),) + right[1:])


class EqL(Rule):
    """Rewriting with an equation: the conclusion's contexts are templates
    with two holes filled by (lhs, rhs) plus the equation lhs = rhs as the
    principal formula; the premise fills the same holes with (rhs, lhs).
    """

    __slots__ = ("hole_l", "hole_r", "lhs", "rhs", "left_ctx", "right_ctx")
    hole_l: str  # template variable filled with lhs in the conclusion
    hole_r: str  # template variable filled with rhs in the conclusion
    lhs: Expr
    rhs: Expr
    left_ctx: tuple[Expr, ...]
    right_ctx: tuple[Expr, ...]

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

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left[:-1], right  # s = t has no premise image


class EqR(Rule):
    def premises_of(self, conclusion):
        phi = _need_right(conclusion, "|- t = t, Delta")
        if not (isinstance(phi, Eq) and alpha_eq(phi.lhs, phi.rhs)):
            raise SchemaMismatch(None, "t = t", to_str(phi))
        return ()


class OrL(Rule):
    def premises_of(self, conclusion):
        phi = _need_left(conclusion, "Gamma, phi \\/ psi |-")
        if not isinstance(phi, Or):
            raise SchemaMismatch(None, "phi \\/ psi", to_str(phi))
        return (Sequent(conclusion.left[:-1] + (phi.lhs,), conclusion.right),
                Sequent(conclusion.left[:-1] + (phi.rhs,), conclusion.right))

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left[:-1] + ((_last(conclusion), (branch,)),), right


class OrR(Rule):
    def premises_of(self, conclusion):
        phi = _need_right(conclusion, "|- phi \\/ psi, Delta")
        if not isinstance(phi, Or):
            raise SchemaMismatch(None, "phi \\/ psi", to_str(phi))
        return (Sequent(conclusion.left, (phi.lhs, phi.rhs) + conclusion.right[1:]),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left, ((_FIRST, (0,)), (_FIRST, (1,))) + right[1:]


class AndL(Rule):
    def premises_of(self, conclusion):
        phi = _need_left(conclusion, "Gamma, phi /\\ psi |-")
        if not isinstance(phi, And):
            raise SchemaMismatch(None, "phi /\\ psi", to_str(phi))
        return (Sequent(conclusion.left[:-1] + (phi.lhs, phi.rhs), conclusion.right),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        principal = _last(conclusion)
        return left[:-1] + ((principal, (0,)), (principal, (1,))), right


class AndR(Rule):
    def premises_of(self, conclusion):
        phi = _need_right(conclusion, "|- phi /\\ psi, Delta")
        if not isinstance(phi, And):
            raise SchemaMismatch(None, "phi /\\ psi", to_str(phi))
        return (Sequent(conclusion.left, (phi.lhs,) + conclusion.right[1:]),
                Sequent(conclusion.left, (phi.rhs,) + conclusion.right[1:]))

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left, ((_FIRST, (branch,)),) + right[1:]


_REDEX_SHAPES = {Lam: "(\\x. phi) psi psi_vec", Mu: "(mu x. phi) psi_vec",
                 Nu: "(nu x. phi) psi_vec"}


class HeadStepRule(Rule):
    """Shared shape of the lambda and fixed-point left and right rules: the
    premise replaces the principal formula, on ``side``, by one head step on
    its ``kind`` redex."""

    side: ClassVar[str]
    kind: ClassVar[type]

    def inference(self, conclusion):
        principal = (_need_left(conclusion, "a principal left formula") if self.side == LEFT
                     else _need_right(conclusion, "a principal right formula"))
        step = head_step(principal, self.kind)
        if step is None:
            raise SchemaMismatch(None, _REDEX_SHAPES[self.kind], to_str(principal))
        if self.side == LEFT:
            premise = Sequent(conclusion.left[:-1] + (step.result,), conclusion.right)
        else:
            premise = Sequent(conclusion.left, (step.result,) + conclusion.right[1:])
        return Inference((premise,), step)

    def premises_of(self, conclusion):
        return self.inference(conclusion).premises

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        if self.side == LEFT:
            return left[:-1] + ((_last(conclusion), inference.head_step),), right
        return left, ((_FIRST, inference.head_step),) + right[1:]


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
    var: str

    def premises_of(self, conclusion):
        return (Sequent(conclusion.left + (App(nat_pred(), Var(self.var)),),
                        conclusion.right),)

    def sources(self, conclusion, inference, branch):
        left, right = super().sources(conclusion, inference, branch)
        return left + (None,), right  # N x is fresh


class P1(Rule):
    def premises_of(self, conclusion):
        ok = (len(conclusion.left) == 1 and not conclusion.right
              and isinstance(conclusion.left[0], Eq)
              and isinstance(conclusion.left[0].lhs, Succ)
              and isinstance(conclusion.left[0].rhs, Zero)
              and is_term_shaped(conclusion.left[0].lhs))
        if not ok:
            raise SchemaMismatch(None, "S s = Z |-", sequent_to_str(conclusion))
        return ()


class P2(Rule):
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

    __slots__ = _compared = ("node", "side", "index")
    node: str
    side: str  # LEFT or RIGHT
    index: int

    def __init__(self, node: str, side: str, index: int) -> None:
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "index", index)


class DerivTree(Record):
    """A finite derivation tree node.  rule None marks an open leaf."""

    __slots__ = _compared = ("id", "seq", "rule", "children")
    id: str
    seq: Sequent
    rule: Optional[Rule]
    children: tuple[DerivTree, ...]

    def __init__(self, id: str, seq: Sequent, rule: Optional[Rule],
                 children: tuple[DerivTree, ...] = ()) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "children", children)

    def is_open(self) -> bool:
        return self.rule is None

    def walk(self):
        """Every node of the tree in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # Value operations on a deep tree run from explicit stacks: the ones
    # Record inherits from tuples recurse once per level.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if (b.__class__ is not a.__class__ or a.id != b.id or a.seq != b.seq
                    or a.rule != b.rule or len(a.children) != len(b.children)):
                return False
            todo += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        """The hash of the fields, each child's hash standing for the child."""
        hashes: dict[int, int] = {}
        for node in reversed(list(self.walk())):  # each child before its parent
            hashes[id(node)] = hash((node.id, node.seq, node.rule,
                                     tuple([hashes[id(c)] for c in node.children])))
        return hashes[id(self)]

    def __reduce__(self):
        """Pickle and copy the nodes as one flat list, each after its
        children (see :func:`_tree_from_nodes`)."""
        return _tree_from_nodes, (tuple([(n.id, n.seq, n.rule, len(n.children))
                                         for n in reversed(list(self.walk()))]),)


def _tree_from_nodes(nodes: tuple[tuple[str, Sequent, Optional[Rule], int], ...]) -> DerivTree:
    """The tree whose preorder, reversed, lists ``nodes`` as (id, sequent,
    rule, number of children): a node's last child comes first."""
    built: list[DerivTree] = []  # finished subtrees, the first child on top
    for node_id, seq, rule, count in nodes:
        first = len(built) - count
        children, built[first:] = tuple(reversed(built[first:])), []
        built.append(DerivTree(node_id, seq, rule, children))
    return built[0]


class PreProof(Record):
    """A derivation tree plus a back-edge target for every open leaf.

    ``back_edges`` is a copy of the mapping given, so a later edit to the
    caller's dict changes nothing here.  Equal sequents and rules (equal as
    values, not merely alpha-equivalent, since a report prints bound names)
    are one object, as they are interned.

    Every stage reads the proof graph from one index, built at first use in
    one preorder walk of the tree: each node by id (:attr:`nodes`) and its
    successor ids (:attr:`successor_table`).  The successors of a closed
    node are its children's ids in order, those of an open leaf are
    ``(target,)`` for its back edge, and an open leaf without a back edge
    has ``None``, for which :func:`successors` raises.  A duplicate node id
    raises :class:`KernelError` when the index is built.

    A pre-proof also keeps, for its whole life, the work a check does once
    per distinct sequent rather than once per node:

    - the :class:`Inference` of each (conclusion, rule) pair, keyed by the
      interned sequent and rule themselves;
    - the occurrence steps of each (inference, branch) pair, in
      ``step_table``, which :func:`hflcyc.trace.node_steps` fills and reads,
      keyed by the id of an inference that the first table holds.

    The index and the tables are not compared, hashed or copied.
    """

    __slots__ = ("tree", "back_edges", "_nodes", "_successors", "_inferences", "step_table")
    _compared = ("tree", "back_edges")
    tree: DerivTree
    back_edges: Mapping[str, str]
    _nodes: Optional[dict[str, DerivTree]]
    _successors: Optional[dict[str, Optional[tuple[str, ...]]]]
    _inferences: dict[tuple[Sequent, Rule], Inference]
    step_table: dict[tuple[int, int], Any]

    def __init__(self, tree: DerivTree, back_edges: Optional[Mapping[str, str]] = None) -> None:
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "back_edges", {} if back_edges is None else dict(back_edges))
        object.__setattr__(self, "_nodes", None)
        object.__setattr__(self, "_successors", None)
        object.__setattr__(self, "_inferences", {})
        object.__setattr__(self, "step_table", {})

    def _index(self) -> None:
        nodes: dict[str, DerivTree] = {}
        table: dict[str, Optional[tuple[str, ...]]] = {}
        back = self.back_edges
        for node in self.tree.walk():
            node_id = node.id
            if node_id in nodes:
                raise KernelError(f"duplicate node id {node_id!r}")
            nodes[node_id] = node
            if node.rule is not None:
                table[node_id] = tuple([c.id for c in node.children])
            else:
                target = back.get(node_id)
                table[node_id] = None if target is None else (target,)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_successors", table)

    @property
    def nodes(self) -> dict[str, DerivTree]:
        """Every node by id, in preorder."""
        if self._nodes is None:
            self._index()
        return self._nodes

    @property
    def successor_table(self) -> dict[str, Optional[tuple[str, ...]]]:
        """Every node's successor ids by node id, in preorder: None for an
        open leaf without a back edge."""
        if self._successors is None:
            self._index()
        return self._successors

    def node(self, node_id: str) -> DerivTree:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KernelError(f"no node {node_id!r} in the pre-proof") from None

    def inference(self, node_id: str) -> Inference:
        """The inference at a closed node (see :meth:`inference_at`).
        Raises :class:`KernelError` for an open leaf."""
        node = self.node(node_id)
        if node.rule is None:
            raise KernelError(f"node {node_id!r} is an open leaf")
        return self.inference_at(node.seq, node.rule)

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
        seq = self.node(node_id).seq
        return {(side, index): sigma_paths(formula)
                for side, row in ((LEFT, seq.left), (RIGHT, seq.right))
                for index, formula in enumerate(row)}

    def open_leaves(self) -> list[DerivTree]:
        """The open leaves in preorder."""
        return [n for n in self.nodes.values() if n.rule is None]


class ValidationIssue(Record):
    __slots__ = _compared = ("node", "message")
    node: str
    message: str

    def __init__(self, node: str, message: str) -> None:
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "message", message)

    def __str__(self) -> str:
        return f"{self.node}: {self.message}"


_UNSEEN = object()


def validate_preproof(pp: PreProof) -> list[ValidationIssue]:
    """Check every inference, every sequent's typing, and every back edge.

    One walk over :attr:`PreProof.nodes`.  Each sequent object is typed
    once, and each (conclusion, rule, child sequents) triple is checked
    once; every failing node still gets its own issue.  Returns all problems
    found (empty list = valid pre-proof).
    """
    issues: list[ValidationIssue] = []
    try:
        nodes = pp.nodes
    except KernelError as exc:
        return [ValidationIssue("<tree>", str(exc))]

    typed: dict[Sequent, Optional[str]] = {}
    compared: dict[tuple, Optional[str]] = {}
    for node in nodes.values():
        seq, rule = node.seq, node.rule
        bad = typed.get(seq, _UNSEEN)
        if bad is _UNSEEN:
            try:
                check_sequent(seq)
                bad = None
            except HflTypeError as exc:
                bad = str(exc)
            typed[seq] = bad
        if bad is not None:
            issues.append(ValidationIssue(node.id, f"ill-typed sequent: {bad}"))
            continue
        if rule is None:
            if node.children:
                issues.append(ValidationIssue(node.id, "open leaf with children"))
            continue
        kids = tuple([c.seq for c in node.children])
        key = (seq, rule, kids)
        bad = compared.get(key, _UNSEEN)
        if bad is _UNSEEN:
            try:
                _check_premises(rule, pp.inference_at(seq, rule).premises, kids)
                bad = None
            except KernelError as exc:
                bad = str(exc)
            compared[key] = bad
        if bad is not None:
            issues.append(ValidationIssue(node.id, f"{rule.tag}: {bad}"))

    for leaf in pp.open_leaves():
        if leaf.id not in pp.back_edges:
            issues.append(ValidationIssue(leaf.id, "open leaf without back edge"))
    for leaf_id, target_id in pp.back_edges.items():
        source = nodes.get(leaf_id)
        if source is None or source.rule is not None:
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
    for an open leaf, or nothing for a closed leaf.  Raises
    :class:`KernelError` for a missing node or an open leaf without a back
    edge."""
    try:
        out = pp.successor_table[node_id]
    except KeyError:
        raise KernelError(f"no node {node_id!r} in the pre-proof") from None
    if out is None:
        raise KernelError(f"open leaf {node_id!r} has no back edge")
    return out
