"""Automata decision of the global trace condition for cyclic pre-proofs.

Two Büchi automata share the alphabet of proof-node ids.  The path automaton
accepts exactly the infinite walks of the proof graph from the root.  The
trace automaton accepts the paths along which some occurrence thread
eventually carries a left mu-trace or a right nu-trace; it tracks one formula
occurrence at a time, with the fixed-point operators that currently carry the
thread marked.  The global trace condition holds exactly when every path is
so covered, i.e. when the path language is contained in the trace language;
a failure is witnessed by an ultimately periodic counterexample path.

The symbol read on a transition is the *source* node of the path step; both
automata use the same convention, so the containment test is unaffected by
it.  Marked formulas are represented by the set of marked operator positions
attached to a formula occurrence, which keeps the state space finite and
hashable without renaming.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .buchi import (
    BuchiAutomaton,
    SizeGuard,
    contains,
    make_automaton,
    trim,
)
from .kernel import (
    LEFT,
    RIGHT,
    DerivTree,
    OccPos,
    OccurrenceRef,
    PreProof,
    ValidationIssue,
    successors,
    validate_preproof,
)
from .syntax import Expr, HflError, Path, Sequent, sigma_paths, to_str
from .trace import (
    MU,
    NU,
    Lasso,
    occurrence_steps,
    render_annotated,
    replay_annotations,
)

__all__ = [
    "Accepted",
    "CheckResult",
    "GtcError",
    "GtcState",
    "GtcUnknown",
    "MarkedFormula",
    "Rejected",
    "STAR",
    "Star",
    "StateExplosionGuard",
    "TraceAutomaton",
    "Tracked",
    "build_gtc_automaton",
    "build_path_automaton",
    "check_cyclic_proof",
    "check_gtc",
    "counterexample_report",
    "marked_formula",
    "render_lasso",
]


class GtcError(HflError):
    """Malformed marked formula or tracked state."""


class StateExplosionGuard(GtcError):
    """The trace-automaton construction exceeded its configured state cap."""


class GtcUnknown(GtcError):
    """The condition could not be decided within the configured state caps.

    Raised instead of returning a possibly wrong boolean.
    """


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Star:
    """The idle automaton state: no occurrence is being tracked yet."""

    def __repr__(self) -> str:
        return "Star"


STAR = Star()


@dataclass(frozen=True)
class MarkedFormula:
    """A formula with a set of marked fixed-point operator positions.

    Stripping the marks (taking ``formula``) recovers the plain formula; the
    marks must be operator positions of it.
    """

    formula: Expr
    marks: frozenset[Path]

    def __post_init__(self) -> None:
        bad = set(self.marks) - set(sigma_paths(self.formula))
        if bad:
            raise GtcError(
                f"marks {sorted(bad)} are not operator positions of "
                f"{to_str(self.formula)!r}")

    def strip(self) -> Expr:
        return self.formula

    def describe(self) -> str:
        at = ",".join("." + ".".join(map(str, p)) if p else "<root>"
                      for p in sorted(self.marks))
        return f"{to_str(self.formula)} marked at {{{at}}}"


@dataclass(frozen=True)
class Tracked:
    """A tracked occurrence together with its marked operator positions."""

    occ: OccurrenceRef
    marks: frozenset[Path]

    def __post_init__(self) -> None:
        if not self.marks:
            raise GtcError("a tracked state needs at least one mark")

    def __repr__(self) -> str:
        paths = ";".join(".".join(map(str, p)) or "e" for p in sorted(self.marks))
        return (f"Tracked({self.occ.node},{self.occ.side},{self.occ.index},"
                f"[{paths}])")


GtcState = Union[Star, Tracked]


def _occurrence_formula(pp: PreProof, occ: OccurrenceRef) -> Expr:
    seq = pp.node(occ.node).seq
    row = seq.left if occ.side == LEFT else seq.right
    if not 0 <= occ.index < len(row):
        raise GtcError(f"no occurrence {occ} in node {occ.node!r}")
    return row[occ.index]


def marked_formula(pp: PreProof, state: Tracked) -> MarkedFormula:
    """The marked formula carried by a tracked state (marks validated)."""
    return MarkedFormula(_occurrence_formula(pp, state.occ), state.marks)


# ---------------------------------------------------------------------------
# the path automaton
# ---------------------------------------------------------------------------


def _require_back_edges(pp: PreProof) -> None:
    for node in pp.nodes.values():
        if node.is_open() and node.id not in pp.back_edges:
            raise GtcError(f"open leaf {node.id!r} has no back edge")


def build_path_automaton(pp: PreProof) -> BuchiAutomaton:
    """A Büchi automaton accepting exactly the infinite paths of the proof.

    States mirror the proof nodes, every transition reads its source node and
    is accepting, and runs start at the root; closed leaves have no outgoing
    transitions, so a closed proof tree yields the empty language.  Raises
    :class:`GtcError` when an open leaf has no back edge.
    """
    _require_back_edges(pp)
    ids = sorted(pp.nodes)
    transitions = [(n, n, m) for n in ids for m in successors(pp, n)]
    return make_automaton(ids, ids, transitions, [pp.tree.id], transitions)


# ---------------------------------------------------------------------------
# the trace automaton
# ---------------------------------------------------------------------------


def _sequent_occurrences(seq: Sequent) -> Iterator[OccPos]:
    for i in range(len(seq.left)):
        yield (LEFT, i)
    for j in range(len(seq.right)):
        yield (RIGHT, j)


_Key = tuple[str, str, int, frozenset[Path]]
"""A tracked state while the automaton is built: node, side, index, marks."""


def _single_mark_states(pp: PreProof, node_id: str) -> list[_Key]:
    """Every way to start tracking at a node: one marked operator each."""
    seq = pp.node(node_id).seq
    return [(node_id, side, index, frozenset((p,)))
            for side, index in _sequent_occurrences(seq)
            for p in sigma_paths((seq.left if side == LEFT else seq.right)[index])]


def _good_unfold(side: str, sigma_kind: Optional[str]) -> bool:
    return ((sigma_kind == MU and side == LEFT)
            or (sigma_kind == NU and side == RIGHT))


@dataclass(frozen=True)
class TraceAutomaton(BuchiAutomaton):
    """A trace automaton whose states are ints; state ``i`` is ``decode[i]``."""

    decode: tuple[GtcState, ...] = field(default=(), compare=False, repr=False)


def build_gtc_automaton(pp: PreProof, *, max_states: int = 50_000
                        ) -> TraceAutomaton:
    """The trace automaton over proof-node symbols.

    From the idle state the automaton either ignores the input or, while
    reading node ``n``, starts tracking any occurrence of any successor node
    with exactly one marked operator.  A tracked state moves only on its own
    node's symbol:

    - non-principal steps transport marks through the occurrence
      correspondence of the rule (duplicating across copies, dying when every
      marked position is dropped);
    - a principal fixed-point step whose head is marked chooses between
      *track-head* — drop all other marks and mark exactly the copies
      substituted for the recursion variable — and *keep-other-copies* —
      unmark the head and transport the remaining marks through the
      unfolding;
    - track-head transitions are accepting exactly when they unfold a left mu
      or a right nu; every other transition is not accepting.

    States are numbered as ints in the order the search discovers them: 0 is
    :data:`STAR`, and ``decode[i]`` is the :class:`Tracked` state numbered
    ``i``.  So trimming and containment hash small ints, not dataclasses.

    States whose mark set would become empty are dropped: such a state can
    never see another track-head, so the accepted language is unchanged.
    Raises :class:`StateExplosionGuard` over ``max_states`` states and
    :class:`GtcError` when an open leaf has no back edge.
    """
    _require_back_edges(pp)
    ids = sorted(pp.nodes)

    number: dict[_Key, int] = {}
    decode: list[GtcState] = [STAR]
    queue: deque[tuple[int, _Key]] = deque()
    transitions: set[tuple[int, str, int]] = set()
    accepting: set[tuple[int, str, int]] = set()

    def state(key: _Key) -> int:
        q = number.get(key)
        if q is None:
            if len(decode) >= max_states:
                raise StateExplosionGuard(
                    f"trace automaton exceeds {max_states} states")
            q = number[key] = len(decode)
            node_id, side, index, marks = key
            decode.append(Tracked(OccurrenceRef(node_id, side, index), marks))
            queue.append((q, key))
        return q

    steps: dict[tuple[str, int], dict[OccPos, list]] = {}

    def steps_from(node: DerivTree, branch: int, occ: OccPos) -> list:
        """(step, inverse transport) for each step of ``occ`` into a branch."""
        got = steps.get((node.id, branch))
        if got is None:
            got = steps[node.id, branch] = {}
            for step in occurrence_steps(node.seq, node.rule, branch):
                got.setdefault(step.conclusion_pos, []).append((step, step.inverse()))
        return got.get(occ, [])

    def emit(src: int, sym: str, dst: int, acc: bool = False) -> None:
        transitions.add((src, sym, dst))
        if acc:
            accepting.add((src, sym, dst))

    entries = {m: _single_mark_states(pp, m) for m in ids}
    for n in ids:
        emit(0, n, 0)
        for m in successors(pp, n):
            for key in entries[m]:
                emit(0, n, state(key))

    while queue:
        src, (node_id, side, index, marks) = queue.popleft()
        node = pp.node(node_id)
        if node.is_open():
            emit(src, node_id, state((pp.back_edges[node_id], side, index, marks)))
            continue
        for branch, child in enumerate(node.children):
            for step, inv in steps_from(node, branch, (side, index)):
                at = (child.id, *step.premise_pos)
                rest = marks
                if step.consumed_head is not None and step.consumed_head in marks:
                    if step.copy_roots:
                        emit(src, node_id, state((*at, frozenset(step.copy_roots))),
                             _good_unfold(side, step.sigma_kind))
                    rest = marks - {step.consumed_head}
                transported: set[Path] = set()
                for c in rest:
                    transported.update(inv.get(c, ()))
                if transported:
                    emit(src, node_id, state((*at, frozenset(transported))))

    return TraceAutomaton(
        frozenset(range(len(decode))), frozenset(ids), frozenset(transitions),
        frozenset([0]), frozenset(accepting), tuple(decode))


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def check_gtc(pp: PreProof, *, max_states: int = 50_000
              ) -> tuple[bool, Optional[Lasso]]:
    """Decide whether every infinite path carries a good trace.

    Returns ``(True, None)`` when the path language is contained in the trace
    language, else ``(False, lasso)`` with an ultimately periodic
    counterexample path (no left mu-trace / right nu-trace on any tail).
    Raises :class:`GtcUnknown` when a state cap was exceeded — never a wrong
    boolean — and :class:`GtcError` when an open leaf has no back edge.
    """
    path_aut = build_path_automaton(pp)
    try:
        trace_aut = trim(build_gtc_automaton(pp, max_states=max_states))
        ok, word = contains(path_aut, trace_aut, max_states=max_states)
    except (SizeGuard, StateExplosionGuard) as exc:
        raise GtcUnknown(f"undecided within the state cap: {exc}") from exc
    if ok:
        return True, None
    assert word is not None
    return False, Lasso(word.u, word.v)


@dataclass(frozen=True)
class Accepted:
    """The pre-proof is structurally valid and satisfies the trace condition."""


@dataclass(frozen=True)
class Rejected:
    """Why a pre-proof is not a cyclic proof.

    ``kind`` is ``"structural"`` (with validation issues) or ``"trace"``
    (with a counterexample lasso).
    """

    kind: str
    issues: tuple[ValidationIssue, ...] = ()
    lasso: Optional[Lasso] = None
    detail: str = ""


CheckResult = Union[Accepted, Rejected]


def check_cyclic_proof(pp: PreProof, *, max_states: int = 50_000) -> CheckResult:
    """Full check: every inference validated, then the trace condition.

    Raises :class:`GtcUnknown` if the trace condition could not be decided
    within the caps.
    """
    issues = validate_preproof(pp)
    if issues:
        return Rejected("structural", issues=tuple(issues),
                        detail="; ".join(str(i) for i in issues))
    ok, lasso = check_gtc(pp, max_states=max_states)
    if ok:
        return Accepted()
    assert lasso is not None
    return Rejected("trace", lasso=lasso,
                    detail=f"path with no good trace: {render_lasso(lasso)}")


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def render_lasso(lasso: Lasso) -> str:
    """``prefix (cycle)^ω`` as node ids."""
    cycle = f"({' '.join(lasso.cycle)})^ω"
    if lasso.prefix:
        return f"{' '.join(lasso.prefix)} {cycle}"
    return cycle


def counterexample_report(pp: PreProof, lasso: Lasso) -> str:
    """A printable account of a counterexample path.

    The node-id line is followed, for each occurrence of the cycle's first
    node, by the annotated replay of one full lap (plus re-entry), showing
    where each candidate thread stops or fails to grow.
    """
    lines = [f"counterexample path: {render_lasso(lasso)}"]
    start_node = lasso.cycle[0]
    lap = lasso.cycle + (lasso.cycle[0],)
    seq = pp.node(start_node).seq
    for side, index in _sequent_occurrences(seq):
        ref = OccurrenceRef(start_node, side, index)
        lines.append(f"thread from {start_node} {side}:{index}:")
        entries = replay_annotations(pp, lap, ref)
        for node_id, occ, af in entries:
            lines.append(f"  {node_id}  {occ[0]}:{occ[1]}  {render_annotated(af)}")
        if len(entries) < len(lap):
            lines.append("  (thread ends: occurrence has no successor)")
    return "\n".join(lines)
