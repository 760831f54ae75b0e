"""Automata decision of the global trace condition for cyclic pre-proofs.

Two Büchi automata share the alphabet of proof-node ids.  The path automaton
accepts exactly the infinite walks of the proof graph from the root.  The
trace automaton accepts the paths along which some occurrence thread
eventually carries a left mu-trace or a right nu-trace; each of its states
follows one fixed-point operator position of one formula occurrence, as the
brute-force oracle of :mod:`hflcyc.trace` does.  The global trace condition
holds exactly when every path is so covered, i.e. when the path language is
contained in the trace language; a failure is witnessed by an ultimately
periodic counterexample path.

The symbol read on a transition is the *source* node of the path step; both
automata use the same convention, so the containment test is unaffected by
it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

from .buchi import (
    BuchiAutomaton,
    Lasso,
    SizeGuard,
    contains,
    make_automaton,
    trim,
)
from .kernel import (
    LEFT,
    RIGHT,
    OccurrenceRef,
    PreProof,
    ValidationIssue,
    successors,
    validate_preproof,
)
from .syntax import (
    HflError,
    Path,
    Template,
    annotation_label,
    fill_template,
    print_template,
)
from .trace import (
    MU,
    NU,
    node_steps,
    replay_annotations,
)

__all__ = [
    "Accepted",
    "CheckResult",
    "GtcError",
    "GtcUnknown",
    "Rejected",
    "TraceAutomaton",
    "build_gtc_automaton",
    "build_path_automaton",
    "check_cyclic_proof",
    "check_gtc",
    "counterexample_report",
    "render_lasso",
]


class GtcError(HflError):
    """The trace condition of a pre-proof could not be decided."""


class GtcUnknown(GtcError):
    """The condition could not be decided within the configured state caps.

    Raised instead of returning a possibly wrong boolean.
    """


# ---------------------------------------------------------------------------
# the path automaton
# ---------------------------------------------------------------------------


def _require_back_edges(pp: PreProof) -> None:
    nodes = pp.nodes
    for node in nodes.values():
        if node.is_open():
            target = pp.back_edges.get(node.id)
            if target is None:
                raise GtcError(f"open leaf {node.id!r} has no back edge")
            if target not in nodes:
                raise GtcError(f"back edge {node.id!r} -> {target!r} "
                               f"targets a missing node")


def build_path_automaton(pp: PreProof) -> BuchiAutomaton:
    """A Büchi automaton accepting exactly the infinite paths of the proof.

    States mirror the proof nodes, every transition reads its source node and
    is accepting, and runs start at the root; closed leaves have no outgoing
    transitions, so a closed proof tree yields the empty language.  Raises
    :class:`GtcError` when an open leaf has no back edge or a back edge
    targets a missing node.
    """
    _require_back_edges(pp)
    ids = sorted(pp.nodes)
    transitions = [(n, n, m) for n in ids for m in successors(pp, n)]
    return make_automaton(ids, ids, transitions, [pp.tree.id], transitions)


# ---------------------------------------------------------------------------
# the trace automaton
# ---------------------------------------------------------------------------


_Key = tuple[str, str, int, Path]
"""A tracked state: node, side and index of an occurrence, and the operator
position (mark) of it that the state follows."""


def _good_unfold(side: str, sigma_kind: Optional[str]) -> bool:
    return ((sigma_kind == MU and side == LEFT)
            or (sigma_kind == NU and side == RIGHT))


@dataclass(frozen=True)
class TraceAutomaton(BuchiAutomaton):
    """A trace automaton whose states are ints.

    ``decode[i]`` is the ``(node, side, index, mark)`` key of tracked state
    ``i``, and ``decode[0]`` is None: state 0 is idle, tracking nothing.
    """

    decode: tuple[Optional[_Key], ...] = field(default=(), compare=False, repr=False)


def build_gtc_automaton(pp: PreProof) -> TraceAutomaton:
    """The trace automaton over proof-node symbols.

    From the idle state the automaton either ignores the input or, while
    reading node ``n``, starts tracking any operator position ``p`` of any
    occurrence of any successor node.  A tracked state moves only on its own
    node's symbol: at a back edge to the same occurrence and position, and
    at a rule to every premise position ``q`` that descends from ``p``
    through the rule's occurrence correspondence.  When the rule unfolds
    ``p`` itself, these ``q`` are the substituted copies, and the
    transition is accepting exactly when it unfolds a left mu or a right nu;
    every other transition is not accepting.

    Following one operator per state accepts the same paths as following a
    set of them, the marked-set construction.  There the marks move
    independently: each mark of the next set descends from a mark of the
    current one, and an unfolding of a mark either follows it alone to its
    descendants, which are exactly the substituted copies (see
    ``OccurrenceStep``), accepting when the unfolding is good, or drops it.
    So a one-operator run lifts to a set run whose sets hold its operator,
    accepting where it does.  Conversely, after an accepting step of a set
    run every later mark descends from the operator that step unfolded; a
    chain of marks through the whole run exists by König's lemma, and it
    passes through every accepting step, so it is an accepting one-operator
    run.  Hence there are at most 1 + Σ|operator positions| states over all
    occurrences, linear in the proof.

    States are numbered as ints in the order the search discovers them: 0 is
    the idle state, and ``decode[i]`` is the ``(node, side, index, mark)``
    key of the state numbered ``i``.  So trimming and containment hash small
    ints, not tuples.
    Operator positions and occurrence steps are read from the pre-proof's
    tables (:meth:`~hflcyc.kernel.PreProof.positions`,
    :func:`~hflcyc.trace.node_steps`), so nodes with equal sequents share
    them, whether the pre-proof was loaded or built in memory.  Raises
    :class:`GtcError` when an open leaf has no back edge or a back edge
    targets a missing node.
    """
    _require_back_edges(pp)
    ids = sorted(pp.nodes)

    number: dict[_Key, int] = {}
    decode: list[Optional[_Key]] = [None]
    queue: deque[tuple[int, _Key]] = deque()
    transitions: set[tuple[int, str, int]] = set()
    accepting: set[tuple[int, str, int]] = set()

    def state(key: _Key) -> int:
        q = number.get(key)
        if q is None:
            q = number[key] = len(decode)
            decode.append(key)
            queue.append((q, key))
        return q

    def emit(src: int, sym: str, dst: int, acc: bool = False) -> None:
        transitions.add((src, sym, dst))
        if acc:
            accepting.add((src, sym, dst))

    # from the idle state, start to follow any operator position of a node
    entries = {m: [(m, side, index, p)
                   for (side, index), paths in pp.positions(m).items()
                   for p in paths]
               for m in ids}
    for n in ids:
        emit(0, n, 0)
        for m in successors(pp, n):
            for key in entries[m]:
                emit(0, n, state(key))

    while queue:
        src, (node_id, side, index, mark) = queue.popleft()
        node = pp.node(node_id)
        if node.is_open():
            emit(src, node_id, state((pp.back_edges[node_id], side, index, mark)))
            continue
        for branch, child in enumerate(node.children):
            for step, inv in node_steps(pp, node, branch).get((side, index), ()):
                acc = mark == step.consumed_head and _good_unfold(side, step.sigma_kind)
                for q in inv.get(mark, ()):
                    emit(src, node_id, state((child.id, *step.premise_pos, q)), acc)

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
    boolean — and :class:`GtcError` when an open leaf has no back edge or a
    back edge targets a missing node.
    """
    path_aut = build_path_automaton(pp)
    try:
        trace_aut = trim(build_gtc_automaton(pp))
        return contains(path_aut, trace_aut, max_states=max_states)
    except SizeGuard as exc:
        raise GtcUnknown(f"undecided within the state cap: {exc}") from exc


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

    Each distinct formula object of the replay is printed once, as a
    :func:`~hflcyc.syntax.print_template`, and each distinct annotation is
    labelled once; a line fills its formula's template with its labels.  A
    pre-proof holds one object per sequent value, so a long lap over a few
    sequents prints a few formulas.
    """
    lines = [f"counterexample path: {render_lasso(lasso)}"]
    start_node = lasso.cycle[0]
    lap = lasso.cycle + (lasso.cycle[0],)
    # keyed by id: every formula replayed belongs to a sequent of pp
    templates: dict[int, Template] = {}
    labels: dict[tuple[int, ...], str] = {}

    def label(note: tuple[int, ...]) -> str:
        text = labels.get(note)
        if text is None:
            text = labels[note] = annotation_label(note)
        return text

    for side, index in pp.positions(start_node):
        ref = OccurrenceRef(start_node, side, index)
        lines.append(f"thread from {start_node} {side}:{index}:")
        entries = replay_annotations(pp, lap, ref)
        for node_id, occ, af in entries:
            template = templates.get(id(af.formula))
            if template is None:
                template = templates[id(af.formula)] = print_template(af.formula)
            text = fill_template(template, {p: label(n) for p, n in af.notes.items()})
            lines.append(f"  {node_id}  {occ[0]}:{occ[1]}  {text}")
        if len(entries) < len(lap):
            lines.append("  (thread ends: occurrence has no successor)")
    return "\n".join(lines)
