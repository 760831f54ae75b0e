"""Decision of the global trace condition for cyclic pre-proofs.

The trace automaton reads proof-node ids.  Each of its states follows one
fixed-point operator position of one formula occurrence, as the brute-force
oracle of :mod:`hflcyc.trace` does, and it accepts where the operator it
follows is unfolded as a left mu or a right nu.  Every cycle of the proof
graph passes a back edge, so every infinite path visits back-edge targets
(companions) infinitely often, and the automaton starts at the operator
positions of the companions.

The global trace condition holds when every infinite path of the proof has a
tail that some run of the trace automaton follows, accepting infinitely
often.  :func:`contains` decides it by the size-change principle: the paths
are cut at companions, the three-valued matrices of the trace automaton over
the segments between companions are closed under composition, and the
condition fails exactly when some idempotent loop at a companion has no
diagonal entry of value 2.  A failure is witnessed by an ultimately periodic
counterexample path.

The symbol read on a transition is the *source* node of the path step.
"""

from __future__ import annotations

import heapq

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .buchi import (
    BuchiAutomaton,
    Lasso,
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
    "contains",
    "counterexample_report",
    "render_lasso",
]

MAX_STATES = 50_000
"""The default cap on the segments, partial segments and loop elements that
:func:`contains` stores."""


class GtcError(HflError):
    """The trace condition of a pre-proof could not be decided."""


class GtcUnknown(GtcError):
    """The condition could not be decided within the configured state caps.

    Raised instead of returning a possibly wrong boolean.
    """


# ---------------------------------------------------------------------------
# the proof graph
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


def _companions(pp: PreProof) -> list[str]:
    """The back-edge targets, sorted: every cycle of the proof graph passes one."""
    return sorted(set(pp.back_edges.values()))


def build_path_automaton(pp: PreProof) -> BuchiAutomaton:
    """A Büchi automaton accepting exactly the infinite paths of the proof.

    States mirror the proof nodes, every transition reads its source node and
    is accepting, and runs start at the root; closed leaves have no outgoing
    transitions, so a closed proof tree yields the empty language.
    :func:`check_gtc` decides on the proof graph itself; it builds this
    automaton only as the stage that ``bench/worker.py`` times by name.
    Raises :class:`GtcError` when an open leaf has no back edge or a back
    edge targets a missing node.
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

    ``decode[i]`` is the ``(node, side, index, mark)`` key of state ``i``.
    """

    decode: tuple[_Key, ...] = field(default=(), compare=False, repr=False)


def build_gtc_automaton(pp: PreProof) -> TraceAutomaton:
    """The trace automaton over proof-node symbols.

    Its initial states follow the operator positions ``p`` of the
    occurrences of the companions.  A state moves only on its own node's
    symbol: at a back edge to the same occurrence and position, and at a
    rule to every premise position ``q`` that descends from ``p`` through
    the rule's occurrence correspondence.  When the rule unfolds ``p``
    itself, these ``q`` are the substituted copies, and the transition is
    accepting exactly when it unfolds a left mu or a right nu; every other
    transition is not accepting.  An infinite path passes companions
    infinitely often, so any good trace along it is followed from some
    visit to a companion on.

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
    run.  Hence there are at most Σ|operator positions| states over all
    occurrences, linear in the proof.

    States are numbered as ints in the order the search discovers them, the
    initial ones first, and ``decode[i]`` is the ``(node, side, index,
    mark)`` key of the state numbered ``i``.  So trimming and the decision
    hash small ints, not tuples.
    Operator positions and occurrence steps are read from the pre-proof's
    tables (:meth:`~hflcyc.kernel.PreProof.positions`,
    :func:`~hflcyc.trace.node_steps`), so nodes with equal sequents share
    them, whether the pre-proof was loaded or built in memory.  Raises
    :class:`GtcError` when an open leaf has no back edge or a back edge
    targets a missing node.
    """
    _require_back_edges(pp)

    number: dict[_Key, int] = {}
    decode: list[_Key] = []
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

    for c in _companions(pp):
        for (side, index), paths in pp.positions(c).items():
            for p in paths:
                state((c, side, index, p))
    initial = frozenset(range(len(decode)))

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
        frozenset(range(len(decode))), frozenset(pp.nodes), frozenset(transitions),
        initial, frozenset(accepting), tuple(decode))


# ---------------------------------------------------------------------------
# three-valued transition matrices
# ---------------------------------------------------------------------------
#
# A matrix entry over a fixed order of the trace automaton's states says,
# for a finite path w of the proof:
#   0 - no w-labelled run between the states,
#   1 - a run exists,
#   2 - a run through an accepting transition exists.
# A row is two bit masks: ``p1`` (entry >= 1) and ``p2`` (entry = 2), with p2
# contained in p1.  A matrix stores only its non-zero rows, as ``(i, p1, p2)``
# triples in increasing order of i, so equal matrices are equal tuples.  A
# product looks the rows of its right factor up by index, in a ``_Rows`` dict
# ``i -> (p1, p2)``, and costs the non-zero rows of its left factor times
# their bits: one step along a long cycle touches the few states that move,
# not every state of the automaton.

_Mat = tuple[tuple[int, int, int], ...]
_Rows = dict[int, tuple[int, int]]


def _rows(m: _Mat) -> _Rows:
    return {i: (r1, r2) for i, r1, r2 in m}


def _mat_identity(n: int) -> _Mat:
    return tuple((i, 1 << i, 0) for i in range(n))


def _mat_mul(a: _Mat, b: _Rows) -> _Mat:
    out = []
    for i, r1, r2 in a:
        o1 = o2 = 0
        x = r1
        while x:
            low = x & -x
            x ^= low
            row = b.get(low.bit_length() - 1)
            if row is not None:
                o1 |= row[0]
                # through an accepting step of either factor
                o2 |= row[0] if r2 & low else row[1]
        if o1:
            out.append((i, o1, o2))
    return tuple(out)


def _symbol_matrices(trace: BuchiAutomaton) -> dict[str, _Rows]:
    """Each node's one-step matrix over the sorted states of ``trace``.

    Built from the transitions: a node's matrix has a row for each state
    that moves on it, and a node no transition reads has an empty one.
    """
    pos = {q: i for i, q in enumerate(sorted(trace.states))}
    gens: dict[str, _Rows] = {sym: {} for sym in trace.alphabet}
    for t in trace.transitions:
        src, sym, dst = t
        i, bit = pos[src], 1 << pos[dst]
        r1, r2 = gens[sym].get(i, (0, 0))
        gens[sym][i] = (r1 | bit, r2 | bit if t in trace.accepting else r2)
    return gens


# ---------------------------------------------------------------------------
# the size-change closure
# ---------------------------------------------------------------------------

Word = tuple[str, ...]
Element = tuple[str, str, _Mat]
"""(source, target, matrix): what a path of the proof between two companions
does to the trace automaton, over some word."""


class _Cap:
    """One count of stored segments, partial segments and loop elements."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def take(self) -> None:
        if self.used >= self.limit:
            raise GtcUnknown(
                f"undecided within the state cap: stored {self.used} segments, "
                "partial segments and loop elements")
        self.used += 1


def _segments(pp: PreProof, gens: Mapping[str, _Rows], identity: _Mat,
              companions: list[str], cap: _Cap) -> dict[Element, Word]:
    """Paths from a companion to the next, with a shortest word.

    Between two companions a path passes no back edge, so each search ends.
    A partial segment is keyed by the node it reached and its matrix.
    """
    stops = set(companions)
    segments: dict[Element, Word] = {}
    for c in companions:
        start = (c, identity)
        words: dict[tuple[str, _Mat], Word] = {start: ()}
        queue = deque([start])
        while queue:
            item = queue.popleft()
            n, m = item
            step = _mat_mul(m, gens[n])
            for dst in sorted(successors(pp, n)):
                if dst in stops:
                    seg = (c, dst, step)
                    if seg not in segments:
                        cap.take()
                        segments[seg] = words[item] + (n,)
                elif (dst, step) not in words:
                    cap.take()
                    words[(dst, step)] = words[item] + (n,)
                    queue.append((dst, step))
    return segments


def _loops(segments: Mapping[Element, Word], cap: _Cap) -> dict[Element, Word]:
    """The closure of the segments under composition, with shortest words.

    Elements are settled in order of word length, so the word an element has
    when it is settled is a shortest one.
    """
    by_source: dict[str, list[tuple[Element, Word, _Rows]]] = {}
    for seg, word in segments.items():
        by_source.setdefault(seg[0], []).append((seg, word, _rows(seg[2])))
    best = dict(segments)
    heap = [(len(word), i, seg) for i, (seg, word) in enumerate(segments.items())]
    tick = len(heap)
    settled: dict[Element, Word] = {}
    while heap:
        _len, _tick, elem = heapq.heappop(heap)
        if elem in settled:
            continue
        word = settled[elem] = best[elem]
        src, dst, m = elem
        for (_mid, to, _m2), word2, rows2 in by_source.get(dst, ()):
            prod = (src, to, _mat_mul(m, rows2))
            longer = word + word2
            old = best.get(prod)
            if old is None:
                cap.take()
            if old is None or len(longer) < len(old):
                best[prod] = longer
                heapq.heappush(heap, (len(longer), tick, prod))
                tick += 1
    return settled


def _root_words(pp: PreProof, targets: list[str]) -> dict[str, Word]:
    """A shortest path from the root to each target, as the nodes it leaves.

    The breadth-first search takes successors in sorted order, as
    :func:`_segments` does, so equal-length witnesses are chosen by node id.
    """
    before: dict[str, Optional[str]] = {pp.tree.id: None}
    queue = deque([pp.tree.id])
    while queue:
        n = queue.popleft()
        for dst in sorted(successors(pp, n)):
            if dst not in before:
                before[dst] = n
                queue.append(dst)
    words = {}
    for t in targets:
        back = []
        n = before[t]
        while n is not None:
            back.append(n)
            n = before[n]
        words[t] = tuple(reversed(back))
    return words


def contains(pp: PreProof, trace: BuchiAutomaton, *, max_states: int = MAX_STATES
             ) -> tuple[bool, Optional[Lasso]]:
    """Does every infinite path of ``pp`` have a tail that ``trace`` accepts?

    Returns ``(True, None)`` or ``(False, lasso)`` with a counterexample
    path.  ``trace`` is :func:`build_gtc_automaton` of ``pp``, trimmed or
    not, so its runs start at companions.  The decision is the size-change principle (Lee, Jones and
    Ben-Amram, POPL 2001, Theorem 4), with the trace automaton's states as
    the parameters.  Take an infinite path that no run accepts.  It passes
    companions (:func:`_companions`) infinitely often; colour each pair of
    visits i < j by (the companions at i and j, the three-valued matrix of
    the automaton on the path between them).  By Ramsey's theorem infinitely
    many visits have all their pairs of one colour (c, c, E), and two
    adjacent pairs compose to a third, so E·E = E.  If E had a diagonal
    entry of value 2 at a state s, a run would follow s through each block
    back to s, accepting in each: the path would be accepted.  Conversely,
    an idempotent loop element E at c with word v and no diagonal 2 rejects
    u·v^omega for any path u from the root to c: an accepting run would, by
    Ramsey again, visit one state s at the start of infinitely many blocks
    with an accepting step between two of them, which is a diagonal 2 of a
    power of E, that is of E.

    So the decision closes two finite tables, each keeping a shortest word:
    the segments of the proof graph between companions, and their closure
    under composition.  One cycle through one companion is a single
    segment, so the closure does not grow with cycle length.  The matrices
    keep only their non-zero rows, so a step of a segment costs the rows
    that move, not every state: on a cycle along which the automaton
    follows a few threads, few rows move.  The counterexample is the
    shortest path u from the root to c, found by breadth-first search, with
    the shortest v, and the end of u rotated into v while both end in the
    same node.  ``max_states`` caps the segments and partial segments and
    the loop elements together; going past it raises :class:`GtcUnknown`.
    """
    gens = _symbol_matrices(trace)
    cap = _Cap(max_states)
    companions = _companions(pp)
    segments = _segments(pp, gens, _mat_identity(len(trace.states)), companions, cap)
    prefix = _root_words(pp, companions)
    found: Optional[tuple[Word, Word]] = None
    for (c, dst, m), v in _loops(segments, cap).items():
        if (c == dst and not any(r2 >> i & 1 for i, _r1, r2 in m)
                and _mat_mul(m, _rows(m)) == m
                and (found is None or len(prefix[c]) + len(v) < sum(map(len, found)))):
            found = (prefix[c], v)
    if found is None:
        return True, None
    u, v = found
    while u and u[-1] == v[-1]:
        u, v = u[:-1], (u[-1],) + v[:-1]
    return False, Lasso(u, v)


def check_gtc(pp: PreProof, *, max_states: int = MAX_STATES
              ) -> tuple[bool, Optional[Lasso]]:
    """Decide whether every infinite path carries a good trace.

    Returns ``(True, None)`` when it does, else ``(False, lasso)`` with an
    ultimately periodic counterexample path (no left mu-trace / right
    nu-trace on any tail).  Raises :class:`GtcUnknown` when the state cap
    was exceeded — never a wrong boolean — and :class:`GtcError` when an
    open leaf has no back edge or a back edge targets a missing node.
    """
    # the path automaton decides nothing; bench/worker.py times these four
    # calls as stages, looked up on this module by name and in this order
    build_path_automaton(pp)
    return contains(pp, trim(build_gtc_automaton(pp)), max_states=max_states)


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


def check_cyclic_proof(pp: PreProof, *, max_states: int = MAX_STATES) -> CheckResult:
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
