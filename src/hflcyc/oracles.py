"""Trace oracles: annotated formulas one inference at a time, a lasso-trace
classifier and a brute-force decision of the trace condition.

Every fixed-point operator of a formula carries a finite sequence of natural
numbers.  When a principal operator is unfolded, the copies substituted for
its bound variable extend the consumed operator's sequence by a fresh number;
all other rules copy sequences to the premise formulas that descend from
each operator (the links of :meth:`hflcyc.kernel.Rule.premise_rows`).  A
trace along an infinite path is classified by whether some sequence chain on
a mu (resp. nu) operator grows forever.

The classifier works on lassos (ultimately periodic paths), of the one
:class:`~hflcyc.trace.Lasso` type, which the decision procedure of
:mod:`hflcyc.gtc` returns.  It uses none of the automata algorithms, so that
it can serve as a small-instance oracle for the automata-based decision
procedure, and :func:`annotate_step` as one for the row walk of
:func:`hflcyc.trace.thread_rows`.  No check imports this module.

What the oracles share with the checker, they cannot check: both read a
node's occurrence steps from :func:`hflcyc.trace.node_steps`, and so from
the links of :meth:`hflcyc.kernel.Rule.premise_rows`.  A wrong trace link
there fools the checker and these oracles alike; only the bounded
semantics of :mod:`hflcyc.semantics` (``tests/test_soundness_lemma.py``),
or an oracle that finds trace links another way, can catch it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional, Sequence, Union

from .kernel import (
    LEFT,
    RIGHT,
    OccPos,
    OccurrenceRef,
    PreProof,
    Rule,
    successors,
)
from .syntax import (
    Expr,
    HflError,
    Mu,
    Nu,
    Path,
    Record,
    Sequent,
    alpha_eq,
    sigma_paths,
    subexpr_at,
    to_str,
)
from .trace import (
    MAX_STATES,
    MU,
    NU,
    Lasso,
    OccurrenceStep,
    StepsByOcc,
    TraceError,
    _formula_at,
    _require_positions,
    _start_position,
    fresh_counter,
    node_steps,
    occurrence_steps,
    thread_rows,
)

__all__ = [
    "Annotation",
    "AnnotatedFormula",
    "ExplosionGuard",
    "FiniteOrNotATrace",
    "MuTrace",
    "NuTrace",
    "TraceClass",
    "annotate_root",
    "annotate_step",
    "classify_lasso_trace",
    "enumerate_closed_walks",
    "enumerate_simple_lassos",
    "gtc_bruteforce",
    "lasso_good",
    "render_annotated",
    "replay_annotations",
]


class ExplosionGuard(HflError):
    """Raised when the brute-force enumeration exceeds its configured cap."""


Annotation = tuple[int, ...]


# ---------------------------------------------------------------------------
# Annotated formulas
# ---------------------------------------------------------------------------


class AnnotatedFormula(Record):
    """A formula whose fixed-point operators each carry a number sequence.

    notes has exactly the operator positions of formula as keys (which the
    formula keeps, :func:`~hflcyc.syntax.sigma_paths`); stripping the
    annotations (taking .formula) recovers the plain formula.
    """

    __slots__ = ("formula", "notes")
    formula: Expr
    notes: Mapping[Path, Annotation]

    def _check(self) -> None:
        _require_positions(self.formula, self.notes)


def annotate_root(formula: Expr) -> AnnotatedFormula:
    """The starting annotation: every operator carries the empty sequence."""
    return AnnotatedFormula(formula, dict.fromkeys(sigma_paths(formula), ()))


# ---------------------------------------------------------------------------
# One annotation step
# ---------------------------------------------------------------------------


def annotate_step(tau: AnnotatedFormula, rule: Rule, branch: int,
                  fresh: Iterator[int], *, conclusion: Sequent, pos: OccPos,
                  target: Optional[OccPos] = None) -> AnnotatedFormula:
    """Push the annotated occurrence tau at `pos` through one rule application.

    Returns the annotated successor occurrence in premise `branch`.  When the
    occurrence has several successors there (contraction splits it in two),
    `target` selects which one.  A fixed-point unfolding of the occurrence
    itself always draws one fresh number, whether or not any copies receive it.
    """
    cf = _formula_at(conclusion, pos)
    if not alpha_eq(tau.formula, cf):
        raise TraceError(
            f"annotated formula does not match the occurrence at {pos}")
    inference = rule.inference(conclusion)
    candidates = [s for s in occurrence_steps(conclusion, rule, branch, inference=inference)
                  if s.conclusion_pos == pos]
    if target is not None:
        candidates = [s for s in candidates if s.premise_pos == target]
    if not candidates:
        raise TraceError(
            f"occurrence {pos} has no successor in premise {branch} of {rule.tag}"
            + (f" at {target}" if target else ""))
    if len(candidates) > 1:
        raise TraceError(
            f"occurrence {pos} has several successors in premise {branch} of "
            f"{rule.tag}; pass target= to choose one of "
            f"{[s.premise_pos for s in candidates]}")
    step = candidates[0]
    premise_formula = _formula_at(inference.premises[branch], step.premise_pos)
    return _apply_step(tau, step, fresh, premise_formula)


def _apply_step(tau: AnnotatedFormula, step: OccurrenceStep, fresh: Iterator[int],
                premise_formula: Expr) -> AnnotatedFormula:
    """The annotated premise occurrence that ``step`` makes of ``tau``."""
    new_notes: dict[Path, Annotation] = {}
    if step.consumed_head is not None:
        k = next(fresh)
        extended = tau.notes[step.consumed_head] + (k,)
        for q in step.transport:
            if q in step.copy_roots:
                new_notes[q] = extended
            else:
                new_notes[q] = tau.notes[step.transport[q]]
    else:
        for q, p in step.transport.items():
            new_notes[q] = tau.notes[p]
    return AnnotatedFormula(premise_formula, new_notes)


# ---------------------------------------------------------------------------
# Lasso edges
# ---------------------------------------------------------------------------


def _check_lasso(pp: PreProof, lasso: Lasso) -> None:
    spine = lasso.spine
    for i in range(len(spine)):
        j = lasso.successor_index(i)
        if spine[j] not in successors(pp, spine[i]):
            raise TraceError(
                f"lasso step {spine[i]} -> {spine[j]} is not an edge")


def _edge_steps(pp: PreProof, lasso: Lasso, i: int) -> Optional[StepsByOcc]:
    """Steps for the i-th lasso edge; None means a back edge (pure copy)."""
    spine = lasso.spine
    if pp.row(spine[i])[1] is None:
        return None
    branch = pp.successor_table[spine[i]].index(spine[lasso.successor_index(i)])
    return node_steps(pp, spine[i], branch)


# ---------------------------------------------------------------------------
# Trace classification
# ---------------------------------------------------------------------------


class MuTrace(Record):
    __slots__ = ("p_prefix",)
    p_prefix: Annotation


class NuTrace(Record):
    __slots__ = ("p_prefix",)
    p_prefix: Annotation


class FiniteOrNotATrace(Record):
    __slots__ = ()


TraceClass = Union[MuTrace, NuTrace, FiniteOrNotATrace]


# a tracked operator: (spine position, occurrence, operator position)
_AState = tuple[int, OccPos, Path]


def _operators_of_kind(formula: Expr, kind: str) -> list[Path]:
    """The positions of formula's mu operators (kind MU) or nu operators (NU)."""
    want = Mu if kind == MU else Nu
    return [p for p in sigma_paths(formula) if isinstance(subexpr_at(formula, p), want)]


class _LassoGraph:
    """The finite abstraction: one tracked operator per state, stepping
    through the unrolled lasso with wrap-around."""

    def __init__(self, pp: PreProof, lasso: Lasso):
        _check_lasso(pp, lasso)
        self.pp = pp
        self.lasso = lasso
        self.spine = lasso.spine
        self._edges = [_edge_steps(pp, lasso, i) for i in range(len(self.spine))]

    def node_formula(self, i: int, occ: OccPos) -> Expr:
        return _formula_at(self.pp.row(self.spine[i])[0], occ)

    def successors_of(self, state: _AState) -> list[tuple[_AState, bool, Optional[str]]]:
        """(next state, grows, kind-of-grow) triples."""
        i, occ, sigma = state
        j = self.lasso.successor_index(i)
        edge = self._edges[i]
        if edge is None:  # back edge: same occurrence, same position
            return [((j, occ, sigma), False, None)]
        out: list[tuple[_AState, bool, Optional[str]]] = []
        for st, inv in edge.get(occ, ()):
            grows = sigma == st.consumed_head
            for q in inv.get(sigma, ()):
                out.append(((j, st.premise_pos, q), grows,
                            st.sigma_kind if grows else None))
        return out

    def initial_states(self, positions: Sequence[int], kind: str,
                       side: str) -> list[_AState]:
        inits: list[_AState] = []
        for i in positions:
            seq = self.pp.row(self.spine[i])[0]
            for idx, f in enumerate(seq.left if side == LEFT else seq.right):
                inits += [(i, (side, idx), p) for p in _operators_of_kind(f, kind)]
        return inits

    def growing_witness(self, inits: Sequence[_AState], kind: str
                        ) -> Optional[list[_AState]]:
        """A state sequence from an initial state around a cycle containing a
        growth step, or None if no run grows forever."""
        parent: dict[_AState, Optional[_AState]] = {}
        grow_edges: list[tuple[_AState, _AState]] = []
        adj: dict[_AState, list[_AState]] = {}
        queue = []
        for s in inits:
            if s not in parent:
                parent[s] = None
                queue.append(s)
        while queue:
            u = queue.pop()
            succs = self.successors_of(u)
            adj[u] = [v for v, _, _ in succs]
            for v, grows, gkind in succs:
                if grows:
                    if gkind != kind:
                        # chains are kind-homogeneous; a mismatch means the
                        # initial operator was of the other kind
                        continue
                    grow_edges.append((u, v))
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        for u, v in grow_edges:
            back = self._path(adj, v, u)
            if back is None:
                continue
            head: list[_AState] = [u]
            w: Optional[_AState] = parent[u]
            while w is not None:
                head.append(w)
                w = parent[w]
            head.reverse()
            return head + back  # ... -> u, then v ... u again
        return None

    def _path(self, adj: Mapping[_AState, list[_AState]], src: _AState,
              dst: _AState) -> Optional[list[_AState]]:
        prev: dict[_AState, Optional[_AState]] = {src: None}
        frontier = [src]
        while frontier:
            nxt: list[_AState] = []
            for u in frontier:
                if u == dst:
                    out = [u]
                    w = prev[u]
                    while w is not None:
                        out.append(w)
                        w = prev[w]
                    out.reverse()
                    return out
                for v in adj.get(u, ()):
                    if v not in prev:
                        prev[v] = u
                        nxt.append(v)
            frontier = nxt
        return None

    def replay(self, states: Sequence[_AState]) -> Annotation:
        """Run the concrete annotations along an abstract witness path and
        return the tracked operator's final sequence."""
        fresh = fresh_counter()
        af = annotate_root(self.node_formula(*states[0][:2]))
        for (i, occ, _), (j, nxt, _) in zip(states, states[1:]):
            edge = self._edges[i]
            formula = self.node_formula(j, nxt)
            if edge is None:
                af = AnnotatedFormula(formula, dict(af.notes))
                continue
            step = next(st for st, _ in edge[occ] if st.premise_pos == nxt)
            af = _apply_step(af, step, fresh, formula)
        return af.notes[states[-1][2]]


def classify_lasso_trace(pp: PreProof, lasso: Lasso, start: OccurrenceRef) -> TraceClass:
    """Classify the best trace that starts at `start` and follows the lasso.

    Returns MuTrace/NuTrace with a finite prefix of the growing sequence as a
    witness when some annotation chain grows forever (such a trace passes
    through principal positions infinitely often by construction), else
    FiniteOrNotATrace.  Occurrences on the left prefer the mu answer and
    occurrences on the right the nu answer, matching what the trace condition
    looks for on each side.  Raises :class:`TraceError` when ``start`` is not
    an occurrence of a node on the lasso.
    """
    graph = _LassoGraph(pp, lasso)
    spine = graph.spine
    if start.node not in spine:
        raise TraceError(f"start node {start.node!r} is not on the lasso")
    occ = _start_position(pp, start)
    pos = spine.index(start.node)
    formula = graph.node_formula(pos, occ)
    order = (MU, NU) if start.side == LEFT else (NU, MU)
    for kind in order:
        inits = [(pos, occ, p) for p in _operators_of_kind(formula, kind)]
        witness = graph.growing_witness(inits, kind)
        if witness is not None:
            p_prefix = graph.replay(witness)
            return MuTrace(p_prefix) if kind == MU else NuTrace(p_prefix)
    return FiniteOrNotATrace()


def lasso_good(pp: PreProof, lasso: Lasso) -> bool:
    """Whether some tail of the lasso path carries a left mu-trace or a right
    nu-trace (the per-path condition of the soundness gate)."""
    graph = _LassoGraph(pp, lasso)
    on_cycle = range(len(lasso.prefix), len(graph.spine))
    for kind, side in ((MU, LEFT), (NU, RIGHT)):
        inits = graph.initial_states(on_cycle, kind, side)
        if graph.growing_witness(inits, kind) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# Lasso enumeration and the brute-force decision
# ---------------------------------------------------------------------------


def _tree_paths(pp: PreProof) -> dict[str, tuple[str, ...]]:
    """Node id -> the (unique) tree path from the root down to it."""
    out = {pp.root: (pp.root,)}
    for node_id, (_, _, kids) in pp.rows.items():  # a parent's path comes first
        path = out[node_id]
        for k in kids:
            out[k] = path + (k,)
    return out


def _primitive(cycle: tuple[str, ...]) -> bool:
    n = len(cycle)
    for d in range(1, n):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return False
    return True


def _min_rotation(cycle: tuple[str, ...]) -> tuple[str, ...]:
    return min(tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle)))


def enumerate_closed_walks(pp: PreProof, max_back_edges: Optional[int] = None,
                           cap: int = MAX_STATES) -> list[tuple[str, ...]]:
    """All closed walks with at most max_back_edges back-edge traversals,
    up to rotation, as node cycles.

    Since tree edges only descend, every closed walk is a cyclic sequence of
    back edges joined by the unique tree paths between them; composite cycles
    (several back edges) are needed because a path may alternate between
    loops.  Walks that merely repeat a shorter walk are dropped.
    """
    paths = _tree_paths(pp)
    backs = sorted(pp.back_edges.items())
    if max_back_edges is None:
        max_back_edges = len(backs) + 1

    def tree_segment(top: str, leaf: str) -> Optional[tuple[str, ...]]:
        """Nodes strictly between entering `top` and jumping off `leaf`
        (inclusive of both), or None if leaf is not under top."""
        p = paths[leaf]
        if top not in p:
            return None
        return p[p.index(top):]

    walks: set[tuple[str, ...]] = set()
    count = 0
    for k in range(1, max_back_edges + 1):
        for combo in itertools.product(range(len(backs)), repeat=k):
            count += 1
            if count > cap:
                raise ExplosionGuard(
                    f"more than {cap} candidate back-edge sequences")
            segments: list[tuple[str, ...]] = []
            ok = True
            for idx in range(k):
                leaf, target = backs[combo[idx]]
                _, prev_target = backs[combo[idx - 1]]
                seg = tree_segment(prev_target, leaf)
                if seg is None:
                    ok = False
                    break
                segments.append(seg)
            if not ok:
                continue
            walk = tuple(x for seg in segments for x in seg)
            if not _primitive(walk):
                continue
            walks.add(_min_rotation(walk))
    return sorted(walks)


def enumerate_simple_lassos(pp: PreProof) -> list[Lasso]:
    """Lassos whose cycle visits no node twice, each with its tree prefix."""
    paths = _tree_paths(pp)
    out = []
    for cycle in enumerate_closed_walks(pp):
        if len(set(cycle)) != len(cycle):
            continue
        prefix = paths[cycle[0]][:-1]
        out.append(Lasso(prefix, cycle))
    return out


def gtc_bruteforce(pp: PreProof) -> bool:
    """Decide the soundness gate by checking every enumerated cycle.

    True iff every closed walk (with at most one back-edge traversal more than
    there are back edges) has a tail with a left mu-trace or right nu-trace.
    Ultimately periodic paths suffice to separate the relevant path
    languages, and whether a lasso is good depends only on its cycle, so
    prefixes are irrelevant.  Small instances only; raises ExplosionGuard
    beyond the cap of ``enumerate_closed_walks``.
    """
    paths = _tree_paths(pp)
    for cycle in enumerate_closed_walks(pp):
        prefix = paths[cycle[0]][:-1]
        if not lasso_good(pp, Lasso(prefix, cycle)):
            return False
    return True


# ---------------------------------------------------------------------------
# Debug rendering and replay
# ---------------------------------------------------------------------------


def render_annotated(af: AnnotatedFormula) -> str:
    """Pretty-print with each operator's sequence in braces (empty = none)."""
    return to_str(af.formula, af.notes)


def replay_annotations(pp: PreProof, nodes: Sequence[str], start: OccurrenceRef
                       ) -> list[tuple[str, OccPos, AnnotatedFormula]]:
    """Follow one occurrence thread along consecutive nodes, annotating as it
    goes; at a branching successor the first one (in sequent order) is taken.
    Stops early if the occurrence has no successor.  Returns one entry per
    node reached, the :func:`thread_rows` row as an annotated formula.
    Raises :class:`TraceError` when ``start`` is not an occurrence of the
    path's first node, or two consecutive nodes are not an edge of the proof
    graph."""
    out = []
    for node_id, occ, formula, row, keys in thread_rows(pp, nodes, start, {}):
        notes = dict(zip(sigma_paths(formula), [note for note, _ in row]))
        out.append((node_id, occ, AnnotatedFormula(formula, {p: notes[p] for p in keys})))
    return out
