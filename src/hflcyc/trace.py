"""Fixed-point annotation transport and a brute-force lasso-trace classifier.

Every fixed-point operator of a formula carries a finite sequence of natural
numbers.  When a principal operator is unfolded, the copies substituted for
its bound variable extend the consumed operator's sequence by a fresh number;
all other rules copy sequences through the relevant-occurrence
correspondence.  A trace along an infinite path is classified by whether some
sequence chain on a mu (resp. nu) operator grows forever.

The classifier works on lassos (ultimately periodic paths), of the one
:class:`~hflcyc.buchi.Lasso` type that the decision procedure returns and
that this module re-exports.  It uses none of the automata algorithms, so
that it can serve as a small-instance oracle for the automata-based decision
procedure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence, Union

from .buchi import Lasso
from .kernel import (
    LEFT,
    RIGHT,
    DerivTree,
    Inference,
    Mono,
    OccPos,
    OccurrenceRef,
    PreProof,
    Rule,
    Subst,
    relevant_occurrences,
    successors,
)
from .syntax import (
    Expr,
    FromCopy,
    FromSkeleton,
    HeadStep,
    HflError,
    Mu,
    Nu,
    Path,
    Sequent,
    alpha_eq,
    sequent_to_str,
    sigma_paths,
    subexpr_at,
    substitute_traced,
    to_str,
)

__all__ = [
    "Annotation",
    "AnnotatedFormula",
    "ExplosionGuard",
    "FiniteOrNotATrace",
    "Lasso",
    "MuTrace",
    "NuTrace",
    "OccurrenceStep",
    "TraceClass",
    "TraceError",
    "annotate_root",
    "annotate_step",
    "classify_lasso_trace",
    "enumerate_closed_walks",
    "enumerate_simple_lassos",
    "fresh_counter",
    "gtc_bruteforce",
    "lasso_good",
    "node_steps",
    "occurrence_steps",
    "render_annotated",
    "replay_annotations",
]


class TraceError(HflError):
    """A rule/occurrence mismatch or malformed lasso."""


class ExplosionGuard(HflError):
    """Raised when the brute-force enumeration exceeds its configured cap."""


Annotation = tuple[int, ...]

# the sigma_kind values of syntax.HeadStep
MU = "mu"
NU = "nu"


def fresh_counter(start: int = 0) -> Iterator[int]:
    """The fresh-number supply: a monotone counter (reproducible runs)."""
    return itertools.count(start)


# ---------------------------------------------------------------------------
# Annotated formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class AnnotatedFormula:
    """A formula whose fixed-point operators each carry a number sequence.

    notes has exactly the operator positions of formula as keys; stripping the
    annotations (taking .formula) recovers the plain formula.  positions are
    the formula's operator positions when the caller has them (a pre-proof
    keeps them for each sequent); they are computed when not given.
    """

    formula: Expr
    notes: Mapping[Path, Annotation]
    positions: Optional[tuple[Path, ...]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        want = set(sigma_paths(self.formula) if self.positions is None else self.positions)
        got = set(self.notes)
        if want != got:
            raise TraceError(
                f"annotation keys {sorted(got)} do not match operator "
                f"positions {sorted(want)} of {to_str(self.formula)!r}")


def annotate_root(formula: Expr, positions: Optional[tuple[Path, ...]] = None
                  ) -> AnnotatedFormula:
    """The starting annotation: every operator carries the empty sequence.

    ``positions`` are the formula's operator positions, when the caller has
    them."""
    if positions is None:
        positions = sigma_paths(formula)
    return AnnotatedFormula(formula, dict.fromkeys(positions, ()), positions)


# ---------------------------------------------------------------------------
# Per-rule occurrence steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OccurrenceStep:
    """How one premise occurrence descends from a conclusion occurrence.

    transport maps every operator position of the premise formula to the
    conclusion operator position it descends from.  When the step unfolds a
    fixed point, consumed_head is the conclusion position of the unfolded
    operator, copy_roots are the premise positions of the substituted copies
    (each transported to consumed_head), and sigma_kind tells whether a mu or
    a nu was unfolded.
    """

    premise_pos: OccPos
    conclusion_pos: OccPos
    transport: Mapping[Path, Path]
    consumed_head: Optional[Path] = None
    copy_roots: tuple[Path, ...] = ()
    sigma_kind: Optional[str] = None

    def inverse(self) -> dict[Path, tuple[Path, ...]]:
        """Conclusion operator position -> premise positions descending from it."""
        out: dict[Path, list[Path]] = {}
        for q, p in self.transport.items():
            out.setdefault(p, []).append(q)
        return {p: tuple(sorted(qs)) for p, qs in out.items()}


def _formula_at(seq: Sequent, pos: OccPos) -> Expr:
    side, index = pos
    row = seq.left if side == LEFT else seq.right
    if not 0 <= index < len(row):
        raise TraceError(f"no formula at {pos} in {sequent_to_str(seq)}")
    return row[index]


def _identity_transport(ppaths: tuple[Path, ...], cpaths: tuple[Path, ...]) -> dict[Path, Path]:
    if set(ppaths) != set(cpaths):
        raise TraceError(
            "operator positions changed across a copying step: "
            f"{ppaths} vs {cpaths}")
    return {q: q for q in ppaths}


def occurrence_steps(conclusion: Sequent, rule: Rule, branch: int, *,
                     inference: Optional[Inference] = None,
                     sigmas: Optional[Mapping[OccPos, tuple[Path, ...]]] = None
                     ) -> tuple[OccurrenceStep, ...]:
    """All occurrence steps from a conclusion into one premise of a rule.

    There is exactly one step per premise occurrence that has a conclusion
    ancestor (fresh premise formulas - cut formulas, (Nat)'s instance - have
    none).  Raises on schema violations or an out-of-range branch.

    ``inference`` is ``rule.inference(conclusion)`` and ``sigmas`` maps each
    conclusion position to the operator positions of its formula, when the
    caller has them; the steps are then built without a second head step or
    operator walk of the conclusion.
    """
    if inference is None:
        inference = rule.inference(conclusion)
    premises = inference.premises
    occ_map = relevant_occurrences(conclusion, rule, branch, premises)
    premise = premises[branch]
    n_left = len(conclusion.left)

    steps: list[OccurrenceStep] = []
    order = [(LEFT, i) for i in range(len(premise.left))]
    order += [(RIGHT, j) for j in range(len(premise.right))]
    for ppos in order:
        cpos = occ_map.get(ppos)
        if cpos is None:
            continue
        pf = _formula_at(premise, ppos)
        cf = _formula_at(conclusion, cpos)
        ppaths = sigma_paths(pf)
        cpaths = sigma_paths(cf) if sigmas is None else sigmas[cpos]
        step = _build_step(rule, inference.head_step, branch, n_left, ppos, cpos,
                           pf, ppaths, cpaths)
        _check_step(step, pf, cf, ppaths, cpaths)
        steps.append(step)
    return tuple(steps)


def _build_step(rule: Rule, hs: Optional[HeadStep], branch: int, n_left: int,
                ppos: OccPos, cpos: OccPos, pf: Expr, ppaths: tuple[Path, ...],
                cpaths: tuple[Path, ...]) -> OccurrenceStep:
    side, index = ppos
    tag = rule.tag

    if tag == "Subst":
        assert isinstance(rule, Subst)
        _, origins = substitute_traced(pf, dict(rule.mapping))
        transport = {o.src: rp for rp, o in origins.items()
                     if isinstance(o, FromSkeleton)}
        return OccurrenceStep(ppos, cpos, transport)

    if tag == "Mono":
        assert isinstance(rule, Mono)
        if ppos == (LEFT, n_left - 1) or ppos == (RIGHT, 0):
            image = rule.lower if side == LEFT else rule.upper
            _, origins = substitute_traced(rule.formula, {rule.var: image})
            spine = (0,) * len(rule.names)
            transport = {spine + o.src: rp for rp, o in origins.items()
                         if isinstance(o, FromCopy) and o.copy == branch}
            return OccurrenceStep(ppos, cpos, transport)
        return OccurrenceStep(ppos, cpos, _identity_transport(ppaths, cpaths))

    if tag == "OrL" and ppos == (LEFT, n_left - 1):
        prefix = (branch,)
        return OccurrenceStep(ppos, cpos, {q: prefix + q for q in ppaths})
    if tag == "OrR" and side == RIGHT and index in (0, 1):
        prefix = (index,)
        return OccurrenceStep(ppos, cpos, {q: prefix + q for q in ppaths})
    if tag == "AndL" and side == LEFT and index in (n_left - 1, n_left):
        prefix = (0,) if index == n_left - 1 else (1,)
        return OccurrenceStep(ppos, cpos, {q: prefix + q for q in ppaths})
    if tag == "AndR" and ppos == (RIGHT, 0):
        prefix = (branch,)
        return OccurrenceStep(ppos, cpos, {q: prefix + q for q in ppaths})

    if hs is not None:  # a lambda or fixed-point rule (kernel.HeadStepRule)
        principal = (LEFT, n_left - 1) if rule.side == LEFT else (RIGHT, 0)
        if ppos == principal:
            return OccurrenceStep(ppos, cpos, hs.sources, hs.head_path,
                                  hs.copy_roots, hs.sigma_kind)

    # Structural rules, EqL and P2 (only terms change) and the remaining
    # context positions copy annotations.
    return OccurrenceStep(ppos, cpos, _identity_transport(ppaths, cpaths))


def _check_step(step: OccurrenceStep, pf: Expr, cf: Expr,
                ppaths: tuple[Path, ...], cpaths: tuple[Path, ...]) -> None:
    if set(step.transport) != set(ppaths):
        raise TraceError(
            f"transport of {step} is not total on the premise formula "
            f"{to_str(pf)!r}")
    cset = set(cpaths)
    for q, p in step.transport.items():
        if p not in cset:
            raise TraceError(
                f"transport image {p} is not an operator position of "
                f"{to_str(cf)!r}")


StepsByOcc = Mapping[OccPos, tuple[tuple[OccurrenceStep, dict[Path, tuple[Path, ...]]], ...]]
"""A node's steps into one premise, each with its inverse, by conclusion
occurrence."""


def node_steps(pp: PreProof, node: DerivTree, branch: int) -> StepsByOcc:
    """The occurrence steps from a closed node of ``pp`` into one premise.

    They are computed once per (inference, branch) pair and kept in the
    pre-proof's ``step_table``; nodes with equal sequents and equal rules
    share one inference, as a pre-proof holds one object per sequent value
    and per rule value.  Raises like :func:`occurrence_steps`; a failure is
    not kept.
    """
    inference = pp.inference(node.id)
    key = (id(inference), branch)
    got = pp.step_table.get(key)
    if got is None:
        by_occ: dict[OccPos, list] = {}
        for step in occurrence_steps(node.seq, node.rule, branch, inference=inference,
                                     sigmas=pp.positions(node.id)):
            by_occ.setdefault(step.conclusion_pos, []).append((step, step.inverse()))
        got = pp.step_table[key] = {occ: tuple(v) for occ, v in by_occ.items()}
    return got


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
                premise_formula: Expr,
                positions: Optional[tuple[Path, ...]] = None) -> AnnotatedFormula:
    """The annotated premise occurrence that ``step`` makes of ``tau``;
    ``positions`` are the premise formula's operator positions, if known."""
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
    return AnnotatedFormula(premise_formula, new_notes, positions)


# ---------------------------------------------------------------------------
# Lassos
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
    cur = pp.node(spine[i])
    nxt = spine[lasso.successor_index(i)]
    if cur.is_open():
        return None
    branch = [c.id for c in cur.children].index(nxt)
    return node_steps(pp, cur, branch)


# ---------------------------------------------------------------------------
# Trace classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuTrace:
    p_prefix: Annotation


@dataclass(frozen=True)
class NuTrace:
    p_prefix: Annotation


@dataclass(frozen=True)
class FiniteOrNotATrace:
    pass


TraceClass = Union[MuTrace, NuTrace, FiniteOrNotATrace]


@dataclass(frozen=True)
class _AState:
    pos: int
    occ: OccPos
    sigma: Path


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
        return _formula_at(self.pp.node(self.spine[i]).seq, occ)

    def successors_of(self, state: _AState) -> list[tuple[_AState, bool, Optional[str]]]:
        """(next state, grows, kind-of-grow) triples."""
        i, j = state.pos, self.lasso.successor_index(state.pos)
        edge = self._edges[i]
        if edge is None:  # back edge: same occurrence, same position
            return [(_AState(j, state.occ, state.sigma), False, None)]
        out: list[tuple[_AState, bool, Optional[str]]] = []
        for st, inv in edge.get(state.occ, ()):
            grows = state.sigma == st.consumed_head
            for q in inv.get(state.sigma, ()):
                out.append((_AState(j, st.premise_pos, q), grows,
                            st.sigma_kind if grows else None))
        return out

    def initial_states(self, positions: Sequence[int], kind: str,
                       side: str) -> list[_AState]:
        inits: list[_AState] = []
        want = Mu if kind == MU else Nu
        for i in positions:
            seq = self.pp.node(self.spine[i]).seq
            for idx, f in enumerate(seq.left if side == LEFT else seq.right):
                for p in sigma_paths(f):
                    if isinstance(subexpr_at(f, p), want):
                        inits.append(_AState(i, (side, idx), p))
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
        first = states[0]
        af = annotate_root(self.node_formula(first.pos, first.occ))
        for a, b in zip(states, states[1:]):
            edge = self._edges[a.pos]
            formula = self.node_formula(b.pos, b.occ)
            if edge is None:
                af = AnnotatedFormula(formula, dict(af.notes))
                continue
            step = next(st for st, _ in edge[a.occ] if st.premise_pos == b.occ)
            af = _apply_step(af, step, fresh, formula)
        return af.notes[states[-1].sigma]


def classify_lasso_trace(pp: PreProof, lasso: Lasso, start: OccurrenceRef) -> TraceClass:
    """Classify the best trace that starts at `start` and follows the lasso.

    Returns MuTrace/NuTrace with a finite prefix of the growing sequence as a
    witness when some annotation chain grows forever (such a trace passes
    through principal positions infinitely often by construction), else
    FiniteOrNotATrace.  Occurrences on the left prefer the mu answer and
    occurrences on the right the nu answer, matching what the trace condition
    looks for on each side.
    """
    graph = _LassoGraph(pp, lasso)
    spine = graph.spine
    if start.node not in spine:
        raise TraceError(f"start node {start.node!r} is not on the lasso")
    pos = spine.index(start.node)
    formula = graph.node_formula(pos, (start.side, start.index))
    order = (MU, NU) if start.side == LEFT else (NU, MU)
    for kind in order:
        want = Mu if kind == MU else Nu
        inits = [_AState(pos, (start.side, start.index), p)
                 for p in sigma_paths(formula)
                 if isinstance(subexpr_at(formula, p), want)]
        witness = graph.growing_witness(inits, kind)
        if witness is not None:
            p_prefix = graph.replay(witness)
            return MuTrace(p_prefix) if kind == MU else NuTrace(p_prefix)
    return FiniteOrNotATrace()


def lasso_good(pp: PreProof, lasso: Lasso) -> bool:
    """Whether some tail of the lasso path carries a left mu-trace or a right
    nu-trace (the per-path condition of the soundness gate)."""
    graph = _LassoGraph(pp, lasso)
    cycle_positions = range(len(lasso.prefix), len(graph.spine))
    for kind, side in ((MU, LEFT), (NU, RIGHT)):
        inits = graph.initial_states(cycle_positions, kind, side)
        if graph.growing_witness(inits, kind) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# Lasso enumeration and the brute-force decision
# ---------------------------------------------------------------------------


def _tree_paths(pp: PreProof) -> dict[str, tuple[str, ...]]:
    """Node id -> the (unique) tree path from the root down to it."""
    out: dict[str, tuple[str, ...]] = {}
    stack = [(pp.tree, ())]
    while stack:
        node, above = stack.pop()
        out[node.id] = path = above + (node.id,)
        stack.extend((c, path) for c in reversed(node.children))
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
                           cap: int = 50_000) -> list[tuple[str, ...]]:
    """All closed walks with at most max_back_edges back-edge traversals,
    up to rotation, as node cycles.

    Since tree edges only descend, every closed walk is a cyclic sequence of
    back edges joined by the unique tree paths between them; composite cycles
    (several back edges) are needed because a path may alternate between
    loops.  Walks that merely repeat a shorter walk are dropped.  Raises
    TraceError when a back edge names a missing node.
    """
    paths = _tree_paths(pp)
    backs = sorted(pp.back_edges.items())
    for leaf, target in backs:
        if leaf not in paths or target not in paths:
            raise TraceError(f"back edge {leaf!r} -> {target!r} names a missing node")
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
    node reached.  Raises :class:`TraceError` when two consecutive nodes are
    not an edge of the proof graph."""
    if nodes[0] != start.node:
        raise TraceError("the path must begin at the start occurrence's node")
    fresh = fresh_counter()
    occ: OccPos = (start.side, start.index)
    cur = pp.node(nodes[0])
    af = annotate_root(_formula_at(cur.seq, occ), pp.positions(cur.id)[occ])
    out = [(cur.id, occ, af)]
    for nxt_id in itertools.islice(nodes, 1, None):
        if cur.is_open():  # back edge: copy everything
            if pp.back_edges.get(cur.id) != nxt_id:
                raise TraceError(f"{cur.id} -> {nxt_id} is not an edge")
            cur = pp.node(nxt_id)
            af = AnnotatedFormula(_formula_at(cur.seq, occ), dict(af.notes),
                                  pp.positions(cur.id)[occ])
            out.append((nxt_id, occ, af))
            continue
        for branch, child in enumerate(cur.children):
            if child.id == nxt_id:
                break
        else:
            raise TraceError(f"{cur.id} -> {nxt_id} is not an edge")
        steps = node_steps(pp, cur, branch).get(occ)
        if not steps:
            break
        step = min((s for s, _ in steps), key=lambda s: s.premise_pos)
        occ = step.premise_pos
        cur = child
        af = _apply_step(af, step, fresh, _formula_at(cur.seq, occ),
                         pp.positions(cur.id)[occ])
        out.append((nxt_id, occ, af))
    return out
