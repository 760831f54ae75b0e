"""Occurrence steps, the lasso type and the thread walk of a check.

Every fixed-point operator of a formula carries a finite sequence of natural
numbers.  When a principal operator is unfolded, the copies substituted for
its bound variable extend the consumed operator's sequence by a fresh number;
all other rules copy sequences to the premise formulas that descend from
each operator (the links of :meth:`hflcyc.kernel.Rule.premise_rows`).

This module holds what a check runs of that: the occurrence steps of each
inference (:func:`occurrence_steps`, kept per pre-proof by
:func:`node_steps`), which the trace automaton of :mod:`hflcyc.gtc` follows;
the :class:`Lasso` that the decision returns; and :func:`thread_rows`, the
walk that moves one occurrence's annotations along a path for the
counterexample report.  The oracles that test these, annotated formulas one
inference at a time and a brute-force decision over lassos, are in
:mod:`hflcyc.oracles`, which no check imports.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional, Sequence

from .kernel import (
    LEFT,
    RIGHT,
    Inference,
    KernelError,
    OccPos,
    OccurrenceRef,
    PreProof,
    Rule,
)
from .syntax import (
    Expr,
    HeadStep,
    HflError,
    Path,
    Record,
    Sequent,
    sequent_to_str,
    sigma_paths,
    to_str,
)

__all__ = [
    "Lasso",
    "OccurrenceStep",
    "TraceError",
    "fresh_counter",
    "node_steps",
    "occurrence_steps",
    "thread_rows",
]


class TraceError(HflError):
    """A rule/occurrence mismatch or malformed lasso."""


MAX_STATES = 50_000
"""The default cap on stored work: the segments, partial segments and loop
elements that :func:`hflcyc.gtc.contains` stores, and the candidate
back-edge sequences of :func:`hflcyc.oracles.enumerate_closed_walks`."""

# the sigma_kind values of syntax.HeadStep
MU = "mu"
NU = "nu"


def fresh_counter(start: int = 0) -> Iterator[int]:
    """The fresh-number supply: a monotone counter (reproducible runs)."""
    return itertools.count(start)


# ---------------------------------------------------------------------------
# Per-rule occurrence steps
# ---------------------------------------------------------------------------


def _require_positions(formula: Expr, keys) -> None:
    """Raise unless ``keys`` are exactly the operator positions of formula."""
    want = set(sigma_paths(formula))
    got = set(keys)
    if want != got:
        raise TraceError(
            f"annotation keys {sorted(got)} do not match operator "
            f"positions {sorted(want)} of {to_str(formula)!r}")


class OccurrenceStep(Record):
    """How one premise occurrence descends from a conclusion occurrence.

    transport maps every operator position of the premise formula to the
    conclusion operator position it descends from.  When the step unfolds a
    fixed point, consumed_head is the conclusion position of the unfolded
    operator, copy_roots are the premise positions of the substituted copies
    (each transported to consumed_head), and sigma_kind tells whether a mu or
    a nu was unfolded.
    """

    __slots__ = _compared = ("premise_pos", "conclusion_pos", "transport", "consumed_head",
                             "copy_roots", "sigma_kind")
    premise_pos: OccPos
    conclusion_pos: OccPos
    transport: Mapping[Path, Path]
    consumed_head: Optional[Path]
    copy_roots: tuple[Path, ...]
    sigma_kind: Optional[str]

    def __init__(self, premise_pos: OccPos, conclusion_pos: OccPos, transport: Mapping[Path, Path],
                 consumed_head: Optional[Path] = None, copy_roots: tuple[Path, ...] = (),
                 sigma_kind: Optional[str] = None) -> None:
        object.__setattr__(self, "premise_pos", premise_pos)
        object.__setattr__(self, "conclusion_pos", conclusion_pos)
        object.__setattr__(self, "transport", transport)
        object.__setattr__(self, "consumed_head", consumed_head)
        object.__setattr__(self, "copy_roots", copy_roots)
        object.__setattr__(self, "sigma_kind", sigma_kind)

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


def _start_position(pp: PreProof, start: OccurrenceRef) -> OccPos:
    """The position of a start occurrence, checked against its node."""
    if start.side not in (LEFT, RIGHT):
        raise TraceError(f"side {start.side!r} of {start} is neither {LEFT!r} nor {RIGHT!r}")
    pos = (start.side, start.index)
    _formula_at(pp.row(start.node)[0], pos)
    return pos


def occurrence_steps(conclusion: Sequent, rule: Rule, branch: int, *,
                     inference: Optional[Inference] = None) -> tuple[OccurrenceStep, ...]:
    """All occurrence steps from a conclusion into one premise of a rule.

    There is exactly one step per premise occurrence that has a conclusion
    ancestor (fresh premise formulas - cut formulas, (Nat)'s instance - have
    none), in premise order, built from ``inference.sources[branch]`` (see
    :meth:`~hflcyc.kernel.Rule.premise_rows`).  A path link ``l`` sends
    each operator position ``q`` of the premise formula to ``l + q``; a
    head step brings its sources, head path, copy roots and kind; an
    explicit map is the transport as it is.  Raises
    :class:`KernelError` on schema violations or an out-of-range branch,
    and :class:`TraceError` when a transport does not fit the formulas or a
    premise formula descends from the other side of the sequent.

    ``inference`` is ``rule.inference(conclusion)``, when the caller has it;
    the steps are then built without rebuilding the premises.  The operator
    positions of both formulas are the ones each formula keeps
    (:func:`~hflcyc.syntax.sigma_paths`).
    """
    if inference is None:
        inference = rule.inference(conclusion)
    if not 0 <= branch < len(inference.premises):
        raise KernelError(f"premise index {branch} out of range for {rule.tag}")
    premise = inference.premises[branch]
    steps: list[OccurrenceStep] = []
    for side, row, sources in zip((LEFT, RIGHT), (premise.left, premise.right),
                                  inference.sources[branch]):
        for index, (pf, source) in enumerate(zip(row, sources)):
            if source is None:
                continue
            ppos = (side, index)
            cpos, link = source
            cf = _formula_at(conclusion, cpos)
            ppaths = sigma_paths(pf)
            cpaths = sigma_paths(cf)
            if isinstance(link, HeadStep):
                step = OccurrenceStep(ppos, cpos, link.sources, link.head_path,
                                      link.copy_roots, link.sigma_kind)
            elif isinstance(link, tuple):
                step = OccurrenceStep(ppos, cpos, _placed(link, ppaths, cpaths))
            else:
                step = OccurrenceStep(ppos, cpos, link)
            _check_step(step, pf, cf, ppaths, cpaths)
            steps.append(step)
    return tuple(steps)


def _placed(link: Path, ppaths: tuple[Path, ...], cpaths: tuple[Path, ...]) -> dict[Path, Path]:
    """The premise formula's operator positions placed under ``link``; they
    must be exactly the conclusion formula's operator positions below it."""
    transport = {q: link + q for q in ppaths}
    if set(transport.values()) != {p for p in cpaths if p[:len(link)] == link}:
        raise TraceError(
            f"operator positions changed across a copying step at {link}: "
            f"{ppaths} vs {cpaths}")
    return transport


def _check_step(step: OccurrenceStep, pf: Expr, cf: Expr,
                ppaths: tuple[Path, ...], cpaths: tuple[Path, ...]) -> None:
    # the trace automaton starts only at left mu and right nu operators,
    # which is sound because a premise formula keeps its conclusion's side
    if step.premise_pos[0] != step.conclusion_pos[0]:
        raise TraceError(
            f"{step} moves a formula from side {step.conclusion_pos[0]!r} "
            f"to side {step.premise_pos[0]!r}")
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


def node_steps(pp: PreProof, node_id: str, branch: int) -> StepsByOcc:
    """The occurrence steps from a closed node of ``pp``, read from its row,
    into one premise.

    They are computed once per (inference, branch) pair and kept in the
    pre-proof's ``step_table``; nodes with equal sequents and equal rules
    share one inference, as a pre-proof holds one object per sequent value
    and per rule value.  Each occurrence's steps are in premise order, which
    is also the order of their premise positions.  Raises
    :class:`KernelError` for a missing node or an open leaf, and like
    :func:`occurrence_steps`; a failure is not kept.
    """
    inference = pp.inference(node_id)
    key = (id(inference), branch)
    got = pp.step_table.get(key)
    if got is None:
        seq, rule, _ = pp.rows[node_id]
        by_occ: dict[OccPos, list] = {}
        for step in occurrence_steps(seq, rule, branch, inference=inference):
            by_occ.setdefault(step.conclusion_pos, []).append((step, step.inverse()))
        got = pp.step_table[key] = {occ: tuple(v) for occ, v in by_occ.items()}
    return got


# ---------------------------------------------------------------------------
# Lassos and the thread walk
# ---------------------------------------------------------------------------


class Lasso(Record):
    """The ultimately periodic word ``prefix · cycle^omega``.

    Over proof-node ids it is a path of a proof: :func:`hflcyc.gtc.contains`
    returns one as the counterexample of :func:`hflcyc.gtc.check_gtc`, and
    the oracles of :mod:`hflcyc.oracles` classify the traces along one.
    """

    __slots__ = _compared = ("prefix", "cycle")
    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def __init__(self, prefix: tuple[str, ...], cycle: tuple[str, ...]) -> None:
        if not isinstance(prefix, tuple) or not isinstance(cycle, tuple):
            raise TraceError("lasso parts must be tuples")
        if not cycle:
            raise TraceError("a lasso needs a nonempty cycle")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    @property
    def spine(self) -> tuple[str, ...]:
        return self.prefix + self.cycle

    def successor_index(self, i: int) -> int:
        """The spine position after ``i``: the end of the cycle wraps to its start."""
        return i + 1 if i + 1 < len(self.prefix) + len(self.cycle) else len(self.prefix)


def _index_map(pp: PreProof, node_id: str, branch: int, occ: OccPos):
    """How the first step of ``occ`` from a closed node into its child on
    premise ``branch`` moves a thread's row, or ``()`` when ``occ`` has no successor
    there: the premise position and formula (whose positions must be the
    transport's keys), each premise position's source index in the row (past
    its end for a copy of the unfolded operator), the unfolded operator's
    index or None, and the transport's keys in their order."""
    steps = node_steps(pp, node_id, branch).get(occ)
    if not steps:
        return ()
    step = steps[0][0]  # the first premise position (node_steps keeps them in order)
    seq, _, kids = pp.rows[node_id]
    formula = _formula_at(pp.rows[kids[branch]][0], step.premise_pos)
    _require_positions(formula, step.transport)
    above = {p: i for i, p in enumerate(sigma_paths(_formula_at(seq, occ)))}
    source = tuple([len(above) if q in step.copy_roots else above[step.transport[q]]
                    for q in sigma_paths(formula)])
    head = None if step.consumed_head is None else above[step.consumed_head]
    return step.premise_pos, formula, source, head, tuple(step.transport)


def thread_rows(pp: PreProof, nodes: Sequence[str], start: OccurrenceRef, maps: dict
                ) -> Iterator[tuple[str, OccPos, Expr, list, tuple[Path, ...]]]:
    """The walk of :func:`hflcyc.oracles.replay_annotations`.  For each node
    reached it yields the id, the occurrence, its formula, the row (a note
    and its label per operator position, in
    :func:`~hflcyc.syntax.sigma_paths` order) and the order of the replay's
    notes.

    Edges are checked as the thread reaches them.  A step moves the row by
    an :func:`_index_map`, kept in ``maps`` by (sequent, rule, branch,
    occurrence, child sequent), so callers that share ``maps`` build each
    once; an unfolding draws its fresh number as
    :func:`hflcyc.oracles.annotate_step` does.
    A back edge keeps the row.
    """
    if not nodes or nodes[0] != start.node:
        raise TraceError("the path must begin at the start occurrence's node")
    occ = _start_position(pp, start)
    fresh = fresh_counter()
    cur = nodes[0]
    rows = pp.rows
    formula = _formula_at(rows[cur][0], occ)
    keys = sigma_paths(formula)
    row = [((), "")] * len(keys)
    yield cur, occ, formula, row, keys
    table = pp.successor_table
    for nxt_id in itertools.islice(nodes, 1, None):
        out = table[cur]
        if out is None or nxt_id not in out:
            raise TraceError(f"{cur} -> {nxt_id} is not an edge")
        seq, rule, _ = rows[cur]
        if rule is None:  # back edge: the row stays
            bud, formula = formula, _formula_at(pp.row(nxt_id)[0], occ)
            if formula is not bud:
                _require_positions(formula, sigma_paths(bud))
        else:
            branch = out.index(nxt_id)
            key = (seq, rule, branch, occ, rows[nxt_id][0])
            index_map = maps.get(key)
            if index_map is None:
                index_map = maps[key] = _index_map(pp, cur, branch, occ)
            if not index_map:
                break
            occ, formula, source, head, keys = index_map
            if head is not None:  # the copies extend the unfolded operator's note
                k = next(fresh)
                note, label = row[head]
                row = [*row, (note + (k,), f"{label[:-1]}.{k}}}" if label else f"{{{k}}}")]
            row = [row[i] for i in source]
        cur = nxt_id
        yield nxt_id, occ, formula, row, keys


# bench/run.py and bench/test_families.py import these three oracles from
# this module.  They are forwarded on first use, so that importing this
# module compiles no oracle; the forward goes once the benchmark imports
# them from hflcyc.oracles.
_FORWARDED = frozenset({"enumerate_simple_lassos", "gtc_bruteforce", "lasso_good"})


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
