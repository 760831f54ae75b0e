"""Generated proof families for the checker benchmark.

Every family builds a pre-proof whose verdict is known by construction.  Only
the root sequent is written by hand: every other sequent is computed with the
kernel's own ``Rule.premises_of``, so a generated proof is locally valid
exactly when each rule applies to the sequent it is given.  Node ids are
``n0, n1, ...`` in pre-order and depend only on the family and size.

The ``rng`` argument picks the names of bound variables, so that different
seeds give alpha-equivalent but textually different inputs.  It never
changes the shape of a proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from hflcyc.kernel import (
    Axiom, Cut, DerivTree, ExR, LamR, MuL, MuR, NuR, OrL, PreProof, Rule,
    WkL, WkR,
)
from hflcyc.proofio import dumps_preproof
from hflcyc.syntax import Sequent, parse_expr, parse_sequent

Kid = Callable[[Sequent], DerivTree]


@dataclass(frozen=True)
class Case:
    """One generated proof and the verdict it must get."""

    family: str
    size: int
    valid: bool
    pp: PreProof

    @property
    def name(self) -> str:
        return f"{self.family}({self.size})"

    @cached_property
    def text(self) -> str:
        return dumps_preproof(self.pp)


class _Derivation:
    """Grows a derivation top-down, one ``premises_of`` call per node."""

    def __init__(self) -> None:
        self._count = 0
        self.back_edges: dict[str, str] = {}

    def _fresh(self) -> str:
        node_id = f"n{self._count}"
        self._count += 1
        return node_id

    def apply(self, rule: Rule, *kids: Kid) -> Kid:
        def build(seq: Sequent) -> DerivTree:
            node_id = self._fresh()
            premises = rule.premises_of(seq)
            if len(premises) != len(kids):
                raise ValueError(f"{rule.tag} has {len(premises)} premises, "
                                 f"the family gave {len(kids)}")
            return DerivTree(node_id, seq, rule,
                             tuple(k(p) for k, p in zip(kids, premises)))
        return build

    def chain(self, rules: list[Rule], end: Kid) -> Kid:
        """Single-premise ``rules`` applied in order, then ``end``."""
        for rule in reversed(rules):
            end = self.apply(rule, end)
        return end

    def back_to(self, target: str) -> Kid:
        def build(seq: Sequent) -> DerivTree:
            node_id = self._fresh()
            self.back_edges[node_id] = target
            return DerivTree(node_id, seq, None)
        return build

    def proof(self, root: str, build: Kid) -> PreProof:
        return PreProof(build(parse_sequent(root)), dict(self.back_edges))


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct identifiers that are never keywords or types."""
    names: list[str] = []
    while len(names) < count:
        name = rng.choice("abcdefghijklmpqrstuvwxyz") + str(rng.randrange(1000))
        if name not in names:
            names.append(name)
    return names


# ---------------------------------------------------------------------------
# valid families
# ---------------------------------------------------------------------------


def rotation(k: int, rng: random.Random) -> Case:
    """``|- nu t. t`` k times: one ``NuR``, then ``ExR`` moves it to the end.

    Valid: the unfolded occurrence comes back to the front after k laps, so
    every occurrence is unfolded once every k laps.
    """
    names = fresh_names(rng, k)
    root = "|- " + ", ".join(f"nu {t}:O. {t}" for t in names)
    b = _Derivation()
    rules: list[Rule] = [NuR()] + [ExR(i) for i in range(k - 1)]
    return Case("rotation", k, True, b.proof(root, b.chain(rules, b.back_to("n0"))))


def branching(k: int, rng: random.Random) -> Case:
    """``mu a. a \\/ ... \\/ a |- nu t. t`` with k disjuncts.

    One ``MuL``, then a chain of ``OrL`` with k back edges to the root.
    Valid: every path unfolds the left mu and follows one of its copies.
    """
    a, t = fresh_names(rng, 2)
    body = " \\/ ".join([a] * k)
    root = f"mu {a}:O. {body} |- nu {t}:O. {t}"
    b = _Derivation()

    def split(n: int) -> Kid:
        # the disjunction is left-nested: OrL peels the last disjunct off
        if n == 1:
            return b.back_to("n0")
        return b.apply(OrL(), split(n - 1), b.back_to("n0"))

    return Case("branching", k, True, b.proof(root, b.apply(MuL(), split(k))))


LOOP = ("|- ({fix} {f}:(O -> O) -> O. \\{g}:O -> O. {g} ({f} {g})) "
        "(mu {x}:O -> O. \\{a}:O. {a})")
"""The root of ``corpus/higher_order_loop.hflp``, with its names as holes."""


def _loop(m: int, rng: random.Random, fix: str) -> PreProof:
    f, g, x, a = fresh_names(rng, 4)
    lap: list[Rule] = [NuR() if fix == "nu" else MuR(), LamR(), MuR(), LamR()]
    b = _Derivation()
    root = LOOP.format(fix=fix, f=f, g=g, x=x, a=a)
    return b.proof(root, b.chain(lap * m, b.back_to("n0")))


def long_cycle(m: int, rng: random.Random) -> Case:
    """The corpus loop unrolled ``m`` laps: 4m + 1 nodes, one thread.  Valid."""
    return Case("long_cycle", m, True, _loop(m, rng, "nu"))


# ---------------------------------------------------------------------------
# invalid families
# ---------------------------------------------------------------------------


def long_cycle_mu(m: int, rng: random.Random) -> Case:
    """The unrolled corpus loop with ``nu f`` read as ``mu f``.

    It validates, but a right mu is never a good trace, so it is rejected and
    its trace automaton trims to empty.
    """
    return Case("long_cycle_mu", m, False, _loop(m, rng, "mu"))


def figure_eight(k: int, rng: random.Random) -> Case:
    """k loops from ``|- nu t. t`` repeated k times; loop i unfolds occurrence i.

    A spine of ``Cut``s at the root branches into the loops.  Loop i unfolds
    occurrence i, weakens every other occurrence away and cuts in fresh
    copies in their places.  Each loop on its own is good, but a trace
    survives at most one change of loop, so a path that weaves two loops has
    no infinite trace.  Invalid for k >= 2.
    """
    names = fresh_names(rng, k)
    nu = f"nu {names[0]}:O. {names[0]}"
    root = "|- " + ", ".join(f"nu {t}:O. {t}" for t in names)
    b = _Derivation()
    cut = Cut(parse_expr(nu))

    def axiom_side(extra: int) -> Kid:
        # nu |- c_extra, ..., c_1, A  closed by weakening down to nu |- A
        return b.chain([WkR()] * extra, b.apply(Axiom()))

    def loop(i: int) -> Kid:
        to_front = [ExR(j) for j in reversed(range(i))]
        to_end = [ExR(j) for j in range(k - 1)]
        rebuilt: Kid = b.chain([ExR(j) for j in reversed(range(i, k - 1))],
                               b.back_to("n0"))
        for extra in reversed(range(k - 1)):
            rebuilt = b.apply(cut, rebuilt, axiom_side(extra))
        return b.chain(to_front + [NuR()] + to_end + [WkR()] * (k - 1), rebuilt)

    def spine(i: int) -> Kid:
        if i == k - 1:
            return loop(i)
        return b.apply(cut, b.apply(WkR(), loop(i)), b.apply(WkL(), spine(i + 1)))

    return Case("figure_eight", k, k < 2, b.proof(root, spine(0)))


def mu_loop(n: int, rng: random.Random) -> Case:
    """``|- mu t. t`` unfolded n times per lap: a right mu loop.  Invalid."""
    (t,) = fresh_names(rng, 1)
    b = _Derivation()
    return Case("mu_loop", n, False,
                b.proof(f"|- mu {t}:O. {t}", b.chain([MuR()] * n, b.back_to("n0"))))


def sigma_free(n: int, rng: random.Random) -> Case:
    """A cycle of 2n exchanges that never unfolds a fixed point.  Invalid.

    It has no bound variables, so ``rng`` is unused.
    """
    b = _Derivation()
    return Case("sigma_free", n, False,
                b.proof("|- 0 = 0, S 0 = S 0",
                        b.chain([ExR(0), ExR(0)] * n, b.back_to("n0"))))


FAMILIES = {f.__name__: f for f in (rotation, branching, long_cycle, long_cycle_mu,
                                    figure_eight, mu_loop, sigma_free)}
"""Every family by name; each is called as ``family(size, rng)``."""
