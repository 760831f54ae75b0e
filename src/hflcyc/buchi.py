"""Nondeterministic Büchi automata with transition-based acceptance.

A run is accepting when it takes accepting *transitions* infinitely often
(rather than visiting accepting states).  The module provides lasso-word
membership and trimming.  :class:`Lasso` is the one type of an ultimately
periodic word: what membership takes, and the counterexample path that
:mod:`hflcyc.gtc` reports.

States and alphabet symbols are opaque hashable values.  The trace automaton
of :mod:`hflcyc.gtc` numbers its states as ints in discovery order and keeps
a table that decodes each int back to the ``(node, side, index, mark)`` key
it was built from, so trimming and the cached lookup tables here hash and
sort only small ints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .syntax import HflError

State = Hashable
Symbol = Hashable
Transition = tuple[State, Symbol, State]


class BuchiError(HflError):
    """Malformed automaton or bad lasso."""


# ---------------------------------------------------------------------------
# automata and lasso words
# ---------------------------------------------------------------------------


def _key(x: object) -> tuple[str, str]:
    return (type(x).__name__, repr(x))


@dataclass(frozen=True)
class Lasso:
    """The ultimately periodic word ``prefix · cycle^omega``.

    Over proof-node ids it is a path of a proof: :func:`hflcyc.gtc.contains`
    returns one as the counterexample of :func:`hflcyc.gtc.check_gtc`, and
    the oracles of :mod:`hflcyc.trace` classify the traces along one.
    """

    prefix: tuple[Symbol, ...]
    cycle: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.prefix, tuple) or not isinstance(self.cycle, tuple):
            raise BuchiError("lasso parts must be tuples")
        if not self.cycle:
            raise BuchiError("a lasso needs a nonempty cycle")

    @property
    def spine(self) -> tuple[Symbol, ...]:
        return self.prefix + self.cycle

    def successor_index(self, i: int) -> int:
        """The spine position after ``i``: the end of the cycle wraps to its start."""
        return i + 1 if i + 1 < len(self.prefix) + len(self.cycle) else len(self.prefix)


@dataclass(frozen=True)
class BuchiAutomaton:
    states: frozenset[State]
    alphabet: frozenset[Symbol]
    transitions: frozenset[Transition]
    initial: frozenset[State]
    accepting: frozenset[Transition]

    def __post_init__(self) -> None:
        if not self.initial <= self.states:
            raise BuchiError("initial states must be states")
        if not self.accepting <= self.transitions:
            raise BuchiError("accepting transitions must be transitions")
        for src, sym, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise BuchiError("transition endpoint is not a state")
            if sym not in self.alphabet:
                raise BuchiError("transition symbol is not in the alphabet")

    # -- derived lookup tables (cached; they do not take part in equality) --

    @cached_property
    def _sorted_states(self) -> tuple[State, ...]:
        return tuple(sorted(self.states, key=_key))

    @cached_property
    def _by_source(self) -> Mapping[State, tuple[tuple[Symbol, State, bool], ...]]:
        table: dict[State, list[tuple[Symbol, State, bool]]] = {q: [] for q in self.states}
        for t in sorted(self.transitions, key=_key):
            src, sym, dst = t
            table[src].append((sym, dst, t in self.accepting))
        return {q: tuple(v) for q, v in table.items()}

    @cached_property
    def _by_source_symbol(self) -> Mapping[tuple[State, Symbol], tuple[tuple[State, bool], ...]]:
        table: dict[tuple[State, Symbol], list[tuple[State, bool]]] = {}
        for src, entries in self._by_source.items():
            for sym, dst, acc in entries:
                table.setdefault((src, sym), []).append((dst, acc))
        return {k: tuple(v) for k, v in table.items()}

    def moves(self, state: State, symbol: Symbol) -> tuple[tuple[State, bool], ...]:
        """(destination, accepting?) pairs for one state and symbol."""
        return self._by_source_symbol.get((state, symbol), ())


def make_automaton(
    states: Iterable[State],
    alphabet: Iterable[Symbol],
    transitions: Iterable[Transition],
    initial: Iterable[State],
    accepting: Iterable[Transition],
) -> BuchiAutomaton:
    return BuchiAutomaton(
        frozenset(states),
        frozenset(alphabet),
        frozenset(tuple(t) for t in transitions),
        frozenset(initial),
        frozenset(tuple(t) for t in accepting),
    )


# ---------------------------------------------------------------------------
# strongly connected components (iterative Tarjan)
# ---------------------------------------------------------------------------


def _scc_ids(nodes: list, succs: Mapping) -> dict:
    """Map each node to its SCC id.  ``succs[n]`` is an iterable of nodes."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comp: dict = {}
    counter = 0
    next_index = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succs.get(root, ())))]
        index[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next_index
                    next_index += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succs.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp[member] = counter
                    if member == node:
                        break
                counter += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


# ---------------------------------------------------------------------------
# membership and emptiness
# ---------------------------------------------------------------------------


def accepts_lasso(a: BuchiAutomaton, w: Lasso) -> bool:
    """Does the automaton accept ``prefix · cycle^omega``?

    Decided on the finite product of the automaton with the lasso positions,
    looking for a reachable cycle that contains an accepting transition.
    """
    spine = w.spine
    for sym in spine:
        if sym not in a.alphabet:
            raise BuchiError(f"lasso symbol {sym!r} is not in the alphabet")

    # reachable product nodes
    start = [(q, 0) for q in a._sorted_states if q in a.initial]
    seen = set(start)
    queue = deque(start)
    edges: dict[tuple[State, int], list[tuple[State, int]]] = {}
    accepting_edges: list[tuple[tuple[State, int], tuple[State, int]]] = []
    while queue:
        q, i = queue.popleft()
        sym = spine[i]
        nxt_i = w.successor_index(i)
        outs = edges.setdefault((q, i), [])
        for dst, acc in a.moves(q, sym):
            node = (dst, nxt_i)
            outs.append(node)
            if acc:
                accepting_edges.append(((q, i), node))
            if node not in seen:
                seen.add(node)
                queue.append(node)
    if not accepting_edges:
        return False
    comp = _scc_ids(sorted(seen, key=_key), edges)
    return any(comp[x] == comp[y] for x, y in accepting_edges)


# ---------------------------------------------------------------------------
# trimming (language-preserving removal of useless states)
# ---------------------------------------------------------------------------


def trim(a: BuchiAutomaton) -> BuchiAutomaton:
    """Keep only states that lie on some accepting run.

    A state is useful when it is reachable from an initial state and can reach
    an accepting transition whose endpoints share a strongly connected
    component.  Removing the rest preserves the language.
    """
    out: dict[State, set[State]] = {}
    for src, _sym, dst in a.transitions:
        out.setdefault(src, set()).add(dst)
    reach = set(a.initial)
    queue = deque(reach)
    while queue:
        for dst in out.get(queue.popleft(), ()):
            if dst not in reach:
                reach.add(dst)
                queue.append(dst)
    succs = {q: [dst for dst in out.get(q, ()) if dst in reach] for q in reach}
    comp = _scc_ids(list(reach), succs)
    core = {
        src
        for (src, _sym, dst) in a.accepting
        if src in reach and dst in reach and comp[src] == comp[dst]
    }
    if not core:
        return BuchiAutomaton(
            frozenset(), a.alphabet, frozenset(), frozenset(), frozenset())
    # backward closure to the accepting cores
    preds: dict[State, list[State]] = {q: [] for q in reach}
    for q in reach:
        for dst in succs[q]:
            preds[dst].append(q)
    useful = set(core)
    queue = deque(core)
    while queue:
        q = queue.popleft()
        for p in preds[q]:
            if p not in useful:
                useful.add(p)
                queue.append(p)
    transitions = frozenset(
        t for t in a.transitions if t[0] in useful and t[2] in useful)
    return BuchiAutomaton(
        frozenset(useful), a.alphabet, transitions,
        frozenset(q for q in a.initial if q in useful),
        frozenset(t for t in a.accepting if t[0] in useful and t[2] in useful))
