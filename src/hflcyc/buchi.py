"""Nondeterministic Büchi automata with transition-based acceptance.

A run is accepting when it takes accepting *transitions* infinitely often
(rather than visiting accepting states).  The module provides lasso-word
membership, emptiness with witness extraction, trimming, containment with a
counterexample lasso, and an exhaustive lasso-membership survey used as a
brute-force oracle by the test suite.

States and alphabet symbols are opaque hashable values; textual dumps relabel
states with stable integer ids.  The trace automaton of :mod:`hflcyc.gtc`
numbers its states as ints in discovery order (0 is the idle state) and keeps
a table that decodes each int back to its tracked occurrence, so trimming,
containment and the cached lookup tables here hash and sort only small ints.

Containment L(a) ⊆ L(b) builds no complement.  It is the Ramsey closure of
size-change termination (Lee, Jones and Ben-Amram, POPL 2001) in the form
Fogarty and Vardi give for Büchi containment (TACAS 2009): the three-valued
transition matrices of ``b`` (no path / path / path through an accepting
transition) over the words of ``a``'s runs are closed under composition, and
an idempotent matrix on an accepting loop of ``a`` that no reachable state
set of ``b`` can use is a counterexample.  Loops are composed from segments,
the runs of ``a`` between its feedback states, so one long cycle is one
element.  The closure can still be large (worst case 3^(n^2) matrices), so
:func:`contains` takes a cap and raises :class:`SizeGuard` instead of
diverging.
"""

from __future__ import annotations

import heapq

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .syntax import HflError

State = Hashable
Symbol = Hashable
Transition = tuple[State, Symbol, State]


class BuchiError(HflError):
    """Malformed automaton, alphabet mismatch, or bad lasso word."""


class SizeGuard(BuchiError):
    """A construction exceeded its configured state cap."""


# ---------------------------------------------------------------------------
# automata and lasso words
# ---------------------------------------------------------------------------


def _key(x: object) -> tuple[str, str]:
    return (type(x).__name__, repr(x))


@dataclass(frozen=True)
class LassoWord:
    """The ultimately periodic word ``u · v^omega``."""

    u: tuple[Symbol, ...]
    v: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.u, tuple) or not isinstance(self.v, tuple):
            raise BuchiError("lasso parts must be tuples")
        if not self.v:
            raise BuchiError("lasso period must be nonempty")

    @property
    def spine(self) -> tuple[Symbol, ...]:
        return self.u + self.v


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


def accepts_lasso(a: BuchiAutomaton, w: LassoWord) -> bool:
    """Does the automaton accept ``u · v^omega``?

    Decided on the finite product of the automaton with the lasso positions,
    looking for a reachable cycle that contains an accepting transition.
    """
    for sym in w.spine:
        if sym not in a.alphabet:
            raise BuchiError(f"lasso symbol {sym!r} is not in the alphabet")
    total = len(w.spine)

    def succ_pos(i: int) -> int:
        return i + 1 if i + 1 < total else len(w.u)

    # reachable product nodes
    start = [(q, 0) for q in a._sorted_states if q in a.initial]
    seen = set(start)
    queue = deque(start)
    edges: dict[tuple[State, int], list[tuple[State, int]]] = {}
    accepting_edges: list[tuple[tuple[State, int], tuple[State, int]]] = []
    while queue:
        q, i = queue.popleft()
        sym = w.spine[i]
        nxt_i = succ_pos(i)
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


def _bfs_path(
    a: BuchiAutomaton,
    sources: Iterable[State],
    target: State,
    allowed: Optional[set[State]] = None,
) -> Optional[tuple[Symbol, ...]]:
    """Symbols of a shortest path from any source to the target."""
    parents: dict[State, Optional[tuple[State, Symbol]]] = {}
    queue = deque()
    for s in sorted(set(sources), key=_key):
        if allowed is not None and s not in allowed:
            continue
        parents[s] = None
        queue.append(s)
    while queue:
        q = queue.popleft()
        if q == target:
            word: list[Symbol] = []
            cur = q
            while parents[cur] is not None:
                prev, sym = parents[cur]  # type: ignore[misc]
                word.append(sym)
                cur = prev
            return tuple(reversed(word))
        for sym, dst, _acc in a._by_source.get(q, ()):
            if allowed is not None and dst not in allowed:
                continue
            if dst not in parents:
                parents[dst] = (q, sym)
                queue.append(dst)
    return None


def is_empty(a: BuchiAutomaton) -> tuple[bool, Optional[LassoWord]]:
    """Emptiness, with an accepted lasso as witness when nonempty.

    The language is nonempty exactly when some accepting transition lies on a
    cycle reachable from an initial state.
    """
    reach: set[State] = set()
    queue = deque(q for q in a._sorted_states if q in a.initial)
    reach.update(queue)
    while queue:
        q = queue.popleft()
        for _sym, dst, _acc in a._by_source.get(q, ()):
            if dst not in reach:
                reach.add(dst)
                queue.append(dst)
    if not reach:
        return True, None
    succs = {
        q: [dst for _s, dst, _a in a._by_source.get(q, ()) if dst in reach]
        for q in reach
    }
    comp = _scc_ids(sorted(reach, key=_key), succs)
    for t in sorted(a.accepting, key=_key):
        src, sym, dst = t
        if src in reach and dst in reach and comp[src] == comp[dst]:
            scc = {q for q in reach if comp[q] == comp[src]}
            prefix = _bfs_path(a, a.initial, src)
            back = _bfs_path(a, [dst], src, allowed=scc)
            assert prefix is not None and back is not None
            return False, LassoWord(prefix, (sym,) + back)
    return True, None


# ---------------------------------------------------------------------------
# three-valued transition matrices (for containment and the survey)
# ---------------------------------------------------------------------------
#
# A matrix entry over a fixed state order says, for a finite word w:
#   0 - no w-labelled path between the states,
#   1 - a path exists,
#   2 - a path through an accepting transition exists.
# Rows are stored as two bit masks: ``p1`` (entry >= 1) and ``p2`` (entry = 2),
# with p2 row-wise contained in p1.


class _Mat(NamedTuple):
    p1: tuple[int, ...]
    p2: tuple[int, ...]


def _mat_identity(n: int) -> _Mat:
    return _Mat(tuple(1 << i for i in range(n)), (0,) * n)


def _mat_mul(a: _Mat, b: _Mat) -> _Mat:
    p1 = []
    p2 = []
    for r1, r2 in zip(a.p1, a.p2):
        o1 = 0
        o2 = 0
        x = r1
        while x:
            j = (x & -x).bit_length() - 1
            x &= x - 1
            o1 |= b.p1[j]
            o2 |= b.p2[j]
        x = r2
        while x:
            j = (x & -x).bit_length() - 1
            x &= x - 1
            o2 |= b.p1[j]
        p1.append(o1)
        p2.append(o2)
    return _Mat(tuple(p1), tuple(p2))


def _symbol_matrices(a: BuchiAutomaton) -> tuple[tuple[State, ...], dict[Symbol, _Mat]]:
    order = a._sorted_states
    pos = {q: i for i, q in enumerate(order)}
    p1 = {sym: [0] * len(order) for sym in a.alphabet}
    p2 = {sym: [0] * len(order) for sym in a.alphabet}
    for t in a.transitions:
        src, sym, dst = t
        p1[sym][pos[src]] |= 1 << pos[dst]
        if t in a.accepting:
            p2[sym][pos[src]] |= 1 << pos[dst]
    return order, {sym: _Mat(tuple(p1[sym]), tuple(p2[sym])) for sym in a.alphabet}


def _image(mask: int, m: _Mat) -> int:
    """States reachable through ``m`` from any state in ``mask``."""
    out = 0
    while mask:
        j = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out |= m.p1[j]
    return out


def _loop_entries(loop: _Mat) -> int:
    """States from which ``(loop-class)^omega`` has an accepting run.

    For an idempotent ``loop`` that is the set of states reaching, in one
    loop step, a state with a self entry of value 2: from there every further
    block can return to it through an accepting transition.
    """
    good = 0
    for s, row in enumerate(loop.p2):
        if (row >> s) & 1:
            good |= 1 << s
    entries = 0
    if good:
        for q, row in enumerate(loop.p1):
            if row & good:
                entries |= 1 << q
    return entries


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


# ---------------------------------------------------------------------------
# containment (Ramsey closure over feedback-state segments)
# ---------------------------------------------------------------------------

Word = tuple[Symbol, ...]
Element = tuple[State, State, bool, _Mat]
"""(source, target, accepting?, matrix): what a run of one automaton between
two of its states does to the other automaton, over some word."""


class _Cap:
    """One count of stored prefixes, segments and loop elements."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def take(self) -> None:
        if self.used >= self.limit:
            raise SizeGuard(
                f"containment exceeds {self.limit} stored prefixes, "
                "segments and loop elements")
        self.used += 1


def _feedback_states(a: BuchiAutomaton) -> set[State]:
    """Targets of depth-first back edges from the initial states.

    The first state of a reachable cycle that the search discovers has every
    other state of the cycle below it, so the cycle edge into it is a back
    edge: every reachable cycle passes one of these states.
    """
    on_stack: set[State] = set()
    done: set[State] = set()
    feedback: set[State] = set()
    for root in a._sorted_states:
        if root not in a.initial or root in done:
            continue
        on_stack.add(root)
        work = [(root, iter(a._by_source[root]))]
        while work:
            q, it = work[-1]
            for _sym, dst, _acc in it:
                if dst in on_stack:
                    feedback.add(dst)
                elif dst not in done:
                    on_stack.add(dst)
                    work.append((dst, iter(a._by_source[dst])))
                    break
            else:
                work.pop()
                on_stack.discard(q)
                done.add(q)
    return feedback


def _prefixes(a: BuchiAutomaton, gens: Mapping[Symbol, _Mat], start: int,
              cap: _Cap) -> dict[tuple[State, int], Word]:
    """A shortest word to each reachable (a-state, b-state mask) pair."""
    words: dict[tuple[State, int], Word] = {}
    queue: deque[tuple[State, int]] = deque()
    for q in a._sorted_states:
        if q in a.initial:
            cap.take()
            words[(q, start)] = ()
            queue.append((q, start))
    while queue:
        pair = queue.popleft()
        q, mask = pair
        for sym, dst, _acc in a._by_source[q]:
            nxt = (dst, _image(mask, gens[sym]))
            if nxt not in words:
                cap.take()
                words[nxt] = words[pair] + (sym,)
                queue.append(nxt)
    return words


def _segments(a: BuchiAutomaton, gens: Mapping[Symbol, _Mat], identity: _Mat,
              feedback: set[State], cap: _Cap) -> dict[Element, Word]:
    """Runs of ``a`` from a feedback state to the next, with a shortest word.

    Between two feedback states a run repeats no state, so each search ends.
    """
    segments: dict[Element, Word] = {}
    for f in sorted(feedback, key=_key):
        start = (f, False, identity)
        words: dict[tuple[State, bool, _Mat], Word] = {start: ()}
        queue = deque([start])
        while queue:
            item = queue.popleft()
            q, acc, m = item
            for sym, dst, acc2 in a._by_source[q]:
                nxt = (dst, acc or acc2, _mat_mul(m, gens[sym]))
                if dst in feedback:
                    seg = (f, *nxt)
                    if seg not in segments:
                        cap.take()
                        segments[seg] = words[item] + (sym,)
                elif nxt not in words:
                    cap.take()
                    words[nxt] = words[item] + (sym,)
                    queue.append(nxt)
    return segments


def _loops(segments: Mapping[Element, Word], cap: _Cap) -> dict[Element, Word]:
    """The closure of the segments under composition, with shortest words.

    Elements are settled in order of word length, so the word an element has
    when it is settled is a shortest one.
    """
    by_source: dict[State, list[tuple[Element, Word]]] = {}
    for seg, word in segments.items():
        by_source.setdefault(seg[0], []).append((seg, word))
    best = dict(segments)
    heap = [(len(word), i, seg) for i, (seg, word) in enumerate(segments.items())]
    tick = len(heap)
    settled: dict[Element, Word] = {}
    while heap:
        _len, _tick, elem = heapq.heappop(heap)
        if elem in settled:
            continue
        word = settled[elem] = best[elem]
        src, dst, acc, m = elem
        for (_mid, to, acc2, m2), word2 in by_source.get(dst, ()):
            prod = (src, to, acc or acc2, _mat_mul(m, m2))
            longer = word + word2
            old = best.get(prod)
            if old is None:
                cap.take()
            if old is None or len(longer) < len(old):
                best[prod] = longer
                heapq.heappush(heap, (len(longer), tick, prod))
                tick += 1
    return settled


def contains(
    a: BuchiAutomaton,
    b: BuchiAutomaton,
    *,
    max_states: int = 50_000,
) -> tuple[bool, Optional[LassoWord]]:
    """Language containment L(a) ⊆ L(b), with a counterexample lasso if not.

    Decided without complementing ``b``, by the Ramsey argument.  Take a word
    w accepted by ``a`` along a run ρ and rejected by ``b``.  ρ passes
    feedback states (:func:`_feedback_states`) infinitely often, and cuts w
    at those visits into segments.  Colour each pair of cuts i < j by
    (ρ_i, ρ_j, whether ρ takes an accepting transition between them, the
    three-valued matrix of ``b`` on the word between them).  By Ramsey's
    theorem there are infinitely many cuts whose pairs all share one colour
    (p, p, acc, E).  Two adjacent pairs compose to a third, so E·E = E, and
    acc holds because ρ accepts.  So w = u·v1·v2·… where ``u`` leads ``a``
    to p and ``b`` to a state set M, and every block v_k is a composition of
    segments with matrix E.  Since ``b`` rejects w, no state of M reaches in
    one E step a state with a self entry of value 2.  Conversely, any such
    prefix pair (p, M) with word u and idempotent accepting loop element at p
    with word v gives u·v^omega, which ``a`` accepts and ``b`` rejects.

    So the decision closes three finite tables, each keeping a shortest
    word: the reachable (a-state, b-state set) prefix pairs; the segments of
    ``a`` between feedback states; and the closure of the segments under
    composition.  One cycle through one feedback state is a single segment,
    so the closure does not grow with cycle length.  The counterexample is
    the shortest such (u, v), with the end of u rotated into v while both
    end in the same symbol.  ``max_states`` caps the prefixes, the segments
    and partial segments, and the loop elements together; going past it
    raises :class:`SizeGuard`.
    """
    if a.alphabet != b.alphabet:
        raise BuchiError("containment requires identical alphabets")
    order, gens = _symbol_matrices(b)
    start = sum(1 << i for i, q in enumerate(order) if q in b.initial)
    cap = _Cap(max_states)
    feedback = _feedback_states(a)
    prefixes_at: dict[State, list[tuple[int, Word]]] = {}
    for (q, mask), u in _prefixes(a, gens, start, cap).items():
        if q in feedback:
            prefixes_at.setdefault(q, []).append((mask, u))
    segments = _segments(a, gens, _mat_identity(len(order)), feedback, cap)
    found: Optional[tuple[Word, Word]] = None
    for (src, dst, acc, m), v in _loops(segments, cap).items():
        if src != dst or not acc or _mat_mul(m, m) != m:
            continue
        entries = _loop_entries(m)
        for mask, u in prefixes_at.get(src, ()):
            if not mask & entries and (
                    found is None or len(u) + len(v) < sum(map(len, found))):
                found = (u, v)
    if found is None:
        return True, None
    u, v = found
    while u and u[-1] == v[-1]:
        u, v = u[:-1], (u[-1],) + v[:-1]
    return False, LassoWord(u, v)


# ---------------------------------------------------------------------------
# exhaustive lasso survey (brute-force membership oracle)
# ---------------------------------------------------------------------------


def enumerate_lassos(
    alphabet: Iterable[Symbol], max_u: int, max_v: int
) -> Iterator[LassoWord]:
    """All lassos with |u| ≤ max_u and 1 ≤ |v| ≤ max_v, in a stable order."""
    syms = sorted(set(alphabet), key=_key)

    def words(limit: int, min_len: int) -> Iterator[tuple[Symbol, ...]]:
        layer: list[tuple[Symbol, ...]] = [()]
        for size in range(limit + 1):
            if size >= min_len:
                yield from layer
            if size == limit:
                break
            layer = [w + (s,) for w in layer for s in syms]

    for u in words(max_u, 0):
        for v in words(max_v, 1):
            yield LassoWord(u, v)


@dataclass(frozen=True)
class LassoSurvey:
    """Membership of every lasso in a rectangle of word lengths.

    ``accepts(u, v)`` answers in O(1) from two precomputed tables: for each
    prefix u, the set of states reachable from the initial states; for each
    period v, the set of states from which some number of whole-v jumps
    reaches a state lying on a v-cycle through an accepting transition.
    """

    alphabet: tuple[Symbol, ...]
    max_u: int
    max_v: int
    _prefix_reach: Mapping[tuple[Symbol, ...], int] = field(repr=False)
    _period_trap: Mapping[tuple[Symbol, ...], int] = field(repr=False)

    def accepts(self, w: LassoWord) -> bool:
        try:
            reach = self._prefix_reach[w.u]
            trap = self._period_trap[w.v]
        except KeyError:
            raise BuchiError("lasso outside the surveyed rectangle") from None
        return bool(reach & trap)

    def lassos(self) -> Iterator[LassoWord]:
        for u in self._prefix_reach:
            for v in self._period_trap:
                yield LassoWord(u, v)


def _trap_mask(mat: _Mat) -> int:
    """States from which repeated whole-word jumps reach an accepting cycle.

    Treating the matrix as the one-step graph, a state is in the trap when it
    reaches (in ≥ 0 steps) a strongly connected component containing an
    internal edge of value 2.
    """
    n = len(mat.p1)
    nodes = list(range(n))
    succs = {
        i: [j for j in range(n) if (mat.p1[i] >> j) & 1] for i in nodes
    }
    comp = _scc_ids(nodes, succs)
    groups: dict[int, int] = {}
    for i in nodes:
        groups[comp[i]] = groups.get(comp[i], 0) | (1 << i)
    seed = 0
    for mask in groups.values():
        x = mask
        good = False
        while x and not good:
            i = (x & -x).bit_length() - 1
            x &= x - 1
            if mat.p2[i] & mask:
                good = True
        if good:
            seed |= mask
    if not seed:
        return 0
    trap = seed
    changed = True
    while changed:
        changed = False
        for i in nodes:
            bit = 1 << i
            if not (trap & bit) and (mat.p1[i] & trap):
                trap |= bit
                changed = True
    return trap


def survey_lassos(a: BuchiAutomaton, max_u: int, max_v: int) -> LassoSurvey:
    """Exhaustive lasso membership for all |u| ≤ max_u, 1 ≤ |v| ≤ max_v."""
    order, gens = _symbol_matrices(a)
    pos = {q: i for i, q in enumerate(order)}
    syms = sorted(a.alphabet, key=_key)
    initial_mask = 0
    for q in a.initial:
        initial_mask |= 1 << pos[q]

    # prefix table: reachable-state masks along the prefix trie
    prefix_reach: dict[tuple[Symbol, ...], int] = {(): initial_mask}
    layer: list[tuple[tuple[Symbol, ...], int]] = [((), initial_mask)]
    for _ in range(max_u):
        nxt: list[tuple[tuple[Symbol, ...], int]] = []
        for word, mask in layer:
            for sym in syms:
                out = _image(mask, gens[sym])
                key = word + (sym,)
                prefix_reach[key] = out
                nxt.append((key, out))
        layer = nxt

    # period table: matrices along the period trie, memoized per matrix
    mats: dict[_Mat, int] = {}
    mat_list: list[_Mat] = []

    def mat_id(m: _Mat) -> int:
        got = mats.get(m)
        if got is None:
            got = len(mat_list)
            mats[m] = got
            mat_list.append(m)
        return got

    product_memo: dict[tuple[int, Symbol], int] = {}
    trap_memo: dict[int, int] = {}

    def trap_of(mid: int) -> int:
        got = trap_memo.get(mid)
        if got is None:
            got = _trap_mask(mat_list[mid])
            trap_memo[mid] = got
        return got

    period_trap: dict[tuple[Symbol, ...], int] = {}
    mlayer: list[tuple[tuple[Symbol, ...], int]] = [((), mat_id(_mat_identity(len(order))))]
    for _ in range(max_v):
        nxt_layer: list[tuple[tuple[Symbol, ...], int]] = []
        for word, mid in mlayer:
            for sym in syms:
                key = (mid, sym)
                child = product_memo.get(key)
                if child is None:
                    child = mat_id(_mat_mul(mat_list[mid], gens[sym]))
                    product_memo[key] = child
                vword = word + (sym,)
                period_trap[vword] = trap_of(child)
                nxt_layer.append((vword, child))
        mlayer = nxt_layer

    return LassoSurvey(tuple(syms), max_u, max_v, prefix_reach, period_trap)


# ---------------------------------------------------------------------------
# textual dumps
# ---------------------------------------------------------------------------


def _state_ids(a: BuchiAutomaton) -> Mapping[State, int]:
    return {q: i for i, q in enumerate(a._sorted_states)}


def dump_automaton(a: BuchiAutomaton) -> str:
    """Line-based dump: states, initial, transitions; ``*`` marks accepting."""
    ids = _state_ids(a)
    lines = [f"states: {len(ids)}"]
    lines.append("alphabet: " + " ".join(str(s) for s in sorted(a.alphabet, key=_key)))
    lines.append("initial: " + " ".join(str(ids[q]) for q in sorted(a.initial, key=_key)))
    for t in sorted(a.transitions, key=lambda t: (_key(t[0]), _key(t[1]), _key(t[2]))):
        src, sym, dst = t
        star = " *" if t in a.accepting else ""
        lines.append(f"trans: {ids[src]} {sym} {ids[dst]}{star}")
    return "".join(line + "\n" for line in lines)


def to_dot(a: BuchiAutomaton) -> str:
    """Graph description for visualization tools (accepting edges bold)."""
    ids = _state_ids(a)
    lines = ["digraph buchi {", "  rankdir=LR;"]
    for q in a._sorted_states:
        shape = "doublecircle" if q in a.initial else "circle"
        lines.append(f'  n{ids[q]} [label="{ids[q]}", shape={shape}];')
    for t in sorted(a.transitions, key=lambda t: (_key(t[0]), _key(t[1]), _key(t[2]))):
        src, sym, dst = t
        style = ', style=bold, color="#b03030"' if t in a.accepting else ""
        lines.append(f'  n{ids[src]} -> n{ids[dst]} [label="{sym}"{style}];')
    lines.append("}")
    return "".join(line + "\n" for line in lines)
