"""Büchi automata: membership, containment of a proof's paths, trimming."""

import itertools
import random

import pytest

from hflcyc.gtc import (
    BuchiAutomaton,
    GtcError,
    GtcUnknown,
    accepts_lasso,
    build_path_automaton,
    contains,
    trim,
)
from hflcyc.kernel import DerivTree, ExR, PreProof
from hflcyc.trace import Lasso, TraceError

from test_kernel import ps


def make_automaton(states, alphabet, transitions, initial, accepting) -> BuchiAutomaton:
    return BuchiAutomaton(frozenset(states), frozenset(alphabet), frozenset(transitions),
                          frozenset(initial), frozenset(accepting))


def nothing(syms=("a", "b")) -> BuchiAutomaton:
    loops = [(0, s, 0) for s in syms]
    return make_automaton([0], syms, loops, [0], [])


def infinitely_many_b() -> BuchiAutomaton:
    trans = [("p", "a", "p"), ("p", "b", "q"), ("q", "a", "p"), ("q", "b", "q")]
    acc = [("p", "b", "q"), ("q", "b", "q")]
    return make_automaton(["p", "q"], ["a", "b"], trans, ["p"], acc)


def random_automaton(rng: random.Random, max_states: int = 4,
                     alphabet=("a", "b")) -> BuchiAutomaton:
    n = rng.randint(1, max_states)
    states = range(n)
    trans = []
    acc = []
    edge_p = min(1.0, 1.3 / n)
    for q in states:
        for s in alphabet:
            for dst in states:
                if rng.random() < edge_p:
                    t = (q, s, dst)
                    trans.append(t)
                    if rng.random() < 0.35:
                        acc.append(t)
    initial = {rng.randrange(n)}
    for q in states:
        if rng.random() < 0.2:
            initial.add(q)
    return make_automaton(states, alphabet, trans, initial, acc)


def enumerate_lassos(alphabet, max_u: int, max_v: int) -> list[Lasso]:
    """All lassos with |prefix| ≤ max_u and 1 ≤ |cycle| ≤ max_v."""
    def words(lengths):
        return [w for n in lengths for w in itertools.product(sorted(alphabet), repeat=n)]
    return [Lasso(u, v) for u in words(range(max_u + 1)) for v in words(range(1, max_v + 1))]


def cycle_proof(n: int) -> PreProof:
    """n - 1 ``ExR`` nodes s0 ... s(n-2) and a leaf s(n-1) back to s0: the
    proof graph is one cycle through n distinct nodes, companion s0."""
    seq = ps("|- 0 = 0, 0 = 0")
    tree = DerivTree(f"s{n - 1}", seq, None)
    for i in reversed(range(n - 1)):
        tree = DerivTree(f"s{i}", seq, ExR(0), (tree,))
    return PreProof(tree, {f"s{n - 1}": "s0"})


def thread_along(n: int, accepting: str) -> BuchiAutomaton:
    """An idle state ``(0, 0)`` that reads every node of :func:`cycle_proof`
    and may start, at any position, a thread ``(lap, i)`` that follows the
    cycle.

    The thread's steps accept at position 0 of every lap (``"every_lap"``),
    never (``"never"``), or on its first lap only (``"first_lap"``: after
    position n - 1 the thread moves on to a second copy of the cycle, which
    it never leaves and which does not accept).
    """
    syms = [f"s{i}" for i in range(n)]
    idle = (0, 0)
    trans = [(idle, s, idle) for s in syms]
    trans += [(idle, syms[i], (1, (i + 1) % n)) for i in range(n)]
    acc = []
    for lap in (1, 2) if accepting == "first_lap" else (1,):
        for i in range(n):
            wraps = accepting == "first_lap" and i == n - 1
            t = ((lap, i), syms[i], (2 if wraps else lap, (i + 1) % n))
            trans.append(t)
            if (accepting == "every_lap" and i == 0) or (accepting == "first_lap" and lap == 1):
                acc.append(t)
    states = {t[0] for t in trans} | {t[2] for t in trans}
    return make_automaton(states, syms, trans, [idle], acc)


@pytest.mark.parametrize("args,message", [
    (([0], ["a"], [], [1], []), "initial states must be states"),
    (([0], ["a"], [], [0], [(0, "a", 0)]), "accepting transitions must be transitions"),
    (([0], ["a"], [(0, "a", 1)], [0], []), "transition endpoint is not a state"),
    (([0], ["a"], [(0, "b", 0)], [0], []), "transition symbol is not in the alphabet"),
], ids=["initial", "accepting", "endpoint", "symbol"])
def test_malformed_automaton_rejected(args, message):
    with pytest.raises(GtcError, match=message):
        make_automaton(*args)


class TestMembership:
    def test_no_accepting_transitions_rejects_everything(self):
        a = nothing()
        for w in enumerate_lassos(["a", "b"], 2, 2):
            assert not accepts_lasso(a, w)

    def test_accepting_self_loop(self):
        a = make_automaton([0], ["a"], [(0, "a", 0)], [0], [(0, "a", 0)])
        assert accepts_lasso(a, Lasso((), ("a",)))

    def test_infinitely_many_b(self):
        a = infinitely_many_b()
        assert accepts_lasso(a, Lasso(("a",), ("a", "b")))
        assert not accepts_lasso(a, Lasso(("b",), ("a",)))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(GtcError, match="not in the alphabet"):
            accepts_lasso(nothing(), Lasso((), ("z",)))

    def test_empty_period_rejected(self):
        with pytest.raises(TraceError, match="nonempty"):
            Lasso(("a",), ())

    def test_lasso_parts_must_be_tuples(self):
        with pytest.raises(TraceError, match="tuples"):
            Lasso(["a"], ("a",))

    def test_no_initial_states(self):
        a = make_automaton([0], ["a"], [(0, "a", 0)], [], [(0, "a", 0)])
        assert not accepts_lasso(a, Lasso((), ("a",)))

    def test_prefix_accepting_transition_does_not_count(self):
        # the only accepting transition is taken once, never again
        a = make_automaton(
            [0, 1], ["a"], [(0, "a", 1), (1, "a", 1)], [0], [(0, "a", 1)])
        assert not accepts_lasso(a, Lasso(("a",), ("a",)))


class TestContains:
    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("accepting,contained", [
        ("every_lap", True), ("never", False), ("first_lap", False)])
    def test_thread_along_a_long_cycle(self, n, accepting, contained):
        # one segment; a step moves a few rows of a matrix over n + 1 or 2n + 1 states
        pp, b = cycle_proof(n), thread_along(n, accepting)
        lap = Lasso((), tuple(f"s{i}" for i in range(n)))
        assert accepts_lasso(build_path_automaton(pp), lap)
        assert accepts_lasso(b, lap) == contained
        ok, wit = contains(pp, b)
        assert ok == contained
        if ok:
            assert wit is None
        else:
            assert wit == lap

    def test_size_guard(self):
        # 3 partial segments fit under the cap; the segment back to s0 does not
        with pytest.raises(GtcUnknown, match="state cap: stored 3 segments") as info:
            contains(cycle_proof(4), thread_along(4, "every_lap"), max_states=3)
        assert info.traceback[-2].name == "_segments"

    def test_size_guard_closure(self):
        # the segments fit under the cap; the loop elements do not
        with pytest.raises(GtcUnknown, match="state cap: stored 4 segments") as info:
            contains(cycle_proof(4), thread_along(4, "every_lap"), max_states=4)
        assert info.traceback[-2].name == "_loops"
        assert contains(cycle_proof(4), thread_along(4, "every_lap"), max_states=5) == (True, None)


class TestTrim:
    def test_language_preserved(self):
        rng = random.Random(41)
        for _ in range(20):
            a = random_automaton(rng)
            t = trim(a)
            for w in enumerate_lassos(a.alphabet, 3, 3):
                assert accepts_lasso(t, w) == accepts_lasso(a, w)

    def test_empty_language_trims_to_nothing(self):
        assert trim(nothing()).states == frozenset()
