"""Büchi automata: membership, emptiness, containment, trimming, surveys."""

import random

import pytest

from hflcyc.buchi import (
    BuchiAutomaton,
    BuchiError,
    LassoWord,
    SizeGuard,
    accepts_lasso,
    contains,
    dump_automaton,
    enumerate_lassos,
    is_empty,
    make_automaton,
    survey_lassos,
    to_dot,
    trim,
)


def everything(syms=("a", "b")) -> BuchiAutomaton:
    loops = [(0, s, 0) for s in syms]
    return make_automaton([0], syms, loops, [0], loops)


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


def agree(x: BuchiAutomaton, y: BuchiAutomaton, max_u: int, max_v: int) -> bool:
    sx = survey_lassos(x, max_u, max_v)
    sy = survey_lassos(y, max_u, max_v)
    return all(sx.accepts(w) == sy.accepts(w) for w in sx.lassos())


class TestMembership:
    def test_no_accepting_transitions_rejects_everything(self):
        a = nothing()
        for w in enumerate_lassos(["a", "b"], 2, 2):
            assert not accepts_lasso(a, w)

    def test_accepting_self_loop(self):
        a = make_automaton([0], ["a"], [(0, "a", 0)], [0], [(0, "a", 0)])
        assert accepts_lasso(a, LassoWord((), ("a",)))

    def test_infinitely_many_b(self):
        a = infinitely_many_b()
        assert accepts_lasso(a, LassoWord(("a",), ("a", "b")))
        assert not accepts_lasso(a, LassoWord(("b",), ("a",)))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(BuchiError, match="not in the alphabet"):
            accepts_lasso(nothing(), LassoWord((), ("z",)))

    def test_empty_period_rejected(self):
        with pytest.raises(BuchiError, match="nonempty"):
            LassoWord(("a",), ())

    def test_no_initial_states(self):
        a = make_automaton([0], ["a"], [(0, "a", 0)], [], [(0, "a", 0)])
        assert not accepts_lasso(a, LassoWord((), ("a",)))

    def test_prefix_accepting_transition_does_not_count(self):
        # the only accepting transition is taken once, never again
        a = make_automaton(
            [0, 1], ["a"], [(0, "a", 1), (1, "a", 1)], [0], [(0, "a", 1)])
        assert not accepts_lasso(a, LassoWord(("a",), ("a",)))


class TestEmptiness:
    def test_no_accepting_transitions(self):
        assert is_empty(nothing()) == (True, None)

    def test_accepting_loop_with_witness(self):
        a = make_automaton(
            [0, 1], ["a", "b"], [(0, "a", 1), (1, "b", 1)], [0], [(1, "b", 1)])
        empty, wit = is_empty(a)
        assert not empty
        assert wit == LassoWord(("a",), ("b",))
        assert accepts_lasso(a, wit)

    def test_unreachable_loop(self):
        a = make_automaton(
            [0, 1], ["a"], [(1, "a", 1)], [0], [(1, "a", 1)])
        assert is_empty(a) == (True, None)

    def test_accepting_transition_off_cycle(self):
        a = make_automaton(
            [0, 1], ["a"], [(0, "a", 1), (1, "a", 1)], [0], [(0, "a", 1)])
        assert is_empty(a) == (True, None)

    def test_random_agreement_with_enumeration(self):
        rng = random.Random(0xB0C41)
        for _ in range(60):
            a = random_automaton(rng)
            empty, wit = is_empty(a)
            survey = survey_lassos(a, 4, 4)
            if empty:
                assert not any(survey.accepts(w) for w in survey.lassos())
            else:
                assert accepts_lasso(a, wit)
                assert survey_lassos(a, len(wit.u), len(wit.v)).accepts(wit)


class TestSurvey:
    def test_matches_direct_membership(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_automaton(rng)
            survey = survey_lassos(a, 3, 3)
            for w in enumerate_lassos(a.alphabet, 3, 3):
                assert survey.accepts(w) == accepts_lasso(a, w)

    def test_rectangle_enforced(self):
        survey = survey_lassos(nothing(), 1, 1)
        with pytest.raises(BuchiError, match="outside"):
            survey.accepts(LassoWord(("a", "a"), ("b",)))

    def test_enumeration_counts(self):
        assert len(list(enumerate_lassos(["a", "b"], 2, 2))) == 7 * 6
        assert len(list(enumerate_lassos(["a"], 0, 3))) == 3


class TestContains:
    def test_reflexive(self):
        rng = random.Random(21)
        for _ in range(10):
            a = random_automaton(rng)
            ok, wit = contains(a, a)
            assert ok and wit is None

    def test_everything_not_in_empty(self):
        ok, wit = contains(everything(), nothing())
        assert not ok
        assert accepts_lasso(everything(), wit)
        assert not accepts_lasso(nothing(), wit)

    @staticmethod
    def check_agreement(alphabet, seed, pairs):
        rng = random.Random(seed)
        for _ in range(pairs):
            a = random_automaton(rng, alphabet=alphabet)
            b = random_automaton(rng, alphabet=alphabet)
            ok, wit = contains(a, b)
            sa = survey_lassos(a, 4, 4)
            sb = survey_lassos(b, 4, 4)
            if ok:
                # no bounded counterexample may exist
                assert all(sb.accepts(w) for w in sa.lassos() if sa.accepts(w))
            else:
                assert accepts_lasso(a, wit)
                assert not accepts_lasso(b, wit)

    def test_random_agreement(self):
        self.check_agreement(("a", "b"), 22, 15)
        self.check_agreement(("a", "b"), 23, 40)

    def test_three_letter_agreement(self):
        self.check_agreement(("a", "b", "c"), 24, 25)

    def test_alphabet_mismatch(self):
        with pytest.raises(BuchiError, match="alphabet"):
            contains(nothing(["a"]), nothing(["a", "b"]))

    def test_size_guard(self):
        # 2 prefixes fit under the cap; the segments do not
        with pytest.raises(SizeGuard, match="exceeds 3 stored") as info:
            contains(infinitely_many_b(), infinitely_many_b(), max_states=3)
        assert info.traceback[-2].name == "_segments"

    def test_size_guard_closure(self):
        # 2 prefixes and 4 segments fit under the cap; the loop elements do not
        with pytest.raises(SizeGuard, match="exceeds 6 stored") as info:
            contains(infinitely_many_b(), infinitely_many_b(), max_states=6)
        assert info.traceback[-2].name == "_loops"
        assert contains(infinitely_many_b(), infinitely_many_b(), max_states=8)[0]


class TestTrim:
    def test_language_preserved(self):
        rng = random.Random(41)
        for _ in range(20):
            a = random_automaton(rng)
            assert agree(trim(a), a, 3, 3)

    def test_empty_language_trims_to_nothing(self):
        assert trim(nothing()).states == frozenset()


class TestDumps:
    def test_dump_format(self):
        a = make_automaton(
            [0, 1], ["a", "b"], [(0, "a", 1), (1, "b", 0)], [0], [(1, "b", 0)])
        assert dump_automaton(a) == (
            "states: 2\n"
            "alphabet: a b\n"
            "initial: 0\n"
            "trans: 0 a 1\n"
            "trans: 1 b 0 *\n")

    def test_dump_deterministic(self):
        rng = random.Random(51)
        a = random_automaton(rng)
        assert dump_automaton(a) == dump_automaton(a)

    def test_dot_export(self):
        a = infinitely_many_b()
        dot = to_dot(a)
        assert dot.startswith("digraph")
        assert "style=bold" in dot
