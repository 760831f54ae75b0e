"""The local half of the soundness argument, one inference at a time.

The paper proves soundness as Brotherston and Simpson do: if the root were
false, there would be an infinite path of false sequents, and along a good
trace on it the approximant index of the traced operator would never grow
and would fall at each unfolding, which is impossible.  What one inference
owes that argument is checked here in the bounded model of
:mod:`hflcyc.semantics`, at K = 2:

- local soundness: every valuation that falsifies the conclusion extends to
  one that falsifies some premise (the extension gives the premise's fresh
  variables, such as a Subst source's or Mono's names, every value);
- descent: for at least one such premise and extension, every link of
  :func:`~hflcyc.trace.occurrence_steps` from a left-mu or right-nu operator
  position ``p`` of the conclusion to a position ``q`` of the premise has
  ``sig(premise formula, q) <= sig(conclusion formula, p)``, and ``<``
  where ``p`` is the step's consumed head.

``sig(F, p)`` is the least approximant index at which replacing the fixed
point at ``p`` by that approximant keeps F's truth value, every other fixed
point at its full value.  The links come from the kernel's rules and the
truth values from the bounded semantics alone, so a link that names the
wrong formula, or the wrong part of one, fails here wherever a valuation
tells the two apart.  A valuation on which the bound bites (``NatOverflow``,
``DomainTooLarge``) is counted as skipped, never retried at a larger K.
"""

import pytest

from hflcyc.kernel import LEFT, AndL, ExL, MuL
from hflcyc.semantics import (
    BoundedDomain, DomainTooLarge, NatOverflow, _holds, iter_valuations,
)
from hflcyc.syntax import And, App, Mu, Nu, Sequent, Var, infer_env, nat_pred, subexpr_at
from hflcyc.trace import occurrence_steps

from test_kernel import FIXTURES

K = 2


def nat(name):
    return App(nat_pred(), Var(name))


NAT_CASES = [
    ("ExL-nat", Sequent((nat("x"), nat("y")), ()), ExL(0)),
    ("AndL-nat", Sequent((And(nat("x"), nat("y")),), ()), AndL()),
    ("MuL-nat", Sequent((nat("x"),), ()), MuL()),
]
CASES = [(label, conclusion, rule) for label, conclusion, rule, _ in FIXTURES] + NAT_CASES
# how many valuations falsify each conclusion over N, so that these cases
# keep testing something (most fixtures have no fixed point to trace)
NAT_FALSIFIED = {"ExL-nat": 9, "AndL-nat": 9, "MuL-nat": 3}


def _formula(seq, pos):
    side, index = pos
    return (seq.left if side == LEFT else seq.right)[index]


def _sig(dom, formula, path, rho, value):
    """The least approximant index of the fixed point at ``path`` that keeps
    the formula's truth value ``value``; at the lattice height the
    approximant is the fixed point itself."""
    height = dom.height(subexpr_at(formula, path).var_type)
    return next(a for a in range(height + 1) if dom.eval(formula, rho, {path: a}) is value)


def _descends(dom, conclusion, premise, steps, rho, ext):
    for step in steps:
        side = step.conclusion_pos[0]
        # in a falsified sequent the left formulas are true, the right ones false
        traced, value = (Mu, True) if side == LEFT else (Nu, False)
        above = _formula(conclusion, step.conclusion_pos)
        below = _formula(premise, step.premise_pos)
        for q, p in step.transport.items():
            if not isinstance(subexpr_at(above, p), traced):
                continue
            was, now = _sig(dom, above, p, rho, value), _sig(dom, below, q, ext, value)
            if now > was or (p == step.consumed_head and now == was):
                return False
    return True


def lemma_counts(conclusion, rule):
    """How the valuations of the conclusion's free variables fare: those
    that falsify it, those of them that falsify no premise, those whose
    falsified premises all break descent, and those skipped."""
    dom = BoundedDomain(K)
    inference = rule.inference(conclusion)
    env = infer_env(conclusion.left + conclusion.right)
    free = {x: env[x] for x in conclusion.free_vars()}
    premises = []
    for branch, premise in enumerate(inference.premises):
        kept = premise.free_vars() & free.keys()
        penv = infer_env(premise.left + premise.right, {x: free[x] for x in kept})
        fresh = {x: penv[x] for x in premise.free_vars() - kept}
        premises.append((premise, list(iter_valuations(dom, fresh)),
                         occurrence_steps(conclusion, rule, branch, inference=inference)))
    counts = {"falsified": 0, "unsound": 0, "no_descent": 0, "skipped": 0}
    for rho in iter_valuations(dom, free):
        try:
            if _holds(conclusion, rho, dom):
                continue
            falsified = [(premise, ext, steps) for premise, exts, steps in premises
                         for ext in ({**rho, **e} for e in exts) if not _holds(premise, ext, dom)]
            ok = any(_descends(dom, conclusion, premise, steps, rho, ext)
                     for premise, ext, steps in falsified)
        except (NatOverflow, DomainTooLarge):
            counts["skipped"] += 1
            continue
        counts["falsified"] += 1
        if not falsified:
            counts["unsound"] += 1
        elif not ok:
            counts["no_descent"] += 1
    return counts


@pytest.mark.parametrize("label,conclusion,rule", CASES, ids=[c[0] for c in CASES])
def test_every_falsified_conclusion_has_a_falsified_premise_that_descends(label, conclusion, rule):
    counts = lemma_counts(conclusion, rule)
    assert counts["unsound"] == counts["no_descent"] == 0, counts
    if label in NAT_FALSIFIED:
        assert counts["falsified"] == NAT_FALSIFIED[label] and counts["skipped"] == 0


class SwappedAndL(AndL):
    # each conjunct linked to the other one
    def premise_rows(self, conclusion):
        ((left, right),) = super().premise_rows(conclusion)
        (f0, (pos, _)), (f1, _) = left[-2:]
        return ((left[:-2] + ((f0, (pos, (1,))), (f1, (pos, (0,)))), right),)


class UnswappedExL(ExL):
    # the swapped formulas, each linked to the position it had
    def premise_rows(self, conclusion):
        ((left, right),) = super().premise_rows(conclusion)
        p = self.pos
        links = [source for _, source in left]
        links[p], links[p + 1] = links[p + 1], links[p]
        return ((tuple(zip([f for f, _ in left], links)), right),)


@pytest.mark.parametrize("conclusion,rule", [
    (NAT_CASES[0][1], UnswappedExL(0)),
    (NAT_CASES[1][1], SwappedAndL()),
], ids=["ExL", "AndL"])
def test_a_link_to_the_wrong_formula_breaks_descent(conclusion, rule):
    # N x and N y have the same operator positions, so these links pass
    # every check of trace.occurrence_steps; only x != y tells them apart
    assert lemma_counts(conclusion, rule) == {
        "falsified": 9, "unsound": 0, "no_descent": 6, "skipped": 0}
