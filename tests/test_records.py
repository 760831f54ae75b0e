"""Value semantics of the checker's records: the non-interned immutable
values a check builds (head steps, inferences, derivation trees, trace
steps, lassos, automata and verdicts).

Each record compares, hashes and prints by its fields, as a frozen
dataclass would, except the fields that are tables or caches, which stay out
of ``==``, the hash and ``repr``.  Assigning or deleting a field raises
``FrozenInstanceError``.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

import hflcyc.proofio  # noqa: F401  (so that every record class is defined)
import hflcyc.semantics  # noqa: F401
from hflcyc.gtc import Accepted, BuchiAutomaton, Rejected
from hflcyc.kernel import (
    Axiom, DerivTree, Inference, OccurrenceRef, OrR, PreProof, ValidationIssue,
    validate_preproof,
)
from hflcyc.syntax import (
    FIXPOINTS, PROP, Mu, Record, Var, head_step, parse_expr, parse_sequent,
)
from hflcyc.trace import (
    AnnotatedFormula, FiniteOrNotATrace, Lasso, MuTrace, NuTrace, OccurrenceStep, node_steps,
)

MU_X = parse_expr("mu X:O. X")
UNFOLD = parse_expr("mu X:O. X \\/ p")
LEAF_SEQ = parse_sequent("|- p, q")
ROOT_SEQ = parse_sequent("|- p \\/ q")


def _tree() -> DerivTree:
    return DerivTree("n0", ROOT_SEQ, OrR(), (DerivTree("n1", LEAF_SEQ, None),))


def _automaton(decode=()) -> BuchiAutomaton:
    edges = frozenset({(0, 7, 1), (1, 7, 0)})
    return BuchiAutomaton(frozenset({0, 1}), frozenset({7}), edges, frozenset({0}),
                          frozenset({(1, 7, 0)}), decode)


# (build, repr at construction): build makes a fresh, equal value each call
SAMPLES = {
    "HeadStep": (
        lambda: head_step(UNFOLD, FIXPOINTS),
        "HeadStep(result=Or(lhs=Mu(var='X', var_type=PropType(), body=Or(lhs=Var(name='X'), "
        "rhs=Var(name='p'))), rhs=Var(name='p')), sources={(0,): ()}, head_path=(), "
        "copy_roots=((0,),), sigma_kind='mu')"),
    "Inference": (
        lambda: Inference((LEAF_SEQ,)),
        "Inference(premises=(Sequent(left=(), right=(Var(name='p'), Var(name='q'))),), "
        "head_step=None)"),
    "OccurrenceRef": (lambda: OccurrenceRef("n0", "left", 1),
                      "OccurrenceRef(node='n0', side='left', index=1)"),
    "DerivTree": (
        _tree,
        "DerivTree(id='n0', seq=Sequent(left=(), right=(Or(lhs=Var(name='p'), "
        "rhs=Var(name='q')),)), rule=OrR(), children=(DerivTree(id='n1', "
        "seq=Sequent(left=(), right=(Var(name='p'), Var(name='q'))), rule=None, "
        "children=()),))"),
    "PreProof": (
        lambda: PreProof(DerivTree("n0", LEAF_SEQ, None), {"n0": "n0"}),
        "PreProof(tree=DerivTree(id='n0', seq=Sequent(left=(), right=(Var(name='p'), "
        "Var(name='q'))), rule=None, children=()), back_edges={'n0': 'n0'})"),
    "ValidationIssue": (lambda: ValidationIssue("n1", "open leaf without back edge"),
                        "ValidationIssue(node='n1', message='open leaf without back edge')"),
    "AnnotatedFormula": (
        lambda: AnnotatedFormula(MU_X, {(): (1, 2)}),
        "AnnotatedFormula(formula=Mu(var='X', var_type=PropType(), body=Var(name='X')), "
        "notes={(): (1, 2)})"),
    "OccurrenceStep": (
        lambda: OccurrenceStep(("right", 0), ("right", 0), {(0,): ()}, (), ((0,),), "mu"),
        "OccurrenceStep(premise_pos=('right', 0), conclusion_pos=('right', 0), "
        "transport={(0,): ()}, consumed_head=(), copy_roots=((0,),), sigma_kind='mu')"),
    "Lasso": (lambda: Lasso(("n0",), ("n1", "n2")), "Lasso(prefix=('n0',), cycle=('n1', 'n2'))"),
    "MuTrace": (lambda: MuTrace((1, 3)), "MuTrace(p_prefix=(1, 3))"),
    "NuTrace": (lambda: NuTrace(()), "NuTrace(p_prefix=())"),
    "FiniteOrNotATrace": (FiniteOrNotATrace, "FiniteOrNotATrace()"),
    "BuchiAutomaton": (
        _automaton,
        "BuchiAutomaton(states=frozenset({0, 1}), alphabet=frozenset({7}), "
        "transitions=frozenset({(0, 7, 1), (1, 7, 0)}), initial=frozenset({0}), "
        "accepting=frozenset({(1, 7, 0)}))"),
    "Accepted": (Accepted, "Accepted()"),
    "Rejected": (
        lambda: Rejected("trace", lasso=Lasso((), ("n0",)), detail="path with no good trace"),
        "Rejected(kind='trace', issues=(), lasso=Lasso(prefix=(), cycle=('n0',)), "
        "detail='path with no good trace')"),
}

# the records with a dict field: equal ones compare equal, but hashing raises
UNHASHABLE = {"HeadStep", "PreProof", "AnnotatedFormula", "OccurrenceStep"}


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_is_the_dataclass_text(name):
    build, text = SAMPLES[name]
    value = build()
    assert type(value).__name__ == name
    assert repr(value) == text


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_fields_make_equal_values(name):
    build, _ = SAMPLES[name]
    a, b = build(), build()
    assert a == b and not a != b
    assert a.__eq__(("not", "a", "record")) is NotImplemented
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, text = SAMPLES[name]
    value = build()
    with pytest.raises(FrozenInstanceError):
        value.anything = 1
    first, is_field, _ = text.partition("(")[2].partition("=")
    field = first if is_field else "anything"
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(value, field)


def test_the_hash_is_the_hash_of_the_compared_fields():
    assert hash(OccurrenceRef("x", "left", 2)) == hash(("x", "left", 2))
    assert hash(Lasso(("n0",), ("n1",))) == hash((("n0",), ("n1",)))
    assert hash(MuTrace((1,))) == hash(((1,),))
    assert hash(Accepted()) == hash(()) == hash(FiniteOrNotATrace())
    assert hash(_automaton()) == hash(_automaton(decode=("a", "b")))


def test_values_of_different_classes_differ():
    assert MuTrace(()) != NuTrace(())
    assert Accepted() == Accepted() and FiniteOrNotATrace() == FiniteOrNotATrace()
    assert Accepted() != FiniteOrNotATrace()
    assert Lasso(("n0",), ("n1",)) != Lasso((), ("n0", "n1"))


def test_tables_and_caches_are_not_compared():
    auto = _automaton(decode=(None, ("n0", "right", 0, ())))
    assert auto == _automaton() and auto.decode == (None, ("n0", "right", 0, ()))
    assert "decode" not in repr(auto)
    used, fresh = PreProof(_tree(), {"n1": "n0"}), PreProof(_tree(), {"n1": "n0"})
    validate_preproof(used)
    node_steps(used, used.node("n0"), 0)
    assert used._inferences and used.step_table and used == fresh
    assert repr(used) == repr(fresh)


def test_hashing_a_pre_proof_hashes_its_back_edge_dict():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(PreProof(_tree()))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(PreProof(_tree(), {"n1": "n0"}))


def test_pre_proof_nodes_are_found_once():
    pp = PreProof(_tree(), {"n1": "n0"})
    nodes = pp.nodes
    assert list(nodes) == ["n0", "n1"] and pp.nodes is nodes


def test_defaults():
    assert repr(Rejected("structural")) == "Rejected(kind='structural', issues=(), lasso=None, detail='')"
    assert Inference(()).head_step is None
    assert DerivTree("n0", LEAF_SEQ, None).children == ()
    assert PreProof(DerivTree("n0", LEAF_SEQ, Axiom())).back_edges == {}
    assert _automaton().decode == ()
    step = OccurrenceStep(("left", 0), ("left", 1), {})
    assert (step.consumed_head, step.copy_roots, step.sigma_kind) == (None, (), None)


def test_keywords_name_the_fields():
    assert Rejected(kind="trace", issues=(), lasso=None, detail="d") == Rejected("trace", detail="d")
    assert DerivTree(id="n0", seq=LEAF_SEQ, rule=None, children=()) == DerivTree("n0", LEAF_SEQ, None)
    assert OccurrenceStep(premise_pos=("right", 0), conclusion_pos=("right", 0), transport={},
                          consumed_head=None, copy_roots=(), sigma_kind=None) == OccurrenceStep(
        ("right", 0), ("right", 0), {})


RECORDS_TO_COPY = {
    # two children, so that a copy keeps their order
    "DerivTree": lambda: DerivTree("n0", ROOT_SEQ, OrR(), (
        DerivTree("n1", LEAF_SEQ, None),
        DerivTree("n2", ROOT_SEQ, OrR(), (DerivTree("n3", LEAF_SEQ, None),)))),
    "Lasso": lambda: Lasso(("n0",), ("n1", "n2")),
    "Rejected": lambda: Rejected("structural", issues=(ValidationIssue("n0", "bad"),),
                                 lasso=Lasso((), ("n0",)), detail="n0: bad"),
    "ValidationIssue": lambda: ValidationIssue("n1", "open leaf without back edge"),
}


@pytest.mark.parametrize("name", RECORDS_TO_COPY)
def test_copies_and_pickles_are_equal(name):
    value = RECORDS_TO_COPY[name]()
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)


def test_copies_keep_the_fields_that_are_not_compared():
    auto = _automaton(decode=(None, ("n0", "right", 0, ())))
    for copy_of in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert copy_of(auto).decode == auto.decode


def test_a_deep_tree_prints_without_recursion():
    tree = DerivTree("n0", LEAF_SEQ, None)
    for k in range(1, 3000):
        tree = DerivTree(f"n{k}", LEAF_SEQ, OrR(), (tree,))
    assert repr(tree).count("DerivTree(") == 3000


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("hflcyc."):
            yield sub
        yield from _record_classes(sub)


def test_every_record_class_has_a_sample():
    # a record class added later fails here until SAMPLES covers it
    assert {cls.__name__ for cls in _record_classes()} == set(SAMPLES)


def _slots(value):
    return [name for cls in type(value).__mro__ for name in cls.__dict__.get("__slots__", ())
            if name != "__weakref__"]


@pytest.mark.parametrize("build", [
    *(build for build, _ in SAMPLES.values()),
    lambda: Var("slot_check"),
    lambda: Mu("slot_check", PROP, Var("slot_check")),
], ids=[*SAMPLES, "Var", "Mu"])
def test_every_slot_is_set(build):
    # a formula's free variables and operator positions too
    value = build()
    for name in _slots(value):
        assert hasattr(value, name), name
