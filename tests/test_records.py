"""Value semantics of the checker's records: the non-interned immutable
values a check builds (head steps, inferences, derivation trees, trace
steps, lassos, automata and verdicts).

Each record compares, hashes and prints by its fields, as a frozen
dataclass would, except the fields that are tables or caches, which stay out
of ``==``, the hash and ``repr``.  A derivation tree prints so too, but
compares and hashes by identity: a pre-proof's value is its node table.
Assigning or deleting a field raises ``FrozenInstanceError``.  Every record
but a pre-proof is built by one constructor, ``Record``'s, from its fields
by position or by name.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

import hflcyc.semantics  # noqa: F401  (so that every record class is defined)
from hflcyc.gtc import Accepted, BuchiAutomaton, Rejected
from hflcyc.kernel import (
    Axiom, DerivTree, Inference, OccurrenceRef, OrR, PreProof, ValidationIssue,
    validate_preproof,
)
from hflcyc.proofio import dumps_preproof, loads_preproof
from hflcyc.syntax import (
    FIXPOINTS, PROP, Mu, Record, Var, head_step, parse_expr, parse_sequent,
)
from hflcyc.oracles import AnnotatedFormula, FiniteOrNotATrace, MuTrace, NuTrace
from hflcyc.trace import Lasso, OccurrenceStep, node_steps

MU_X = parse_expr("mu X:O. X")
UNFOLD = parse_expr("mu X:O. X \\/ p")
LEAF_SEQ = parse_sequent("|- p, q")
ROOT_SEQ = parse_sequent("|- p \\/ q")


def _tree() -> DerivTree:
    return DerivTree("n0", ROOT_SEQ, OrR(), (DerivTree("n1", LEAF_SEQ, None),))


def _loaded() -> PreProof:
    """A pre-proof made from its node table, as a load makes it."""
    return loads_preproof(dumps_preproof(PreProof(_tree(), {"n1": "n0"})))


def _automaton() -> BuchiAutomaton:
    edges = frozenset({(0, 7, 1), (1, 7, 0)})
    return BuchiAutomaton(frozenset({0, 1}), frozenset({7}), edges, frozenset({0}),
                          frozenset({(1, 7, 0)}))


# (build, repr at construction): build makes a fresh, equal value each call
SAMPLES = {
    "HeadStep": (
        lambda: head_step(UNFOLD, FIXPOINTS),
        "HeadStep(result=Or(lhs=Mu(var='X', var_type=PropType(), body=Or(lhs=Var(name='X'), "
        "rhs=Var(name='p'))), rhs=Var(name='p')), sources={(0,): ()}, head_path=(), "
        "copy_roots=((0,),), sigma_kind='mu')"),
    "Inference": (
        lambda: OrR().inference(ROOT_SEQ),
        "Inference(premises=(Sequent(left=(), right=(Var(name='p'), Var(name='q'))),), "
        "sources=(((), ((('right', 0), (0,)), (('right', 0), (1,)))),))"),
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
        "PreProof(root='n0', rows={'n0': (Sequent(left=(), right=(Var(name='p'), "
        "Var(name='q'))), None, ())}, back_edges={'n0': 'n0'})"),
    "PreProof, loaded": (
        _loaded,
        "PreProof(root='n0', rows={'n0': (Sequent(left=(), right=(Or(lhs=Var(name='p'), "
        "rhs=Var(name='q')),)), OrR(), ('n1',)), 'n1': (Sequent(left=(), "
        "right=(Var(name='p'), Var(name='q'))), None, ())}, back_edges={'n1': 'n0'})"),
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
UNHASHABLE = {"HeadStep", "PreProof", "PreProof, loaded", "AnnotatedFormula", "OccurrenceStep"}


def _class_name(sample: str) -> str:
    return sample.partition(",")[0]


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_is_the_dataclass_text(name):
    build, text = SAMPLES[name]
    value = build()
    assert type(value).__name__ == _class_name(name)
    assert repr(value) == text


@pytest.mark.parametrize("name", [name for name in SAMPLES if name != "DerivTree"])
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


def test_a_tree_is_equal_only_to_itself():
    a, b = _tree(), _tree()
    assert a == a and a != b and hash(a) == object.__hash__(a)
    assert a.__eq__(b) is NotImplemented


def test_values_of_different_classes_differ():
    assert MuTrace(()) != NuTrace(())
    assert Accepted() == Accepted() and FiniteOrNotATrace() == FiniteOrNotATrace()
    assert Accepted() != FiniteOrNotATrace()
    assert Lasso(("n0",), ("n1",)) != Lasso((), ("n0", "n1"))


def test_tables_and_caches_are_not_compared():
    used, fresh = PreProof(_tree(), {"n1": "n0"}), PreProof(_tree(), {"n1": "n0"})
    validate_preproof(used)
    node_steps(used, "n0", 0)
    assert used._inferences and used.step_table and used == fresh
    assert repr(used) == repr(fresh)


def test_hashing_a_pre_proof_hashes_its_back_edge_dict():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(PreProof(_tree()))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(PreProof(_tree(), {"n1": "n0"}))


def test_a_loaded_pre_proof_is_the_value_of_the_built_one():
    # each copy of a fresh load, before anything has made its tree
    built = PreProof(_tree(), {"n1": "n0"})
    for copy_of in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        copied = copy_of(_loaded())
        assert type(copied) is PreProof and copied == built and repr(copied) == repr(built)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(_loaded())
    loaded = _loaded()
    assert loaded == built and built == loaded and repr(loaded) == repr(built)
    assert loaded != PreProof(_tree(), {"n1": "n1"})


def test_pre_proof_nodes_are_found_once():
    pp = PreProof(_tree(), {"n1": "n0"})
    nodes = pp.nodes
    assert list(nodes) == ["n0", "n1"] and pp.nodes is nodes


def test_defaults():
    assert repr(Rejected("structural")) == "Rejected(kind='structural', issues=(), lasso=None, detail='')"
    assert Axiom().inference(parse_sequent("p |- p")) == Inference((), ())
    assert DerivTree("n0", LEAF_SEQ, None).children == ()
    assert PreProof(DerivTree("n0", LEAF_SEQ, Axiom())).back_edges == {}
    step = OccurrenceStep(("left", 0), ("left", 1), {})
    assert (step.consumed_head, step.copy_roots, step.sigma_kind) == (None, (), None)


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("hflcyc."):
            yield sub
        yield from _record_classes(sub)


RECORD_CLASSES = sorted(_record_classes(), key=lambda cls: cls.__name__)


def _arguments(cls) -> tuple[dict, int]:
    """The arguments that build the class's sample, by name, and how many
    of the last ones have defaults."""
    if cls is PreProof:
        return {"tree": _tree(), "back_edges": {"n1": "n0"}}, 1
    return dict(zip(cls._compared, SAMPLES[cls.__name__][0]()._values())), len(cls._defaults)


def test_keywords_name_the_fields():
    assert Rejected(kind="trace", issues=(), lasso=None, detail="d") == Rejected("trace", detail="d")
    assert OccurrenceStep(premise_pos=("right", 0), conclusion_pos=("right", 0), transport={},
                          consumed_head=None, copy_roots=(), sigma_kind=None) == OccurrenceStep(
        ("right", 0), ("right", 0), {})


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_names_and_defaults_build_the_value_positions_build(cls):
    # the first fields by position and the others by name, in any order,
    # or the last ones left to their defaults
    named, defaults = _arguments(cls)
    fields = list(named.values())
    value = cls(*fields)._values()
    for k in range(len(fields) + 1):
        assert cls(*fields[:k], **dict(reversed(list(named.items())[k:])))._values() == value
    required = fields[:len(fields) - defaults]
    assert cls(*required)._values() == cls(*required, *cls._defaults)._values()


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_a_missing_extra_unknown_or_repeated_field_is_refused(cls):
    named, defaults = _arguments(cls)
    fields = list(named.values())
    calls = [(fields + [None], {}), (fields, {"unknown": None}), (fields, {"self": None})]
    if fields:
        calls += [(fields[:len(fields) - defaults - 1], {}), (fields, {next(iter(named)): fields[0]})]
    for args, kwargs in calls:
        with pytest.raises(TypeError, match=f"^{cls.__name__}\\b") as err:
            cls(*args, **kwargs)
        # PreProof's own __init__ raises Python's TypeError, which names it too
        assert cls is PreProof or str(err.value) == f"{cls.__name__} takes the fields {cls._compared}"


def test_only_a_pre_proof_has_its_own_constructor_or_reduce():
    # every other record is built by Record.__init__ from the fields its
    # __slots__ lists, checked in _check, and copied by the shared __reduce__
    own = {cls.__name__ for cls in _record_classes()
           for name in ("__new__", "__init__", "__reduce__") if name in vars(cls)}
    assert own == {"PreProof"}


RECORDS_TO_COPY = {
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


def test_a_deep_tree_prints_without_recursion():
    tree = DerivTree("n0", LEAF_SEQ, None)
    for k in range(1, 3000):
        tree = DerivTree(f"n{k}", LEAF_SEQ, OrR(), (tree,))
    assert repr(tree).count("DerivTree(") == 3000


def test_every_record_class_has_a_sample():
    # a record class added later fails here until SAMPLES covers it
    assert {cls.__name__ for cls in _record_classes()} == set(map(_class_name, SAMPLES))


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
