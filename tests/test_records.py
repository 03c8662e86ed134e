"""The package's record classes: construction, equality, immutability and
validation.

Six plain records are `typing.NamedTuple`s; the eight that validate their
fields or override dunders share the slotted base in `pbzlogic._record`.
"""

import copy
import pickle
from array import array

import pytest

from pbzlogic import (
    AxiomReport,
    KnowledgeBase,
    LatticeOps,
    LogicAssignment,
    LogicSpec,
    LogicValidation,
    ObjectSet,
    Orthopair,
    SevenPartition,
    TruthValue,
    Universe,
    UniverseMismatchError,
    ValueDef,
)
from pbzlogic.axioms import Axiom
from pbzlogic.cli import DEFAULT_NEGATIVE, DEFAULT_POSITIVE, DEFAULT_UNKNOWN, Table, TableConfig

U = Universe(("a", "b", "c"))
AB = ObjectSet(U, 0b011)
C = ObjectSet(U, 0b100)
TREAT = ValueDef("treat", up=("sT",))
WAIT = ValueDef("wait", down=("U", "K", "fK"))
SPEC = LogicSpec("treatment", (TREAT, WAIT))


def meet(p, q):
    return (p[0] & q[0], p[1] | q[1])


def join(p, q):
    return (p[0] | q[0], p[1] & q[1])


def swap(p):
    return (p[1], p[0])


def lower(mask):
    return mask  # the lower approximation on singleton blocks


def holds(o, p):
    return True


# Each record with its fields, in constructor order, and values for them.
RECORDS = {
    "Universe": (Universe, {"objects": ("a", "b", "c")}),
    "ObjectSet": (ObjectSet, {"universe": U, "bits": 0b011}),
    "KnowledgeBase": (KnowledgeBase, {"universe": U, "blocks": (AB, C)}),
    "Orthopair": (Orthopair, {"positive": AB, "negative": C}),
    "ValueDef": (ValueDef, {"label": "k", "up": ("K",), "down": ("K", "fK")}),
    "LogicSpec": (LogicSpec, {"name": "treatment", "values": (TREAT, WAIT)}),
    "LogicAssignment": (LogicAssignment, {"logic": SPEC, "parts": {"treat": AB, "wait": C}}),
    "SevenPartition": (SevenPartition, {"parts": {v: AB for v in TruthValue}}),
    "TableConfig": (TableConfig, {
        "attributes": ("x",), "decision_column": "d", "positive_tokens": ("y",),
        "negative_tokens": ("n",), "unknown_tokens": ("?",),
    }),
    "Table": (Table, {
        "objects": ["a", "b"], "block_ids": array("I", [0, 0]), "block_sizes": [2],
        "flags": bytearray(b"\x03"),
    }),
    "LatticeOps": (LatticeOps, {
        "full": 1, "lower": lower, "meet": meet, "join": join,
        "kleene": swap, "brouwer": swap, "pawlak": swap,
    }),
    "Axiom": (Axiom, {
        "ident": "X", "arity": 1, "description": "always", "predicate": holds,
        "pointwise": True,
    }),
    "AxiomReport": (AxiomReport, {
        "axiom": "K1", "status": "counterexample", "cases_checked": 3,
        "witness": ((1, 2),), "universe": U, "covers": None,
    }),
    "LogicValidation": (LogicValidation, {
        "logic": "triage", "status": "invalid", "checked": 5,
        "witness": (AB.bits, C.bits), "overlap": ("a", "b", AB.bits), "uncovered": C.bits,
        "universe": U, "covers": None,
    }),
}
SLOTTED = [
    "Universe", "ObjectSet", "KnowledgeBase", "Orthopair", "ValueDef", "LogicSpec",
    "LogicAssignment", "SevenPartition",
]
# Records that hold a dict or list cannot be hashed, as before.
UNHASHABLE = {"LogicAssignment", "SevenPartition", "Table"}


def build(name):
    cls, fields = RECORDS[name]
    return cls(**fields)


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_construction_agree(name):
    cls, fields = RECORDS[name]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert cls._fields == tuple(fields)
    for field, value in fields.items():
        assert getattr(by_keyword, field) is value


def test_defaults_are_unchanged():
    assert TableConfig() == TableConfig(
        None, None, DEFAULT_POSITIVE, DEFAULT_NEGATIVE, DEFAULT_UNKNOWN
    )
    assert ValueDef("t", ("T",)).down == ()
    assert ValueDef("f", down=("F",)).up == ()
    short = LogicValidation("triage", "valid", 27)
    assert (short.witness, short.overlap, short.uncovered, short.covers) == (None,) * 4


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_and_hash_equal(name):
    first, second = build(name), build(name)
    assert first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", SLOTTED)
def test_slotted_records_differ_by_value_and_by_class(name):
    record = build(name)
    assert record != object()
    other = {
        "Universe": lambda: Universe(("a", "b")),
        "ObjectSet": lambda: ObjectSet(U, 0b001),
        "KnowledgeBase": lambda: KnowledgeBase(U, (U.full(),)),
        "Orthopair": lambda: Orthopair(C, AB),
        "ValueDef": lambda: ValueDef("k", up=("K",)),
        "LogicSpec": lambda: LogicSpec("treatment", (TREAT,)),
        "LogicAssignment": lambda: LogicAssignment(SPEC, {"treat": AB}),
        "SevenPartition": lambda: SevenPartition({}),
    }[name]()
    assert record != other and not record == other


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_and_deletion_raise_attribute_error(name):
    record = build(name)
    field = next(iter(RECORDS[name][1]))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


def test_reprs_are_unchanged():
    assert repr(U) == "Universe(objects=('a', 'b', 'c'))"
    assert repr(AB) == "{a, b}"
    assert repr(KnowledgeBase(U, (AB, C))) == (
        "KnowledgeBase(universe=Universe(objects=('a', 'b', 'c')), blocks=({a, b}, {c}))"
    )
    assert repr(Orthopair(AB, C)) == "<{a, b}, {c}>"
    assert repr(TREAT) == "ValueDef(label='treat', up=('sT',), down=())"
    assert repr(LogicSpec("t", (TREAT,))) == (
        "LogicSpec(name='t', values=(ValueDef(label='treat', up=('sT',), down=()),))"
    )
    assert repr(LogicAssignment(LogicSpec("t", (TREAT,)), {"treat": AB})) == (
        "LogicAssignment(logic=LogicSpec(name='t', values=(ValueDef(label='treat',"
        " up=('sT',), down=()),)), parts={'treat': {a, b}})"
    )
    assert repr(SevenPartition({TruthValue.TRUE: C})) == (
        "SevenPartition(parts={<TruthValue.TRUE: 'T'>: {c}})"
    )
    assert repr(LogicValidation("triage", "valid", 27)) == (
        "LogicValidation(logic='triage', status='valid', checked=27,"
        " witness=None, overlap=None, uncovered=None, universe=None, covers=None)"
    )
    assert repr(TableConfig(decision_column="d")).startswith(
        "TableConfig(attributes=None, decision_column='d', positive_tokens=("
    )


@pytest.mark.parametrize("name", SLOTTED)
def test_slotted_records_pickle_and_copy_through_the_constructor(name):
    record = build(name)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_cached_properties_still_cache():
    u = Universe(("x", "y"))
    assert u.index("y") == 1
    assert u.__dict__["_index"] == {"x": 0, "y": 1}
    kb = KnowledgeBase.from_block_ids(u, [0, 0])
    assert kb.__dict__["block_index"] == (0, 0)
    coarse = KnowledgeBase(u, (u.full(),))
    assert coarse.block_index == (0, 0)
    assert "block_index" in coarse.__dict__
    assert coarse == kb


@pytest.mark.parametrize("build_bad, error, message", [
    (lambda: Universe(()), ValueError, "a universe needs at least one object"),
    (lambda: Universe(("a", "a")), ValueError, "object identifiers must be unique"),
    (lambda: ObjectSet(U, 0b1000), ValueError, "bit mask outside the universe range"),
    (lambda: ObjectSet(U, -1), ValueError, "bit mask outside the universe range"),
    (lambda: KnowledgeBase(U, (AB, U.subset(["b", "c"]))), ValueError,
     "overlapping partition blocks"),
    (lambda: KnowledgeBase(U, (AB, U.empty(), C)), ValueError, "empty partition block"),
    (lambda: KnowledgeBase(U, (AB,)), ValueError,
     "partition blocks do not cover the universe"),
    (lambda: KnowledgeBase(U, (Universe(("a", "b", "z")).full(),)),
     UniverseMismatchError, "partition block over a different universe"),
    (lambda: Orthopair(AB, U.subset(["b"])), ValueError,
     "positive and negative regions must be disjoint"),
    (lambda: Orthopair(AB, Universe(("z",)).empty()), UniverseMismatchError,
     "orthopair components over different universes"),
    (lambda: ValueDef(""), ValueError, "derived value needs a label"),
    (lambda: ValueDef("x"), ValueError, "derived value 'x' has an empty definition"),
    (lambda: ValueDef("x", up=("T", "Q")), ValueError,
     "unknown base truth value 'Q' in 'x'"),
    (lambda: LogicSpec("l", ()), ValueError, "a logic needs at least one derived value"),
    (lambda: LogicSpec("l", (TREAT, TREAT)), ValueError,
     "duplicate derived value labels in logic 'l'"),
])
def test_validation_errors_are_unchanged(build_bad, error, message):
    with pytest.raises(error) as caught:
        build_bad()
    assert str(caught.value) == message

