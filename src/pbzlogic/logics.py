"""Derived n-valued logics on knowledge bases: evaluation and validation.

A logic (`values.LogicSpec`) assigns each object one of n derived values.
Each derived value is defined by a union of upward aggregations, a union
of downward aggregations, or the intersection of one union of each kind.
A logic is valid on a knowledge base when its derived values partition
the universe for every concept (orthopair).  `validate_blocks` decides that from the
logic's seven-entry `value_table` and a `partition.Partition` (object
names, a block id per object, the block sizes), by the argument below: only the
largest block and |U| matter, and an invalid verdict's witness and
failure follow from its block ids.  `validate-logic` runs it on a table or
on each set partition of its sweep; `validate_logic` runs it on
`KnowledgeBase.partition()`.  `_validate_brute` enumerates every concept
and stays, with `_partition_failure`, as the oracle the tests compare
against; it and `evaluate_logic` evaluate each derived value on the mask
layer through `sevenvalued`, which only they load.

Why the seven-value rule is exact
---------------------------------

1. Labels follow base values.  An object's derived values are the labels
   `value_table()[v]` of its base value v (`ValueDef.members`).  So the
   logic partitions U on a concept iff every base value that some object
   takes on that concept has exactly one label.

2. A block's value follows the regions it meets.  All objects of a block
   share its base value, which depends only on which of the positive
   region A, the negative region B and the boundary the block meets: the
   value whose region flag (`TruthValue.flag`) has exactly those bits.
   Let need(v) be the number of regions a block of value v meets, the
   popcount of v's flag: 1 for T, U and F, 2 for sT, K and sF, 3 for
   fK.  A block of n objects can take value v iff n >= need(v): each
   object lies in one region, so a block meets at most n of them, and with
   n >= need(v) its first need(v) objects can go one into each region of
   v and the rest into the first.

3. Blocks are independent.  A concept places each object in a region with
   no constraint across blocks, so the blocks take their values
   independently.  A value v occurs on some concept iff some block can take
   it, iff the largest block has at least need(v) objects.

Hence the logic is valid iff every value v with need(v) <= the largest
block has exactly one label.  These realisable values are the cases,
evaluated in the fixed order T, U, F, sT, K, sF, fK: by need(v), ties in
the order of `TruthValue`.  The first case with no label or several is
lifted to a witness concept by `partition.Partition.lift`: the construction
of step 2 on the first smallest block that can take the value, with
every object outside that block negative.  On that concept the block's
objects have no single label, so the per-concept check that the
enumerator runs finds the overlap or the uncovered objects.  Every other
block meets only B and takes F, so by step 1 no evaluation is needed to
find them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from ._record import FrozenRecord
from .regions import BOUNDARY, NEGATIVE, POSITIVE
from .partition import mask_of
from .values import (  # the logics themselves; these names stay importable from here
    BASE_SYMBOLS,
    LogicSpec,
    TruthValue,
    ValueDef,
    builtin_logic,
    builtin_logics,
    single_label,
)

if TYPE_CHECKING:  # the mask layer is imported where it is used
    from .orthopair import Orthopair
    from .partition import Partition
    from .universe import KnowledgeBase, ObjectSet, Universe


class LogicAssignment(FrozenRecord):
    """Evaluated derived-value sets of one concept under one logic."""

    __slots__ = ("logic", "parts")

    def __init__(self, logic: LogicSpec, parts: dict[str, ObjectSet]) -> None:
        object.__setattr__(self, "logic", logic)
        object.__setattr__(self, "parts", parts)

    def __getitem__(self, label: str) -> ObjectSet:
        return self.parts[label]

    def labels_of(self, name: str) -> tuple[str, ...]:
        return tuple(label for label in self.logic.labels() if name in self.parts[label])

    def value_of(self, name: str) -> str:
        return single_label(name, self.labels_of(name))

    def counts(self) -> dict[str, int]:
        return {label: len(self.parts[label]) for label in self.logic.labels()}


def evaluate_logic(kb: KnowledgeBase, p: Orthopair, spec: LogicSpec) -> LogicAssignment:
    """Each derived value of the spec on concept p, as the union of its
    upward parts intersected with the union of its downward parts, from
    rough approximations (`sevenvalued.upward_part`, `downward_part`)."""
    from .sevenvalued import downward_part, upward_part

    parts = {}
    for vdef in spec.values:
        result = None
        for symbols, aggregate in ((vdef.up, upward_part), (vdef.down, downward_part)):
            if symbols:
                acc = kb.universe.empty()
                for symbol in symbols:
                    acc = acc | aggregate(kb, p, TruthValue(symbol))
                result = acc if result is None else result & acc
        parts[vdef.label] = result
    return LogicAssignment(spec, parts)


class LogicValidation(NamedTuple):
    """Outcome of checking disjointness and coverage over all concepts.  As
    in `axioms.AxiomReport`, an invalid verdict's masks index the `objects`
    of its `universe`: the partition checked, or kb's universe (the oracle).
    The records keep raw masks; `verdicts.logic_entry` names the objects."""

    logic: str
    status: str  # "valid" | "invalid"
    checked: int
    witness: tuple[int, int] | None = None
    overlap: tuple[str, str, int] | None = None
    uncovered: int | None = None
    universe: Partition | Universe | None = None
    covers: tuple[int, int] | None = None  # a valid verdict's: base^exponent concepts


def _partition_failure(kb: KnowledgeBase, spec: LogicSpec, p: Orthopair) -> dict:
    """How the derived values fail to partition U on concept p: the first
    overlap between two of them, in spec order, else the uncovered objects,
    as masks keyed as in a LogicValidation; empty when they partition U."""
    assignment = evaluate_logic(kb, p, spec)
    covered = 0
    for i, vdef in enumerate(spec.values):
        s = assignment[vdef.label].bits
        if covered & s:
            for other in spec.values[:i]:
                shared = assignment[other.label].bits & s
                if shared:
                    return {"overlap": (other.label, vdef.label, shared)}
        covered |= s
    if covered != kb.universe.full_mask:
        return {"uncovered": kb.universe.full_mask ^ covered}
    return {}


# The cases of `validate_logic`, in evaluation order: by need(v), the
# popcount of the value's region flag.
_CASE_ORDER = tuple(sorted(TruthValue, key=lambda v: v.flag.bit_count()))


def _witness_block(block_sizes: Sequence[int], value: TruthValue) -> int:
    """The first smallest block that can take `value`: one with at least
    need(value) objects."""
    need = value.flag.bit_count()
    return min((b for b, size in enumerate(block_sizes) if size >= need),
               key=block_sizes.__getitem__)


def _invalid(spec: LogicSpec, labels_of: dict[TruthValue, tuple[str, ...]],
             partition: Partition, value: TruthValue, checked: int) -> LogicValidation:
    """The verdict of the failing case `value`: its witness concept, and on
    it the first overlap in spec order, or else the uncovered objects, as
    `_partition_failure` finds them.  The witness block's first objects go
    one into each region of the value, in the order positive, negative,
    boundary (`Partition.lift`).  A derived value holds the witness block
    if its label is in `labels_of[value]`, the others if in that of F."""
    rows = partition.rows(_witness_block(partition.block_sizes, value))
    regions = [(r,) for r in (POSITIVE, NEGATIVE, BOUNDARY) if value.flag & r]
    ((positive, negative),) = partition.lift(rows, regions)
    size = len(partition.objects)
    inside = mask_of(rows, size)
    full = (1 << size) - 1
    held: list[tuple[str, int]] = []  # each derived value's objects, in spec order
    covered = 0
    for label in spec.labels():
        s = (inside if label in labels_of[value] else 0) | (
            full ^ inside if label in labels_of[TruthValue.FALSE] else 0)
        if covered & s:
            other, t = next((other, t) for other, t in held if t & s)
            failure = {"overlap": (other, label, t & s)}
            break
        held.append((label, s))
        covered |= s
    else:
        failure = {"uncovered": full ^ covered}
    return LogicValidation(spec.name, "invalid", checked, (positive, negative),
                           universe=partition, **failure)


def validate_blocks(
    spec: LogicSpec, labels_of: dict[TruthValue, tuple[str, ...]], partition: Partition
) -> LogicValidation:
    """Decide whether the logic partitions U for every orthopair over a
    partition: the one engine of `validate-logic` and `validate_logic`.

    `labels_of` is `spec.value_table()`, computed once by the caller.
    Exact, by the rule in the module docstring: each base value the largest
    block can take is a case, and the logic is valid iff each case has
    exactly one label.  So a verdict is always exact, and counts the cases
    evaluated: a valid one all, covering the 3^|U| concepts; an invalid one
    up to the failure, with its witness concept.
    """
    largest = max(partition.block_sizes)
    cases = [value for value in _CASE_ORDER if value.flag.bit_count() <= largest]
    for checked, value in enumerate(cases, 1):
        if len(labels_of[value]) != 1:
            return _invalid(spec, labels_of, partition, value, checked)
    return LogicValidation(spec.name, "valid", len(cases), covers=(3, len(partition.objects)))


def validate_logic(kb: KnowledgeBase, spec: LogicSpec) -> LogicValidation:
    """Decide whether the logic partitions U for every orthopair over kb:
    `validate_blocks` on `kb.partition()`."""
    return validate_blocks(spec, spec.value_table(), kb.partition())


def _validate_brute(kb: KnowledgeBase, spec: LogicSpec) -> LogicValidation:
    """Check every one of the 3^|U| orthopairs over kb, in enumeration
    order; the oracle of `validate_logic`."""
    from .sweep import all_orthopairs

    checked = 0
    for p in all_orthopairs(kb.universe):
        checked += 1
        failure = _partition_failure(kb, spec, p)
        if failure:
            return LogicValidation(spec.name, "invalid", checked,
                                   (p.positive.bits, p.negative.bits),
                                   universe=kb.universe, **failure)
    return LogicValidation(spec.name, "valid", checked, covers=(3, kb.universe.size))


_BELNAP_FROM_ARGUMENTS = {
    (True, False): "T_B",
    (False, False): "U_B",
    (True, True): "K_B",
    (False, True): "F_B",
}


def belnap_from_arguments(kb: KnowledgeBase, p: Orthopair, name: str) -> str:
    """Belnap value of one object from its arguments for truth and falsehood.

    Membership of the object's class in the upper approximation of the
    positive region argues for truth, of the negative region for falsehood.
    """
    i = kb.universe.index(name)
    for_truth = bool(kb.upper_mask(p.positive.bits) >> i & 1)
    for_false = bool(kb.upper_mask(p.negative.bits) >> i & 1)
    return _BELNAP_FROM_ARGUMENTS[(for_truth, for_false)]
