"""The seven parts of a concept over a knowledge base, three ways.

Each object of the universe falls into exactly one of seven parts of a
concept: the one of its block's value (`values.TruthValue`, the set of
regions its block meets, as a 3-bit flag).  A base part, an upward or
downward aggregation and a derived value of a logic each hold the objects
whose value is in a 7-bit member mask (`values.UPWARD_MEMBERS`,
`DOWNWARD_MEMBERS`, `ValueDef.members`).

Every part and aggregation can be computed three ways, by the one
dispatcher `_aggregate`: directly from the blocks whose flag is in its
member mask (classwise), from rough-approximation formulas, or by
evaluating a lattice operator term; the three must agree.  They are the
paper's cross-checks, and no command runs them: `classify` takes each
block's value from the flag its table ingest ORs together, through
`values` alone.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .orthopair import Orthopair, eval_term
from .regions import BOUNDARY, NEGATIVE, POSITIVE
from .universe import KnowledgeBase, ObjectSet, UniverseMismatchError
from .values import (  # the values; these names stay importable from here
    BY_FLAG,
    DOWNWARD_MEMBERS,
    UPWARD_MEMBERS,
    TruthValue,
    truth_leq,
)

_V = TruthValue

FORMULATIONS = ("classwise", "approximation", "lattice")

# Member masks of the base parts: each holds its own value.
_BASE_MEMBERS: dict[TruthValue, int] = {v: 1 << v.flag for v in _V}

# Lattice operator terms for the base parts (suffix words read left to
# right: '-' Kleene, '~' Brouwer, 'L' lower approximation).
BASE_TERMS: dict[TruthValue, str] = {
    _V.TRUE: "L-~",
    _V.SOMETIMES_TRUE: "a^~L~ & (a^~- & a^-~-)^L~- & a^-~L~-",
    _V.UNKNOWN: "(a^~- & a^-~-)^L-~",
    _V.CONTRADICTORY: "(a | a^-)^L-~ & a^-~L~- & a^~L~-",
    _V.FULLY_CONTRADICTORY: "a^-~L~- & a^~L~- & (a^~- & a^-~-)^L~-",
    _V.SOMETIMES_FALSE: "a^-~L~ & (a^~- & a^-~-)^L~- & a^~L~-",
    _V.FALSE: "L~",
}

UPWARD_TERMS: dict[TruthValue, str] = {
    _V.TRUE: "L-~",
    _V.SOMETIMES_TRUE: "a^~L~ & a^-~L~-",
    _V.UNKNOWN: "~L~",
    _V.CONTRADICTORY: "((a | a^-)^L-~ | a^~L~) & a^-~L~-",
    _V.FULLY_CONTRADICTORY: "a^L-~ | (a^-~L~- & (a^~- & a^-~-)^L~-)",
    _V.SOMETIMES_FALSE: "L~-",
    _V.FALSE: "1",
}

DOWNWARD_TERMS: dict[TruthValue, str] = {
    _V.FALSE: "L~",
    _V.SOMETIMES_FALSE: "a^-~L~ & a^~L~-",
    _V.UNKNOWN: "-~L~",
    _V.CONTRADICTORY: "((a | a^-)^L-~ | a^-~L~) & a^~L~-",
    _V.FULLY_CONTRADICTORY: "a^L~ | (a^~L~- & (a^~- & a^-~-)^L~-)",
    _V.SOMETIMES_TRUE: "L-~-",
    _V.TRUE: "1",
}


def _check(kb: KnowledgeBase, p: Orthopair) -> None:
    if kb.universe != p.universe:
        raise UniverseMismatchError("orthopair over a different universe than the knowledge base")


def _regions(kb: KnowledgeBase, p: Orthopair) -> tuple[int, int, int]:
    """The masks of p's positive region, negative region and boundary."""
    a = p.positive.bits
    b = p.negative.bits
    return a, b, kb.universe.full_mask & ~a & ~b


def _flag(block: int, a: int, b: int, bd: int) -> int:
    """The region flag of a block mask: the regions it meets."""
    return ((POSITIVE if block & a else 0) | (NEGATIVE if block & b else 0)
            | (BOUNDARY if block & bd else 0))


def _classwise_mask(kb: KnowledgeBase, p: Orthopair, members: int) -> int:
    """The blocks whose region flag's bit is set in the member mask."""
    a, b, bd = _regions(kb, p)
    out = 0
    for block in kb.blocks:
        if members >> _flag(block.bits, a, b, bd) & 1:
            out |= block.bits
    return out


def _approx_part(kb: KnowledgeBase, p: Orthopair, v: TruthValue) -> ObjectSet:
    a, b = p.positive, p.negative
    bd = p.boundary
    if v is _V.TRUE:
        return kb.lower(a)
    if v is _V.SOMETIMES_TRUE:
        return kb.lower(~b) & kb.upper(a) & kb.upper(bd)
    if v is _V.UNKNOWN:
        return kb.lower(bd)
    if v is _V.CONTRADICTORY:
        return kb.lower(a | b) & kb.upper(a) & kb.upper(b)
    if v is _V.FULLY_CONTRADICTORY:
        return kb.upper(a) & kb.upper(b) & kb.upper(bd)
    if v is _V.SOMETIMES_FALSE:
        return kb.lower(~a) & kb.upper(b) & kb.upper(bd)
    return kb.lower(b)


def _aggregate(
    kb: KnowledgeBase,
    p: Orthopair,
    v: TruthValue,
    formulation: str,
    members: dict[TruthValue, int],
    closed_form,
    terms: dict[TruthValue, str],
) -> ObjectSet:
    """The objects of p whose base value is in the member mask `members[v]`,
    by one formulation: the blocks whose flag is in the mask (classwise),
    `closed_form` (approximation) or the lattice term `terms[v]`.
    """
    _check(kb, p)
    if formulation == "classwise":
        return ObjectSet(kb.universe, _classwise_mask(kb, p, members[v]))
    if formulation == "approximation":
        return closed_form(kb, p, v)
    if formulation == "lattice":
        return eval_term(kb, p, terms[v]).positive
    raise ValueError(f"unknown formulation {formulation!r}")


def part(
    kb: KnowledgeBase,
    p: Orthopair,
    v: TruthValue,
    formulation: str = "approximation",
) -> ObjectSet:
    """One of the seven base parts of p, under the chosen formulation."""
    return _aggregate(kb, p, v, formulation, _BASE_MEMBERS, _approx_part, BASE_TERMS)


def block_values(kb: KnowledgeBase, p: Orthopair) -> list[TruthValue]:
    """Truth value of every block of kb, in block order.

    A block's value depends only on its region flag: whether it meets the
    positive region, the negative region and the boundary.  Every object
    of a block shares it, so `kb.block_index` gives each object's value.
    Blocks are never empty, so every flag names a value.
    """
    _check(kb, p)
    a, b, bd = _regions(kb, p)
    return [BY_FLAG[_flag(block.bits, a, b, bd)] for block in kb.blocks]


def classify(kb: KnowledgeBase, p: Orthopair, name: str) -> TruthValue:
    """Truth value of one object, from how its class meets the three regions."""
    _check(kb, p)
    return BY_FLAG[_flag(kb.block_of(name).bits, *_regions(kb, p))]


class SevenPartition(FrozenRecord):
    """The seven parts of one concept; pairwise disjoint and covering U."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[TruthValue, ObjectSet]) -> None:
        object.__setattr__(self, "parts", parts)

    def __getitem__(self, v: TruthValue) -> ObjectSet:
        return self.parts[v]

    def value_of(self, name: str) -> TruthValue:
        for v, s in self.parts.items():
            if name in s:
                return v
        raise KeyError(name)

    def counts(self) -> dict[str, int]:
        return {v.symbol: len(self.parts[v]) for v in TruthValue}


def seven_partition(
    kb: KnowledgeBase, p: Orthopair, formulation: str = "approximation"
) -> SevenPartition:
    _check(kb, p)
    parts = {v: part(kb, p, v, formulation) for v in TruthValue}
    covered = 0
    for s in parts.values():
        if covered & s.bits:
            raise RuntimeError("seven parts overlap; internal invariant violated")
        covered |= s.bits
    if covered != kb.universe.full_mask:
        raise RuntimeError("seven parts do not cover the universe; internal invariant violated")
    return SevenPartition(parts)


def _upward_closed_form(kb: KnowledgeBase, p: Orthopair, v: TruthValue) -> ObjectSet:
    a, b = p.positive, p.negative
    bd = p.boundary
    if v is _V.TRUE:
        return kb.lower(a)
    if v is _V.SOMETIMES_TRUE:
        return kb.lower(~b) & kb.upper(a)
    if v is _V.UNKNOWN:
        return kb.lower(~b)
    if v is _V.CONTRADICTORY:
        return (kb.lower(a | b) | kb.lower(~b)) & kb.upper(a)
    if v is _V.FULLY_CONTRADICTORY:
        return kb.lower(a) | (kb.upper(a) & kb.upper(bd))
    if v is _V.SOMETIMES_FALSE:
        return kb.upper(~b)
    return kb.universe.full()


def _downward_closed_form(kb: KnowledgeBase, p: Orthopair, v: TruthValue) -> ObjectSet:
    a, b = p.positive, p.negative
    bd = p.boundary
    if v is _V.FALSE:
        return kb.lower(b)
    if v is _V.SOMETIMES_FALSE:
        return kb.lower(~a) & kb.upper(b)
    if v is _V.UNKNOWN:
        return kb.lower(~a)
    if v is _V.CONTRADICTORY:
        return (kb.lower(a | b) | kb.lower(~a)) & kb.upper(b)
    if v is _V.FULLY_CONTRADICTORY:
        return kb.lower(b) | (kb.upper(b) & kb.upper(bd))
    if v is _V.SOMETIMES_TRUE:
        return kb.upper(~a)
    return kb.universe.full()


def upward_part(
    kb: KnowledgeBase,
    p: Orthopair,
    v: TruthValue,
    formulation: str = "approximation",
) -> ObjectSet:
    """The "at least v" part: union of v's part with every truer part."""
    return _aggregate(
        kb, p, v, formulation, UPWARD_MEMBERS, _upward_closed_form, UPWARD_TERMS
    )


def downward_part(
    kb: KnowledgeBase,
    p: Orthopair,
    v: TruthValue,
    formulation: str = "approximation",
) -> ObjectSet:
    """The "at most v" part: union of v's part with every falser part."""
    return _aggregate(
        kb, p, v, formulation, DOWNWARD_MEMBERS, _downward_closed_form, DOWNWARD_TERMS
    )
