"""Seven truth parts of a concept, per-object classification, and aggregations.

Each object of the universe falls into exactly one of seven parts of a
concept, according to how its equivalence class meets the positive region,
the negative region and the boundary.  Every part can be computed three
ways: directly from the blocks (classwise), from rough-approximation
formulas, or by evaluating a lattice operator term; the three must agree.

The mask layer (`universe`, `orthopair`) is imported where it is used, so
that the `classify` command, which needs only `TruthValue` and
`_TRIPLE_TO_VALUE`, never loads it.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from ._record import FrozenRecord

if TYPE_CHECKING:
    from .orthopair import Orthopair
    from .universe import KnowledgeBase, ObjectSet


class TruthValue(Enum):
    TRUE = "T"
    SOMETIMES_TRUE = "sT"
    UNKNOWN = "U"
    CONTRADICTORY = "K"
    FULLY_CONTRADICTORY = "fK"
    SOMETIMES_FALSE = "sF"
    FALSE = "F"

    @property
    def symbol(self) -> str:
        return self.value

    @classmethod
    def from_symbol(cls, symbol: str) -> "TruthValue":
        return cls(symbol)

    def mirror(self) -> "TruthValue":
        """Swap true-side and false-side values; U, K, fK are self-mirrored."""
        return _MIRROR[self]


_V = TruthValue

_MIRROR = {
    _V.TRUE: _V.FALSE,
    _V.SOMETIMES_TRUE: _V.SOMETIMES_FALSE,
    _V.UNKNOWN: _V.UNKNOWN,
    _V.CONTRADICTORY: _V.CONTRADICTORY,
    _V.FULLY_CONTRADICTORY: _V.FULLY_CONTRADICTORY,
    _V.SOMETIMES_FALSE: _V.SOMETIMES_TRUE,
    _V.FALSE: _V.TRUE,
}

# Rank in the truth-value order; U, K and fK share a rank and are
# pairwise incomparable.  Only the order needed by the aggregations is
# committed to.
_RANK = {
    _V.FALSE: 0,
    _V.SOMETIMES_FALSE: 1,
    _V.UNKNOWN: 2,
    _V.CONTRADICTORY: 2,
    _V.FULLY_CONTRADICTORY: 2,
    _V.SOMETIMES_TRUE: 3,
    _V.TRUE: 4,
}


def truth_leq(v: TruthValue, w: TruthValue) -> bool:
    """Partial order on truth values, false-most at the bottom."""
    return v == w or _RANK[v] < _RANK[w]


FORMULATIONS = ("classwise", "approximation", "lattice")

# Base parts aggregated by each upward / downward value.
UPWARD_MEMBERS: dict[TruthValue, tuple[TruthValue, ...]] = {
    _V.TRUE: (_V.TRUE,),
    _V.SOMETIMES_TRUE: (_V.TRUE, _V.SOMETIMES_TRUE),
    _V.UNKNOWN: (_V.TRUE, _V.SOMETIMES_TRUE, _V.UNKNOWN),
    _V.CONTRADICTORY: (_V.TRUE, _V.SOMETIMES_TRUE, _V.CONTRADICTORY),
    _V.FULLY_CONTRADICTORY: (_V.TRUE, _V.SOMETIMES_TRUE, _V.FULLY_CONTRADICTORY),
    _V.SOMETIMES_FALSE: (
        _V.TRUE,
        _V.SOMETIMES_TRUE,
        _V.UNKNOWN,
        _V.CONTRADICTORY,
        _V.FULLY_CONTRADICTORY,
        _V.SOMETIMES_FALSE,
    ),
    _V.FALSE: tuple(_V),
}

DOWNWARD_MEMBERS: dict[TruthValue, tuple[TruthValue, ...]] = {
    v: tuple(m.mirror() for m in UPWARD_MEMBERS[v.mirror()]) for v in _V
}

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
        from .universe import UniverseMismatchError

        raise UniverseMismatchError("orthopair over a different universe than the knowledge base")


def _classwise_mask(kb: KnowledgeBase, p: Orthopair, v: TruthValue) -> int:
    a = p.positive.bits
    b = p.negative.bits
    bd = kb.universe.full_mask & ~a & ~b
    out = 0
    for block in kb.blocks:
        m = block.bits
        hits_a, hits_b, hits_bd = bool(m & a), bool(m & b), bool(m & bd)
        if v is _V.TRUE:
            keep = m & ~a == 0
        elif v is _V.SOMETIMES_TRUE:
            keep = not hits_b and hits_a and hits_bd
        elif v is _V.UNKNOWN:
            keep = m & ~bd == 0
        elif v is _V.CONTRADICTORY:
            keep = not hits_bd and hits_a and hits_b
        elif v is _V.FULLY_CONTRADICTORY:
            keep = hits_a and hits_b and hits_bd
        elif v is _V.SOMETIMES_FALSE:
            keep = not hits_a and hits_b and hits_bd
        else:
            keep = m & ~b == 0
        if keep:
            out |= m
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


def part(
    kb: KnowledgeBase,
    p: Orthopair,
    v: TruthValue,
    formulation: str = "approximation",
) -> ObjectSet:
    """One of the seven base parts of p, under the chosen formulation."""
    from .orthopair import eval_term
    from .universe import ObjectSet

    _check(kb, p)
    if formulation == "classwise":
        return ObjectSet(kb.universe, _classwise_mask(kb, p, v))
    if formulation == "approximation":
        return _approx_part(kb, p, v)
    if formulation == "lattice":
        return eval_term(kb, p, BASE_TERMS[v]).positive
    raise ValueError(f"unknown formulation {formulation!r}")


_TRIPLE_TO_VALUE = {
    (True, False, False): _V.TRUE,
    (True, False, True): _V.SOMETIMES_TRUE,
    (False, False, True): _V.UNKNOWN,
    (True, True, False): _V.CONTRADICTORY,
    (True, True, True): _V.FULLY_CONTRADICTORY,
    (False, True, True): _V.SOMETIMES_FALSE,
    (False, True, False): _V.FALSE,
}


def _signature_value(block: int, a: int, b: int, bd: int) -> TruthValue:
    return _TRIPLE_TO_VALUE[(block & a != 0, block & b != 0, block & bd != 0)]


def block_values(kb: KnowledgeBase, p: Orthopair) -> list[TruthValue]:
    """Truth value of every block of kb, in block order.

    A block's value depends only on its signature: whether it meets the
    positive region, the negative region and the boundary.  Every object
    of a block shares it, so `kb.block_index` gives each object's value.
    Blocks are never empty, so every signature has a value.
    """
    _check(kb, p)
    a = p.positive.bits
    b = p.negative.bits
    bd = kb.universe.full_mask & ~a & ~b
    return [_signature_value(block.bits, a, b, bd) for block in kb.blocks]


def classify(kb: KnowledgeBase, p: Orthopair, name: str) -> TruthValue:
    """Truth value of one object, from how its class meets the three regions."""
    _check(kb, p)
    a = p.positive.bits
    b = p.negative.bits
    bd = kb.universe.full_mask & ~a & ~b
    return _signature_value(kb.block_of(name).bits, a, b, bd)


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


def _aggregate(
    kb: KnowledgeBase,
    p: Orthopair,
    v: TruthValue,
    formulation: str,
    members: dict[TruthValue, tuple[TruthValue, ...]],
    closed_form,
    terms: dict[TruthValue, str],
) -> ObjectSet:
    from .orthopair import eval_term
    from .universe import ObjectSet

    _check(kb, p)
    if formulation == "classwise":
        bits = 0
        for m in members[v]:
            bits |= _classwise_mask(kb, p, m)
        return ObjectSet(kb.universe, bits)
    if formulation == "approximation":
        return closed_form(kb, p, v)
    if formulation == "lattice":
        return eval_term(kb, p, terms[v]).positive
    raise ValueError(f"unknown formulation {formulation!r}")


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
