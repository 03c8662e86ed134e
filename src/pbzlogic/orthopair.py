"""Disjoint-pair concepts over a universe and the lattice operations on them.

An orthopair holds a positive region (certainly in the concept) and a
negative region (certainly out); the rest of the universe is the boundary.
The operations here are the meet, join, Kleene and Brouwer negations and
the lower-approximation (Pawlak) operator.  `eval_term` evaluates a
composite operator term on an orthopair through the term language of
`terms` (`terms.compile_term`), which works on raw mask pairs, as the
axioms do.
"""

from __future__ import annotations

from typing import Iterable

from ._record import FrozenRecord
from .terms import compile_term
from .universe import KnowledgeBase, ObjectSet, Universe, UniverseMismatchError


class Orthopair(FrozenRecord):
    """Pair of disjoint object sets over one universe."""

    __slots__ = ("positive", "negative")

    def __init__(self, positive: ObjectSet, negative: ObjectSet) -> None:
        if positive.universe != negative.universe:
            raise UniverseMismatchError("orthopair components over different universes")
        if positive.bits & negative.bits:
            raise ValueError("positive and negative regions must be disjoint")
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)

    @classmethod
    def from_names(
        cls, universe: Universe, positive: Iterable[str], negative: Iterable[str]
    ) -> "Orthopair":
        return cls(universe.subset(positive), universe.subset(negative))

    @property
    def universe(self) -> Universe:
        return self.positive.universe

    @property
    def boundary(self) -> ObjectSet:
        return ~(self.positive | self.negative)

    def _check(self, other: "Orthopair") -> None:
        if other.universe != self.universe:
            raise UniverseMismatchError("orthopairs belong to different universes")

    def __repr__(self) -> str:
        return f"<{self.positive!r}, {self.negative!r}>"


def bottom(universe: Universe) -> Orthopair:
    """The least element: everything certainly out."""
    return Orthopair(universe.empty(), universe.full())


def top(universe: Universe) -> Orthopair:
    """The greatest element: everything certainly in."""
    return Orthopair(universe.full(), universe.empty())


def meet(p: Orthopair, q: Orthopair) -> Orthopair:
    p._check(q)
    return Orthopair(p.positive & q.positive, p.negative | q.negative)


def join(p: Orthopair, q: Orthopair) -> Orthopair:
    p._check(q)
    return Orthopair(p.positive | q.positive, p.negative & q.negative)


def kleene(p: Orthopair) -> Orthopair:
    """Kleene negation: swap the two regions."""
    return Orthopair(p.negative, p.positive)


def brouwer(p: Orthopair) -> Orthopair:
    """Brouwer negation: the negative region against its complement."""
    return Orthopair(p.negative, ~p.negative)


def pawlak(kb: KnowledgeBase, p: Orthopair) -> Orthopair:
    """Replace both regions by their lower approximations."""
    if kb.universe != p.universe:
        raise UniverseMismatchError("orthopair over a different universe than the knowledge base")
    return Orthopair(kb.lower(p.positive), kb.lower(p.negative))


def leq(p: Orthopair, q: Orthopair) -> bool:
    """Induced lattice order: p <= q iff p equals the meet of p and q."""
    return meet(p, q) == p


def eval_term(kb: KnowledgeBase, p: Orthopair, term: str) -> Orthopair:
    """Evaluate a composite operator term against p.

    A term is either a bare postfix word over the alphabet ``-`` (Kleene),
    ``~`` (Brouwer) and ``L`` (lower approximation), applied left to right,
    or an expression combining such words with ``&`` (meet), ``|`` (join)
    and parentheses.  Inside expressions the concept is written ``a``
    (``0``/``1`` are the bounds) and words attach as suffixes, e.g.
    ``a^~L~ & (a^~- & a^-~-)^L~-``.  The term is compiled once
    (`terms.compile_term`, which also compiles the axioms' equations) and
    evaluated on p's two masks under kb's standard operators, built once
    per knowledge base (`KnowledgeBase.ops`).
    """
    if kb.universe != p.universe:
        raise UniverseMismatchError("orthopair over a different universe than the knowledge base")
    pos, neg = compile_term(term)(kb.ops, (p.positive.bits, p.negative.bits))
    return Orthopair(ObjectSet(p.universe, pos), ObjectSet(p.universe, neg))
