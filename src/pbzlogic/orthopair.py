"""Disjoint-pair concepts over a universe and the lattice operations on them.

An orthopair holds a positive region (certainly in the concept) and a
negative region (certainly out); the rest of the universe is the boundary.
The operations here are the meet, join, Kleene and Brouwer negations and
the lower-approximation (Pawlak) operator, plus a small evaluator for
composite operator terms.
"""

from __future__ import annotations

from typing import Iterable

from ._record import FrozenRecord
from .universe import KnowledgeBase, ObjectSet, Universe, UniverseMismatchError


class TermError(ValueError):
    """Malformed operator term."""


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


_WORD_CHARS = frozenset("-~L")


def _apply_word(kb: KnowledgeBase, p: Orthopair, word: str) -> Orthopair:
    for ch in word:
        if ch == "-":
            p = kleene(p)
        elif ch == "~":
            p = brouwer(p)
        elif ch == "L":
            p = pawlak(kb, p)
        else:
            raise TermError(f"unknown operator {ch!r} in word {word!r}")
    return p


def eval_term(kb: KnowledgeBase, p: Orthopair, term: str) -> Orthopair:
    """Evaluate a composite operator term against p.

    A term is either a bare postfix word over the alphabet ``-`` (Kleene),
    ``~`` (Brouwer) and ``L`` (lower approximation), applied left to right,
    or an expression combining such words with ``&`` (meet), ``|`` (join)
    and parentheses.  Inside expressions the concept is written ``a``
    (``0``/``1`` are the bounds) and words attach as suffixes, e.g.
    ``a^~L~ & (a^~- & a^-~-)^L~-``.
    """
    if kb.universe != p.universe:
        raise UniverseMismatchError("orthopair over a different universe than the knowledge base")
    text = term.replace(" ", "")
    if all(ch in _WORD_CHARS for ch in text):
        return _apply_word(kb, p, text)
    return _TermParser(text, kb, p).parse()


class _TermParser:
    def __init__(self, text: str, kb: KnowledgeBase, p: Orthopair):
        self.text = text
        self.kb = kb
        self.p = p
        self.pos = 0

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Orthopair:
        value = self._expr()
        if self.pos != len(self.text):
            raise TermError(f"trailing input at position {self.pos} in {self.text!r}")
        return value

    def _expr(self) -> Orthopair:
        value = self._meet()
        while self._peek() == "|":
            self.pos += 1
            value = join(value, self._meet())
        return value

    def _meet(self) -> Orthopair:
        value = self._atom()
        while self._peek() == "&":
            self.pos += 1
            value = meet(value, self._atom())
        return value

    def _atom(self) -> Orthopair:
        ch = self._peek()
        if ch == "a":
            self.pos += 1
            base = self.p
        elif ch == "0":
            self.pos += 1
            base = bottom(self.p.universe)
        elif ch == "1":
            self.pos += 1
            base = top(self.p.universe)
        elif ch == "(":
            self.pos += 1
            base = self._expr()
            if self._peek() != ")":
                raise TermError(f"missing ')' at position {self.pos} in {self.text!r}")
            self.pos += 1
        else:
            raise TermError(f"unexpected {ch!r} at position {self.pos} in {self.text!r}")
        return _apply_word(self.kb, base, self._word())

    def _word(self) -> str:
        if self._peek() == "^":
            self.pos += 1
            if self._peek() not in _WORD_CHARS:
                raise TermError(f"empty word after '^' in {self.text!r}")
        start = self.pos
        while self._peek() in _WORD_CHARS:
            self.pos += 1
        return self.text[start : self.pos]
