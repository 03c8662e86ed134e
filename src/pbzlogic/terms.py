"""The term language over raw orthopairs: operators and compiled terms.

An orthopair is a (positive, negative) bit-mask pair here, and a
`LatticeOps` holds the operators on such pairs.  `compile_term` compiles a
term once into a Python function of those pairs that takes its operators
from a LatticeOps, so the same term runs under the standard operators of a
knowledge base (`standard_ops`) or under any replacement of one of them.
The axioms (`axioms._axiom`) are equations in this syntax, and
`orthopair.eval_term` evaluates a term on an `Orthopair` through it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:  # the mask layer: only `standard_ops` reads it
    from .universe import KnowledgeBase

Pair = tuple[int, int]


class LatticeOps(NamedTuple):
    """Raw orthopair operations over bit masks; the disjointness invariant
    is not enforced at this level.  `lower(mask)` is the lower
    approximation of a mask."""

    full: int
    lower: Callable[[int], int]
    meet: Callable[[Pair, Pair], Pair]
    join: Callable[[Pair, Pair], Pair]
    kleene: Callable[[Pair], Pair]
    brouwer: Callable[[Pair], Pair]
    pawlak: Callable[[Pair], Pair]

    @property
    def bottom(self) -> Pair:
        return (0, self.full)

    @property
    def top(self) -> Pair:
        return (self.full, 0)

    def upper(self, mask: int) -> int:
        return self.full ^ self.lower(self.full ^ mask)

    def leq(self, p: Pair, q: Pair) -> bool:
        return self.meet(p, q) == p


def standard_ops(kb: KnowledgeBase) -> LatticeOps:
    """The standard operators of kb; each lower approximation is computed
    by a block scan when first asked for, so nothing is built in 2^|U|."""
    return _ops(kb.universe.full_mask, _Memo(kb.lower_mask).__getitem__)


class _Memo(dict):
    """The values of `fn`, each computed on its first lookup: a bound
    `__getitem__` is a faster memo than `functools.cache`."""

    def __init__(self, fn: Callable[[int], int]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key: int) -> int:
        value = self[key] = self.fn(key)
        return value


def _ops(full: int, lower: Callable[[int], int]) -> LatticeOps:
    """The standard operators on masks within `full`, with `lower` as the
    lower approximation."""

    def meet(p: Pair, q: Pair) -> Pair:
        return (p[0] & q[0], p[1] | q[1])

    def join(p: Pair, q: Pair) -> Pair:
        return (p[0] | q[0], p[1] & q[1])

    def kleene(p: Pair) -> Pair:
        return (p[1], p[0])

    def brouwer(p: Pair) -> Pair:
        return (p[1], full ^ p[1])

    def pawlak(p: Pair) -> Pair:
        return (lower(p[0]), lower(p[1]))

    return LatticeOps(full, lower, meet, join, kleene, brouwer, pawlak)


class TermError(ValueError):
    """Malformed operator term."""


# The letters of a postfix word and the LatticeOps operator each applies.
_WORD_OPS = {"-": "kleene", "~": "brouwer", "L": "pawlak"}


class _Parser:
    """Recursive descent over terms and equations, writing each one as a
    Python expression in the operators `o` of a LatticeOps.

    formula   := relations ["=>" relations]
    relations := relation {"," relation}
    relation  := term ("=" | "<=") term
    term      := meet {"|" meet}
    meet      := atom {"&" atom}
    atom      := (variable | "0" | "1" | "(" term ")") ["^"] {"-" | "~" | "L"}
    """

    def __init__(self, text: str, variables: str) -> None:
        self.text = text.replace(" ", "")
        self.pos = 0
        self.atoms = {"0": "o.bottom", "1": "o.top", **{v: v for v in variables}}

    def _accept(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def _error(self, what: str) -> TermError:
        return TermError(f"{what} at position {self.pos} in {self.text!r}")

    def parse(self, rule: Callable[[], str], params: str) -> Callable:
        """`lambda o, <params>: <code>` of the code that `rule` writes for the
        whole text.  The code holds only names that the parser writes, never
        text of its input, and sees no builtins.  A term nested past the
        recursion limit, or past the compiler's nesting limit in the code
        (200 calls deep), is a TermError."""
        try:
            code = rule()
            if self.pos != len(self.text):
                raise self._error("trailing input")
            return eval(f"lambda {', '.join(('o', *params))}: {code}", {"__builtins__": {}})
        except (RecursionError, SyntaxError):
            raise TermError(f"term nested too deeply: {self.text!r}") from None

    def formula(self) -> str:
        code = self._relations()
        if self._accept("=>"):
            code = f"not ({code}) or ({self._relations()})"
        return code

    def _relations(self) -> str:
        code = self._relation()
        while self._accept(","):
            code += " and " + self._relation()
        return code

    def _relation(self) -> str:
        left = self.term()
        if self._accept("<="):
            return f"o.leq({left}, {self.term()})"
        if not self.text.startswith("=>", self.pos) and self._accept("="):
            return f"{left} == {self.term()}"
        raise self._error("expected '=' or '<='")

    def term(self) -> str:
        code = self._meet()
        while self._accept("|"):
            code = f"o.join({code}, {self._meet()})"
        return code

    def _meet(self) -> str:
        code = self._atom()
        while self._accept("&"):
            code = f"o.meet({code}, {self._atom()})"
        return code

    def _atom(self) -> str:
        ch = self.text[self.pos : self.pos + 1]
        if self._accept("("):
            code = self.term()
            if not self._accept(")"):
                raise self._error("missing ')'")
        elif ch in self.atoms:
            self.pos += 1
            code = self.atoms[ch]
        else:
            raise self._error(f"unexpected {ch!r}")
        if self._accept("^") and self.text[self.pos : self.pos + 1] not in _WORD_OPS:
            raise self._error("empty word after '^'")
        while (ch := self.text[self.pos : self.pos + 1]) in _WORD_OPS:
            self.pos += 1
            code = f"o.{_WORD_OPS[ch]}({code})"
        return code


@functools.lru_cache(maxsize=256)
def compile_term(term: str) -> Callable[[LatticeOps, Pair], Pair]:
    """The function (ops, a) -> pair that a term in the one variable `a`
    computes; a bare word over ``-``, ``~`` and ``L`` means ``a^word``."""
    text = term.replace(" ", "")
    if all(ch in _WORD_OPS for ch in text):
        text = "a" + text
    parser = _Parser(text, "a")
    return parser.parse(parser.term, "a")
