"""Axiom checks on a mask `KnowledgeBase`, and the brute-force engine.

The library's knowledge-base API: `check_axiom`, `check_all` and
`run_mutation` read a `Partition` off the knowledge base and hand it to the
reduced engine (`axioms.check_blocks`), except where the caller supplies
the operators or the elements, which only the brute engine (`_check_brute`)
can check.  The brute engine enumerates every tuple, up to `MAX_TUPLES` of
them, and refuses a larger request with a ValueError, so its verdict, like
the reduced engine's, is `holds` or `counterexample`.  It is also the
tests' oracle of the reduced engine.  No command imports this module:
`verify` calls the reduced engine directly.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

from .axioms import (
    AXIOMS,
    Axiom,
    AxiomReport,
    _check_builtin,
    _mutate,
    check_blocks,
)
from .sweep import all_orthopair_masks
from .terms import LatticeOps, Pair, standard_ops

if TYPE_CHECKING:
    from .universe import KnowledgeBase

# The most tuples the brute engine enumerates; a larger request is a ValueError.
MAX_TUPLES = 2_000_000


def check_axiom(
    kb: KnowledgeBase,
    axiom_id: str,
    ops: LatticeOps | None = None,
    elements: Sequence[Pair] | None = None,
) -> AxiomReport:
    """Quantify one axiom over the orthopairs of kb's universe.

    Without `ops` and `elements` the reduced engine decides the standard
    operators exactly.  Given either, the brute engine enumerates every
    tuple of them, and more than `MAX_TUPLES` tuples is a ValueError.
    """
    try:
        axiom = AXIOMS[axiom_id]
    except KeyError:
        raise ValueError(f"unknown axiom {axiom_id!r}") from None
    if ops is None and elements is None:
        partition = kb.partition()
        return _check_builtin(axiom, None, max(partition.block_sizes), partition)
    if ops is None:
        ops = standard_ops(kb)
    return _check_brute(kb, axiom, ops, elements)


def _check_brute(kb: KnowledgeBase, axiom: Axiom, ops: LatticeOps,
                 elements: Sequence[Pair] | None) -> AxiomReport:
    """Enumerate every tuple of elements: the given ones, or else the
    orthopairs of kb's universe, which are counted before they are listed.
    More than `MAX_TUPLES` tuples is a ValueError, raised before any is
    evaluated."""
    size, arity = kb.universe.size, axiom.arity
    elems = None if elements is None else list(elements)
    base, exponent = (3, size * arity) if elems is None else (len(elems), arity)
    # base^exponent > MAX_TUPLES, without the power of a huge exponent: from
    # base 2 up, an exponent past the limit's bit length exceeds it
    if base ** min(exponent, MAX_TUPLES.bit_length()) > MAX_TUPLES:
        raise ValueError(f"{axiom.ident}: {base}^{exponent} tuples to enumerate, more than"
                         f" the brute engine's limit of {MAX_TUPLES:,}")
    tuples = itertools.product(
        all_orthopair_masks(size) if elems is None else elems, repeat=arity)
    checked = 0
    for tup in tuples:
        checked += 1
        if not axiom.predicate(ops, *tup):
            return AxiomReport(axiom.ident, "counterexample", checked, tup, kb.universe)
    return AxiomReport(axiom.ident, "holds", checked, None, kb.universe, (base, exponent))


def check_all(
    kb: KnowledgeBase,
    ops: LatticeOps | None = None,
    elements: Sequence[Pair] | None = None,
) -> list[AxiomReport]:
    """Every axiom, as `check_axiom` checks it."""
    if ops is None and elements is None:
        return check_blocks(kb.partition())
    return [check_axiom(kb, ident, ops=ops, elements=elements) for ident in AXIOMS]


def mutated_ops(kb: KnowledgeBase, name: str) -> LatticeOps:
    """kb's standard operators with the one that the named mutation
    replaces.  drop-disjointness replaces none, so it is a ValueError: it
    changes the elements, to every pair of masks, overlapping ones too."""
    return _mutate(standard_ops(kb), name)


def run_mutation(kb: KnowledgeBase, name: str) -> list[AxiomReport]:
    """Every axiom against one documented mutation, decided exactly by the
    reduced engine."""
    return check_blocks(kb.partition(), name)
