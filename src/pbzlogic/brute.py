"""Axiom checks on a mask `KnowledgeBase`, and the brute-force engine.

The library's knowledge-base API: `check_axiom`, `check_all` and
`run_mutation` read a `Partition` off the knowledge base and hand it to the
reduced engine (`axioms.check_blocks`), except where the caller supplies
the operators or the elements, which only the brute engine (`_check_brute`)
can check.  Only the brute engine takes a budget, the most tuples it
enumerates before it samples, and only it can answer undecided.  It is
also the tests' oracle of the reduced engine.  No command imports this
module: `verify` calls the reduced engine directly.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Sequence

from .axioms import (
    AXIOMS,
    Axiom,
    AxiomReport,
    _check_builtin,
    _largest_block,
    _mutate,
    _pairs,
    check_blocks,
)
from .sweep import all_orthopair_masks
from .terms import LatticeOps, Pair, standard_ops

if TYPE_CHECKING:
    from .universe import KnowledgeBase

# The most tuples the brute engine enumerates before it samples instead.
DEFAULT_BUDGET = 2_000_000


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"the budget must be at least 1, got {budget}")


def check_axiom(
    kb: KnowledgeBase,
    axiom_id: str,
    budget: int = DEFAULT_BUDGET,
    ops: LatticeOps | None = None,
    elements: Sequence[Pair] | None = None,
    seed: int = 0,
) -> AxiomReport:
    """Quantify one axiom over the orthopairs of kb's universe.

    Without `ops` and `elements` the reduced engine decides the standard
    operators exactly.  Given either, the brute engine runs on them: it
    enumerates every tuple when there are at most `budget` of them, and
    otherwise samples `budget` tuples, driven by `seed`, and a sample with
    no failure is undecided.  The budget applies only then, but one below 1
    is always a ValueError.
    """
    try:
        axiom = AXIOMS[axiom_id]
    except KeyError:
        raise ValueError(f"unknown axiom {axiom_id!r}") from None
    _check_budget(budget)
    if ops is None and elements is None:
        partition = kb.partition()
        return _check_builtin(axiom, None, _largest_block(partition), partition)
    if ops is None:
        ops = standard_ops(kb)
    return _check_brute(kb, axiom, budget, ops, elements, seed)


def _check_brute(kb: KnowledgeBase, axiom: Axiom, budget: int, ops: LatticeOps,
                 elements: Sequence[Pair] | None, seed: int) -> AxiomReport:
    """Enumerate (or, over budget, sample) every tuple of elements: the
    given ones, or else the orthopairs of kb's universe, which are counted
    and sampled without being listed."""
    import random  # here, so that a run that never samples does not load it

    size, arity = kb.universe.size, axiom.arity
    elems = None if elements is None else list(elements)
    base, exponent = (3, size * arity) if elems is None else (len(elems), arity)
    # base^exponent <= budget: from base 2 up, an exponent past the budget's
    # bit length exceeds it
    exact = base ** min(exponent, budget.bit_length()) <= budget
    if exact:
        tuples: Iterable[tuple[Pair, ...]] = itertools.product(
            all_orthopair_masks(size) if elems is None else elems, repeat=arity)
    else:
        rng = random.Random(seed)
        # an orthopair tuple drawn uniformly gives each object a uniform type
        types = list(itertools.product(range(3), repeat=arity))
        tuples = (
            _pairs(rng.choices(types, k=size), range(size), arity) if elems is None
            else tuple(rng.choice(elems) for _ in range(arity))
            for _ in range(budget)
        )
    checked = 0
    for tup in tuples:
        checked += 1
        if not axiom.predicate(ops, *tup):
            return AxiomReport(axiom.ident, "counterexample", checked, tup, kb.universe)
    status, covers = ("holds", (base, exponent)) if exact else ("undecided", None)
    return AxiomReport(axiom.ident, status, checked, None, kb.universe, covers)


def check_all(
    kb: KnowledgeBase,
    budget: int = DEFAULT_BUDGET,
    ops: LatticeOps | None = None,
    elements: Sequence[Pair] | None = None,
    seed: int = 0,
) -> list[AxiomReport]:
    """Every axiom, as `check_axiom` checks it: the budget applies only when
    `ops` or `elements` are given."""
    _check_budget(budget)
    if ops is None and elements is None:
        return check_blocks(kb.partition())
    return [
        check_axiom(kb, ident, budget=budget, ops=ops, elements=elements, seed=seed)
        for ident in AXIOMS
    ]


def mutated_ops(kb: KnowledgeBase, name: str) -> LatticeOps:
    """kb's standard operators with the one that the named mutation
    replaces.  drop-disjointness replaces none, so it is a ValueError: it
    changes the elements, to every pair of masks, overlapping ones too."""
    return _mutate(standard_ops(kb), name)


def run_mutation(kb: KnowledgeBase, name: str) -> list[AxiomReport]:
    """Every axiom against one documented mutation, decided exactly by the
    reduced engine."""
    return check_blocks(kb.partition(), name)
