"""Executable certification of the lattice axioms over a knowledge base.

Every axiom is quantified over the orthopairs of the knowledge base's
universe, represented as raw (positive, negative) bit-mask pairs.  Two
engines reach a verdict:

* the reduced engine, this module, decides an axiom exactly from a few
  cases on single-block knowledge bases, by the argument below, so its
  verdict is always `holds` or `counterexample`.  It checks the operators
  pbzlogic builds itself: the standard operators, or one of the
  documented mutations.  The most cases any axiom has is 511 under the
  standard operators and 65,535 under drop-disjointness (step 3), so it
  takes no budget.  It takes a `partition.Partition` (object names, a
  block id per object, the block sizes), not the knowledge base: `verify`
  passes a table or a set partition of its sweep to `check_blocks`, so
  `verify` loads neither the mask layer nor the brute engine;
* the brute engine (`brute._check_brute`) enumerates every tuple of
  orthopairs, or of the caller's elements, and refuses with a ValueError
  a request of more than `brute.MAX_TUPLES` tuples (3^(|U| * arity) for
  the orthopairs), so its verdict too is `holds` or `counterexample`.  It
  runs for caller-supplied operators or elements, and in the tests as the
  oracle of the reduced engine.  The knowledge-base API
  (`brute.check_axiom`, `check_all`, `run_mutation`) lives beside it and
  reads a partition off a KnowledgeBase (`KnowledgeBase.partition`) for
  this module.

Each axiom is its equation in the term syntax of `terms` (`_AXIOM_LIST`),
compiled once into a function of mask pairs that takes its operators from
a LatticeOps, so every mutation applies to it.  Its arity is the number of
its variables; it is pointwise when no word applies ``L``.

Why the reduction is exact
--------------------------

1. Product decomposition.  Let B_1, ..., B_k be the blocks of U.  Meet,
   join, both negations and the bounds act on each object by itself.  The
   approximation acts on each block as a whole: the lower approximation of
   x meets B_i in all of B_i if B_i is inside x, and in nothing otherwise.
   So restricting orthopairs to B_i commutes with every operator, and the
   algebra of orthopairs over the knowledge base is the direct product of
   the algebras over the single-block knowledge bases B_i.  Every mutation
   in MUTATIONS keeps this shape: its operators still act per object,
   except the approximation, which still acts per block.

2. Horn preservation.  Every axiom is an identity or a quasi-identity.  An
   identity is s = t, a conjunction of such equations, or p <= q, which is
   the equation p ∧ q = p.  A2 and A5 are quasi-identities: an equation
   implies an equation.  In a direct product an equation holds at a tuple
   iff it holds at every component, so an identity or quasi-identity that
   holds in every factor holds in the product (Mal'cev).  Conversely, a
   failing tuple of factor B_i lifts to the product: keep it on B_i and set
   every variable to bottom on the other blocks.  All variables are equal
   there, so the hypotheses of A2 (a <= b) and A5 (a~ = b~) hold there,
   since meet is idempotent under every operator set here; the conclusion
   still fails on B_i.  Hence an axiom holds on the knowledge base iff it
   holds on every single-block knowledge base B_i.

3. Type sets.  Fix an r-ary axiom and r orthopairs over one block B.  Give
   each object of B its type: the tuple of its r states, each one of
   positive, negative or neither (and both, when drop-disjointness admits
   overlapping regions).  By induction on terms, the state of any term at
   an object depends only on that object's type and on the set S of types
   that occur in B: a pointwise operator reads states at the object, and
   the approximation of x is B or nothing according to whether every type
   in S puts its object in x.  So the axiom's truth at the tuple depends
   only on S, and a block of n objects realises exactly the nonempty S with
   |S| <= n (a type may repeat to fill the block).  The axiom holds on B
   iff it holds, for every such S, on the single-block knowledge base of
   |S| objects whose types are S.  There are states^r types, and the
   largest block realises every type set of the smaller ones.  So the
   verdict depends only on the axiom, the mutation and
   min(largest block, states^r): with three states, at most 7 type sets
   for a unary axiom and 511 for a binary one; with four, 15 and 65,535.

4. Pointwise axioms.  An axiom that never applies the approximation acts
   on each object by itself, so its algebra is the product of one-object
   algebras, and by step 2 it holds iff it holds at every single type:
   states^r cases, 27 for distributivity.

A failing type set becomes a witness over the whole knowledge base as in
step 2 (`partition.Partition.lift`): its types go on the first objects of the
largest block, its first type repeats over the rest of that block (which
keeps the type set), and every variable is bottom on the other blocks.

A small catalogue of deliberate single-operator mutations is included so
the checker's sensitivity can itself be tested.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .partition import type_pairs
from .terms import LatticeOps, Pair, _ops, _Parser

if TYPE_CHECKING:
    from .partition import Partition
    from .universe import Universe


class Axiom(NamedTuple):
    ident: str
    arity: int
    description: str
    predicate: Callable[..., bool]
    # True when no term applies the approximation (module docstring, step 4).
    pointwise: bool


def _axiom(ident: str, equation: str) -> Axiom:
    """An axiom from its equation: its arity is the number of its
    variables, and it is pointwise when no word applies L."""
    parser = _Parser(equation, "abc")
    params = "".join(sorted(set(equation) & set("abc")))
    predicate = parser.parse(parser.formula, params)
    return Axiom(ident, len(params), equation, predicate, "L" not in equation)


_AXIOM_LIST = tuple(_axiom(ident, equation) for ident, equation in (
    ("bounds", "0 <= a, a <= 1"),
    ("distributivity", "a & (b | c) = (a & b) | (a & c), a | (b & c) = (a | b) & (a | c)"),
    ("K1", "a^-- = a"),
    ("K2", "(a | b)^- = a^- & b^-"),
    ("K3", "a & a^- <= b | b^-"),
    ("B1", "a & a^~~ = a"),
    ("B2", "(a | b)^~ = a^~ & b^~"),
    ("B3", "a & a^~ = 0"),
    ("in", "a^~ <= a^-"),
    ("s-in", "a^~~ = a^~-"),
    ("B2a", "(a & b)^~ = a^~ | b^~"),
    ("A1", "a^L- = a^-L"),
    ("A2", "a <= b => b^L~ <= a^L~"),
    ("A3", "a^L~ <= a^~"),
    ("A4", "0^L = 0"),
    ("A5", "a^~ = b^~ => a^L & b^L = (a & b)^L"),
    ("A6", "a^L | b^L <= (a | b)^L"),
    ("A7", "a^LL = a^L"),
    ("A8", "a^L~L = a^L~"),
    ("A9", "(a^L & b^L)^L = a^L & b^L"),
))

AXIOMS: dict[str, Axiom] = {axiom.ident: axiom for axiom in _AXIOM_LIST}


class AxiomReport(NamedTuple):
    axiom: str
    status: str  # "holds" | "counterexample"
    cases_checked: int
    witness: tuple[Pair, ...] | None  # a raw mask pair per variable
    # Its `objects` are those a witness's bits index: the partition checked,
    # or kb's universe under the brute engine (`verdicts.axiom_entry`).
    universe: Partition | Universe
    # A hold's (base, exponent): it covers base^exponent tuples.
    covers: tuple[int, int] | None = None


# --- reduced engine (module docstring, steps 1-4) ------------------------------

# A variable's state at one object: its `regions.POSITIVE` and `NEGATIVE`
# bits.  0 is the boundary; 3 (both) occurs only under drop-disjointness.
def _state_count(mutation: str | None) -> int:
    return 4 if mutation == "drop-disjointness" else 3


@functools.cache
def _block_ops(size: int, mutation: str | None) -> LatticeOps:
    """Operators of the knowledge base with a single block of `size`
    objects.  They need only its two masks: the lower approximation of a
    mask is the whole block if the mask is, and nothing otherwise."""
    full = (1 << size) - 1
    ops = _ops(full, lambda m: full if m == full else 0)
    # drop-disjointness changes the states (`_state_count`), not the operators
    return ops if mutation in (None, "drop-disjointness") else _mutate(ops, mutation)


# The key space is small (axiom, mutation, cap <= 16), so the cache stays
# bounded while every knowledge base of a sweep shares its verdicts.
@functools.cache
def _reduced_verdict(
    axiom_id: str, mutation: str | None, cap: int
) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """Cases evaluated and the first failing type set (None if it holds).

    Every nonempty set of at most `cap` types is evaluated once, on the
    single-block knowledge base with one object per type
    (`partition.type_pairs`).
    """
    axiom = AXIOMS[axiom_id]
    types = list(itertools.product(range(_state_count(mutation)), repeat=axiom.arity))
    checked = 0
    for size in range(1, cap + 1):
        ops = _block_ops(size, mutation)
        for type_set in itertools.combinations(types, size):
            checked += 1
            if not axiom.predicate(ops, *type_pairs(type_set, range(size), axiom.arity)):
                return checked, type_set
    return checked, None


def _check_builtin(axiom: Axiom, mutation: str | None,
                   largest: int, partition: Partition) -> AxiomReport:
    """Check the operators pbzlogic builds, standard or a named mutation, on
    a partition whose largest block holds `largest` objects.

    The verdict reads only that size.  A counterexample alone reads the
    rows of the first largest block (`Partition.rows`, a scan of every
    object), to lift its failing type set onto them.  Every verdict counts
    the reduced cases it evaluated, up to the first failure, and a hold
    covers the states^(|U| * arity) tuples of orthopairs.
    """
    states = _state_count(mutation)
    cap = 1 if axiom.pointwise else min(largest, states**axiom.arity)
    checked, failure = _reduced_verdict(axiom.ident, mutation, cap)
    if failure is not None:
        rows = partition.rows(partition.block_sizes.index(largest))
        return AxiomReport(axiom.ident, "counterexample", checked,
                           partition.lift(rows, failure), partition)
    return AxiomReport(axiom.ident, "holds", checked, None, partition,
                       (states, len(partition.objects) * axiom.arity))


def check_blocks(partition: Partition, mutation: str | None = None) -> list[AxiomReport]:
    """Every axiom, under the standard operators or one documented
    mutation, on a partition: the reduced engine's one entry, which
    `verify` runs on each table or set partition, and `brute.check_all`
    and `brute.run_mutation` on `KnowledgeBase.partition()`.

    By the module docstring the verdicts depend only on the size of the
    largest block, read once from `block_sizes`; the first largest block
    places a counterexample, and the partition's `objects` name it.  Only a
    counterexample reads the block ids.  An unknown mutation is a
    ValueError.
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    largest = max(partition.block_sizes)
    return [_check_builtin(axiom, mutation, largest, partition) for axiom in _AXIOM_LIST]


def certified(reports: Sequence[AxiomReport]) -> bool:
    """True when every axiom holds; every verdict is exact."""
    return all(r.status == "holds" for r in reports)


# --- mutation harness -------------------------------------------------------

MUTATIONS: dict[str, str] = {
    "pawlak-upper-on-negative": "approximation uses the upper approximation on the negative region",
    "pawlak-upper-on-both": "approximation uses the upper approximation on both regions",
    "kleene-identity": "Kleene negation leaves the pair unchanged",
    "brouwer-as-kleene": "Brouwer negation degrades to the Kleene swap",
    "meet-drops-negative": "meet intersects the negative regions instead of uniting them",
    "drop-disjointness": "enumeration admits overlapping positive/negative regions",
}


def _mutate(ops: LatticeOps, name: str) -> LatticeOps:
    """`ops` with the one operator that the named mutation replaces; a
    ValueError for drop-disjointness, which replaces none."""
    lower, upper = ops.lower, ops.upper
    if name == "pawlak-upper-on-negative":
        return ops._replace(pawlak=lambda p: (lower(p[0]), upper(p[1])))
    if name == "pawlak-upper-on-both":
        return ops._replace(pawlak=lambda p: (upper(p[0]), upper(p[1])))
    if name == "kleene-identity":
        return ops._replace(kleene=lambda p: p)
    if name == "brouwer-as-kleene":
        return ops._replace(brouwer=lambda p: (p[1], p[0]))
    if name == "meet-drops-negative":
        return ops._replace(meet=lambda p, q: (p[0] & q[0], p[1] & q[1]))
    if name == "drop-disjointness":
        raise ValueError("the drop-disjointness mutation changes the elements, not the"
                         " operators: check the standard operators on overlapping pairs")
    raise ValueError(f"unknown mutation {name!r}")
