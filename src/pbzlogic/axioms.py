"""Executable certification of the lattice axioms over a knowledge base.

Every axiom is quantified over the orthopairs of the knowledge base's
universe, represented as raw (positive, negative) bit-mask pairs.  Two
engines reach a verdict:

* the reduced engine decides an axiom exactly from a few cases on
  single-block knowledge bases, by the argument below.  It runs whenever
  pbzlogic builds the operators itself: the standard operators, or one of
  the documented mutations.  The budget cuts it short: it evaluates its
  cases in a fixed order, and when there are more cases than the budget
  and none of the first `budget` fails, the verdict is undecided.  It
  takes a `table.Partition` (object names, a block id per object, the
  block sizes), not the knowledge base: `verify` passes a table or a set
  partition of its sweep to `check_blocks`, so `verify --input` loads
  neither the mask layer nor the sweep, and `check_axiom`, `check_all` and
  `run_mutation` read one off a KnowledgeBase (`KnowledgeBase.partition`);
* the brute engine enumerates every tuple of orthopairs while the tuple
  count fits in the budget and samples otherwise; a sampled run that finds
  no violation is reported as undecided, never as a pass.  It runs for
  caller-supplied operators or elements, and in the tests as the oracle of
  the reduced engine.

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
   for a unary axiom and 511 for a binary one.

4. Pointwise axioms.  An axiom that never applies the approximation acts
   on each object by itself, so its algebra is the product of one-object
   algebras, and by step 2 it holds iff it holds at every single type:
   states^r cases, 27 for distributivity.

A failing type set becomes a witness over the whole knowledge base as in
step 2: its types go on the first objects of the largest block, its first
type repeats over the rest of that block (which keeps the type set), and
every variable is bottom on the other blocks.

A small catalogue of deliberate single-operator mutations is included so
the checker's sensitivity can itself be tested.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:  # the mask layer: imported by the brute engine only
    from .table import Partition
    from .universe import KnowledgeBase, Universe

Pair = tuple[int, int]

DEFAULT_BUDGET = 2_000_000


class LatticeOps(NamedTuple):
    """Raw orthopair operations over bit masks; the disjointness invariant
    is not enforced at this level."""

    full: int
    lower_table: tuple[int, ...]
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

    def lower(self, mask: int) -> int:
        return self.lower_table[mask]

    def upper(self, mask: int) -> int:
        return self.full ^ self.lower_table[self.full ^ mask]

    def leq(self, p: Pair, q: Pair) -> bool:
        return self.meet(p, q) == p


def standard_ops(kb: KnowledgeBase) -> LatticeOps:
    full = kb.universe.full_mask
    return _ops(full, tuple(kb.lower_mask(m) for m in range(full + 1)))


def _ops(full: int, table: tuple[int, ...]) -> LatticeOps:
    """The standard operators on masks within `full`, where `table[m]` is
    the lower approximation of the mask m."""

    def meet(p: Pair, q: Pair) -> Pair:
        return (p[0] & q[0], p[1] | q[1])

    def join(p: Pair, q: Pair) -> Pair:
        return (p[0] | q[0], p[1] & q[1])

    def kleene(p: Pair) -> Pair:
        return (p[1], p[0])

    def brouwer(p: Pair) -> Pair:
        return (p[1], full ^ p[1])

    def pawlak(p: Pair) -> Pair:
        return (table[p[0]], table[p[1]])

    return LatticeOps(full, table, meet, join, kleene, brouwer, pawlak)


def all_orthopair_masks(size: int) -> Iterator[Pair]:
    """`sweep.all_orthopair_masks`, imported on first call, so that only
    the brute engine loads the sweep and the mask layer."""
    from .sweep import all_orthopair_masks

    return all_orthopair_masks(size)


class Axiom(NamedTuple):
    ident: str
    arity: int
    description: str
    predicate: Callable[..., bool]
    # True when no term applies the approximation (module docstring, step 4).
    pointwise: bool


def _implies(hyp: bool, con: bool) -> bool:
    return con if hyp else True


def _distributivity(o: LatticeOps, p: Pair, q: Pair, r: Pair) -> bool:
    return o.meet(p, o.join(q, r)) == o.join(o.meet(p, q), o.meet(p, r)) and o.join(
        p, o.meet(q, r)
    ) == o.meet(o.join(p, q), o.join(p, r))


_AXIOM_LIST = (
    Axiom("bounds", 1, "0 <= a <= 1",
          lambda o, p: o.leq(o.bottom, p) and o.leq(p, o.top),
          pointwise=True),
    Axiom("distributivity", 3, "meet and join distribute over each other",
          _distributivity,
          pointwise=True),
    Axiom("K1", 1, "Kleene negation is an involution",
          lambda o, p: o.kleene(o.kleene(p)) == p,
          pointwise=True),
    Axiom("K2", 2, "Kleene negation swaps join and meet",
          lambda o, p, q: o.kleene(o.join(p, q)) == o.meet(o.kleene(p), o.kleene(q)),
          pointwise=True),
    Axiom("K3", 2, "a ∧ a' <= b ∨ b'",
          lambda o, p, q: o.leq(o.meet(p, o.kleene(p)), o.join(q, o.kleene(q))),
          pointwise=True),
    Axiom("B1", 1, "a ∧ a~~ = a",
          lambda o, p: o.meet(p, o.brouwer(o.brouwer(p))) == p,
          pointwise=True),
    Axiom("B2", 2, "(a ∨ b)~ = a~ ∧ b~",
          lambda o, p, q: o.brouwer(o.join(p, q)) == o.meet(o.brouwer(p), o.brouwer(q)),
          pointwise=True),
    Axiom("B3", 1, "a ∧ a~ = 0",
          lambda o, p: o.meet(p, o.brouwer(p)) == o.bottom,
          pointwise=True),
    Axiom("in", 1, "a~ <= a'",
          lambda o, p: o.leq(o.brouwer(p), o.kleene(p)),
          pointwise=True),
    Axiom("s-in", 1, "a~~ = a~'",
          lambda o, p: o.brouwer(o.brouwer(p)) == o.kleene(o.brouwer(p)),
          pointwise=True),
    Axiom("B2a", 2, "(a ∧ b)~ = a~ ∨ b~",
          lambda o, p, q: o.brouwer(o.meet(p, q)) == o.join(o.brouwer(p), o.brouwer(q)),
          pointwise=True),
    Axiom("A1", 1, "approximation commutes with Kleene negation",
          lambda o, p: o.kleene(o.pawlak(p)) == o.pawlak(o.kleene(p)),
          pointwise=False),
    Axiom("A2", 2, "a <= b implies b^A~ <= a^A~",
          lambda o, p, q: _implies(
              o.leq(p, q), o.leq(o.brouwer(o.pawlak(q)), o.brouwer(o.pawlak(p)))),
          pointwise=False),
    Axiom("A3", 1, "a^A~ <= a~",
          lambda o, p: o.leq(o.brouwer(o.pawlak(p)), o.brouwer(p)),
          pointwise=False),
    Axiom("A4", 0, "0^A = 0",
          lambda o: o.pawlak(o.bottom) == o.bottom,
          pointwise=False),
    Axiom("A5", 2, "a~ = b~ implies a^A ∧ b^A = (a ∧ b)^A",
          lambda o, p, q: _implies(
              o.brouwer(p) == o.brouwer(q),
              o.meet(o.pawlak(p), o.pawlak(q)) == o.pawlak(o.meet(p, q))),
          pointwise=False),
    Axiom("A6", 2, "a^A ∨ b^A <= (a ∨ b)^A",
          lambda o, p, q: o.leq(o.join(o.pawlak(p), o.pawlak(q)), o.pawlak(o.join(p, q))),
          pointwise=False),
    Axiom("A7", 1, "approximation is idempotent",
          lambda o, p: o.pawlak(o.pawlak(p)) == o.pawlak(p),
          pointwise=False),
    Axiom("A8", 1, "a^A~A = a^A~",
          lambda o, p: o.pawlak(o.brouwer(o.pawlak(p))) == o.brouwer(o.pawlak(p)),
          pointwise=False),
    Axiom("A9", 2, "(a^A ∧ b^A)^A = a^A ∧ b^A",
          lambda o, p, q: o.pawlak(o.meet(o.pawlak(p), o.pawlak(q)))
          == o.meet(o.pawlak(p), o.pawlak(q)),
          pointwise=False),
)

AXIOMS: dict[str, Axiom] = {axiom.ident: axiom for axiom in _AXIOM_LIST}


class AxiomReport(NamedTuple):
    axiom: str
    status: str  # "holds" | "counterexample" | "undecided"
    cases_checked: int
    exhaustive: bool
    witness: tuple[Pair, ...] | None
    # Its `objects` name a witness's objects: the partition checked, or kb's
    # universe under the brute engine.
    universe: Partition | Universe

    def witness_names(self) -> list[dict[str, list[str]]] | None:
        if self.witness is None:
            return None
        objects = self.universe.objects

        def names(mask: int) -> list[str]:
            digits = bin(mask)[:1:-1]  # digit i is object i; a shift per object is O(|U|)
            return [name for name, digit in zip(objects, digits) if digit == "1"]

        return [{"positive": names(a), "negative": names(b)} for a, b in self.witness]

    def to_dict(self) -> dict:
        out: dict = {
            "axiom": self.axiom,
            "status": self.status,
            "cases_checked": self.cases_checked,
            "exhaustive": self.exhaustive,
        }
        witness = self.witness_names()
        if witness is not None:
            out["witness"] = witness
        return out


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"the budget must be at least 1, got {budget}")


def _largest_block(partition: Partition) -> list[int]:
    """The rows of the first largest block: where a counterexample goes."""
    sizes = partition.block_sizes
    return partition.rows(sizes.index(max(sizes)))


def check_axiom(
    kb: KnowledgeBase,
    axiom_id: str,
    budget: int = DEFAULT_BUDGET,
    ops: LatticeOps | None = None,
    elements: Sequence[Pair] | None = None,
    seed: int = 0,
) -> AxiomReport:
    """Quantify one axiom over the orthopairs of kb's universe.

    Without `ops` and `elements` the reduced engine checks the standard
    operators: at most `budget` of its cases are evaluated, and an axiom
    with more cases and no failure among the first `budget` is undecided.
    Given either, the brute engine runs on them, and `seed` drives its
    sampling.  A budget below 1 is a ValueError.
    """
    try:
        axiom = AXIOMS[axiom_id]
    except KeyError:
        raise ValueError(f"unknown axiom {axiom_id!r}") from None
    _check_budget(budget)
    if ops is None and elements is None:
        partition = kb.partition()
        return _check_builtin(axiom, budget, None, _largest_block(partition), partition)
    if ops is None:
        ops = standard_ops(kb)
    return _check_brute(kb, axiom, budget, ops, elements, seed)


def _check_brute(
    kb: KnowledgeBase,
    axiom: Axiom,
    budget: int,
    ops: LatticeOps,
    elements: Sequence[Pair] | None,
    seed: int,
) -> AxiomReport:
    """Enumerate (or, over budget, sample) every tuple of elements."""
    import random  # here, so that `verify`, which never samples, does not load it

    axiom_id = axiom.ident
    elems = list(elements) if elements is not None else list(
        all_orthopair_masks(kb.universe.size)
    )
    total = len(elems) ** axiom.arity
    checked = 0
    if total <= budget:
        for tup in itertools.product(elems, repeat=axiom.arity):
            checked += 1
            if not axiom.predicate(ops, *tup):
                return AxiomReport(
                    axiom_id, "counterexample", checked, False, tup, kb.universe
                )
        return AxiomReport(axiom_id, "holds", checked, True, None, kb.universe)
    rng = random.Random(seed)
    for _ in range(budget):
        tup = tuple(rng.choice(elems) for _ in range(axiom.arity))
        checked += 1
        if not axiom.predicate(ops, *tup):
            return AxiomReport(
                axiom_id, "counterexample", checked, False, tup, kb.universe
            )
    return AxiomReport(axiom_id, "undecided", checked, False, None, kb.universe)


# --- reduced engine (module docstring, steps 1-4) ------------------------------

# A variable's state at one object, as bits: 1 = positive, 2 = negative.
# 0 is the boundary; 3 (both) occurs only under drop-disjointness.
_POSITIVE, _NEGATIVE = 1, 2


def _state_count(mutation: str | None) -> int:
    return 4 if mutation == "drop-disjointness" else 3


@functools.cache
def _reduced_cases(types: int, cap: int) -> int:
    """Number of nonempty sets of at most `cap` of `types` types."""
    return sum(math.comb(types, k) for k in range(1, cap + 1))


def _pairs(
    types: Sequence[tuple[int, ...]],
    positions: Sequence[int],
    arity: int,
    negative: int = 0,
) -> tuple[Pair, ...]:
    """The r orthopairs giving object positions[i] the type types[i].

    Objects outside `positions` are in the `negative` mask of every
    variable, or in the boundary.
    """
    out = []
    for var in range(arity):
        pos, neg = 0, negative
        for i, state in zip(positions, types):
            if state[var] & _POSITIVE:
                pos |= 1 << i
            if state[var] & _NEGATIVE:
                neg |= 1 << i
        out.append((pos, neg))
    return tuple(out)


@functools.cache
def _block_ops(size: int, mutation: str | None) -> LatticeOps:
    """Operators of the knowledge base with a single block of `size`
    objects.  They need only its two masks: the lower approximation of a
    mask is the whole block if the mask is, and nothing otherwise."""
    full = (1 << size) - 1
    ops = _ops(full, (0,) * full + (full,))
    return ops if mutation is None else _mutate(ops, mutation)


# The key space is small (axiom, mutation, cap <= 16), so the cache stays
# bounded while every knowledge base of a sweep shares its verdicts.
@functools.cache
def _reduced_verdict(
    axiom_id: str, mutation: str | None, cap: int
) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """Cases evaluated and the first failing type set (None if it holds).

    Every nonempty set of at most `cap` types is evaluated once, on the
    single-block knowledge base with one object per type.
    """
    axiom = AXIOMS[axiom_id]
    types = list(itertools.product(range(_state_count(mutation)), repeat=axiom.arity))
    checked = 0
    for size in range(1, cap + 1):
        ops = _block_ops(size, mutation)
        for type_set in itertools.combinations(types, size):
            checked += 1
            if not axiom.predicate(ops, *_pairs(type_set, range(size), axiom.arity)):
                return checked, type_set
    return checked, None


def _lift(
    size: int, members: Sequence[int], type_set: tuple[tuple[int, ...], ...], arity: int
) -> tuple[Pair, ...]:
    """A witness over a knowledge base of `size` objects from a failing type
    set, placed on `members`, its first largest block (module docstring)."""
    outside = (1 << size) - 1
    for i in members:
        outside ^= 1 << i
    filled = type_set + (type_set[0],) * (len(members) - len(type_set))
    return _pairs(filled, members, arity, outside)


def _check_builtin(axiom: Axiom, budget: int, mutation: str | None,
                   members: Sequence[int], partition: Partition) -> AxiomReport:
    """Check the operators pbzlogic builds, standard or a named mutation, on
    a partition whose first largest block holds the objects at `members`.

    An exact verdict reports as cases the tuples it covers, as the brute
    engine does.  The verdict is the one the first `budget` reduced cases
    give: the cached run evaluates them in the same order and stops at the
    first failure.
    """
    states = _state_count(mutation)
    types = states**axiom.arity
    cap = 1 if axiom.pointwise else min(len(members), types)
    checked, failure = _reduced_verdict(axiom.ident, mutation, cap)
    size = len(partition.objects)
    if failure is not None and checked <= budget:
        return AxiomReport(
            axiom.ident, "counterexample", checked, False,
            _lift(size, members, failure, axiom.arity), partition,
        )
    if _reduced_cases(types, cap) > budget:
        return AxiomReport(axiom.ident, "undecided", budget, False, None, partition)
    total = states ** (size * axiom.arity)
    return AxiomReport(axiom.ident, "holds", total, True, None, partition)


def check_blocks(partition: Partition, budget: int = DEFAULT_BUDGET,
                 mutation: str | None = None) -> list[AxiomReport]:
    """Every axiom, under the standard operators or one documented
    mutation, on a partition: the reduced engine's one entry, which
    `verify` runs on each table or set partition, and `check_all` and
    `run_mutation` on `KnowledgeBase.partition()`.

    By the module docstring the verdicts depend only on the largest block,
    and the first largest block places a counterexample; the partition's
    `objects` name it.  An unknown mutation or a budget below 1 is a
    ValueError.
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    _check_budget(budget)
    members = _largest_block(partition)
    return [
        _check_builtin(axiom, budget, mutation, members, partition)
        for axiom in _AXIOM_LIST
    ]


def check_all(
    kb: KnowledgeBase,
    budget: int = DEFAULT_BUDGET,
    ops: LatticeOps | None = None,
    elements: Sequence[Pair] | None = None,
    seed: int = 0,
) -> list[AxiomReport]:
    if ops is None and elements is None:
        return check_blocks(kb.partition(), budget)
    return [
        check_axiom(kb, ident, budget=budget, ops=ops, elements=elements, seed=seed)
        for ident in AXIOMS
    ]


def certified(reports: Sequence[AxiomReport]) -> bool:
    """True only when every axiom held under exhaustive enumeration."""
    return all(r.status == "holds" and r.exhaustive for r in reports)


# --- mutation harness -------------------------------------------------------

MUTATIONS: dict[str, str] = {
    "pawlak-upper-on-negative": "approximation uses the upper approximation on the negative region",
    "pawlak-upper-on-both": "approximation uses the upper approximation on both regions",
    "kleene-identity": "Kleene negation leaves the pair unchanged",
    "brouwer-as-kleene": "Brouwer negation degrades to the Kleene swap",
    "meet-drops-negative": "meet intersects the negative regions instead of uniting them",
    "drop-disjointness": "enumeration admits overlapping positive/negative regions",
}


def mutated_ops(kb: KnowledgeBase, name: str) -> LatticeOps:
    return _mutate(standard_ops(kb), name)


def _mutate(ops: LatticeOps, name: str) -> LatticeOps:
    """`ops` with the one operator that the named mutation replaces."""
    full = ops.full
    table = ops.lower_table

    if name == "pawlak-upper-on-negative":
        return ops._replace(pawlak=lambda p: (table[p[0]], full ^ table[full ^ p[1]]))
    if name == "pawlak-upper-on-both":
        return ops._replace(
            pawlak=lambda p: (full ^ table[full ^ p[0]], full ^ table[full ^ p[1]]),
        )
    if name == "kleene-identity":
        return ops._replace(kleene=lambda p: p)
    if name == "brouwer-as-kleene":
        return ops._replace(brouwer=lambda p: (p[1], p[0]))
    if name == "meet-drops-negative":
        return ops._replace(meet=lambda p, q: (p[0] & q[0], p[1] & q[1]))
    if name == "drop-disjointness":
        return ops  # the mutation changes the enumeration, not the operators
    raise ValueError(f"unknown mutation {name!r}")


def run_mutation(
    kb: KnowledgeBase, name: str, budget: int = DEFAULT_BUDGET
) -> list[AxiomReport]:
    """Run every axiom against one documented mutation, with the budget
    semantics of check_axiom."""
    return check_blocks(kb.partition(), budget, name)
