"""Exhaustive enumeration of subsets, orthopairs and set partitions.

Everything here is meant for small universes: the number of orthopairs is
3^|U| and the number of partitions is the Bell number of |U|.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .universe import KnowledgeBase, ObjectSet, Universe

if TYPE_CHECKING:  # imported in `all_orthopairs`: the axiom engine, on masks, never loads it
    from .orthopair import Orthopair


def all_subset_masks(size: int) -> range:
    return range(1 << size)


def all_orthopair_masks(size: int) -> Iterator[tuple[int, int]]:
    """All pairs of disjoint bit masks over `size` positions (3^size pairs)."""
    full = (1 << size) - 1
    for a in range(full + 1):
        rest = full & ~a
        b = rest
        while True:
            yield (a, b)
            if b == 0:
                break
            b = (b - 1) & rest


def all_orthopairs(universe: Universe) -> Iterator[Orthopair]:
    from .orthopair import Orthopair

    for a, b in all_orthopair_masks(universe.size):
        yield Orthopair(ObjectSet(universe, a), ObjectSet(universe, b))


def set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """All partitions of the given items into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        yield [[first]] + partial


def all_knowledge_bases(universe: Universe) -> Iterator[KnowledgeBase]:
    """One knowledge base per set partition of the universe."""
    for blocks in set_partitions(universe.objects):
        yield KnowledgeBase.from_partition(
            universe, (universe.subset(block) for block in blocks)
        )


def default_universe(size: int) -> Universe:
    return Universe(tuple(f"o{i + 1}" for i in range(size)))
