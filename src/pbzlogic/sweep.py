"""Exhaustive enumeration of subsets, orthopairs and set partitions.

Everything here is meant for small universes: the number of orthopairs is
3^|U| and the number of partitions is the Bell number of |U|, enumerated
as block ids (`_block_ids`), or as lists of blocks in the same order
(`set_partitions`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .table import Partition

if TYPE_CHECKING:  # the mask layer, imported where its objects are built
    from .orthopair import Orthopair
    from .universe import KnowledgeBase, Universe


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
    from .universe import ObjectSet

    for a, b in all_orthopair_masks(universe.size):
        yield Orthopair(ObjectSet(universe, a), ObjectSet(universe, b))


def _block_ids(size: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """The block of each of `size` items, and the block sizes, for every set
    partition of them.  The first item joins each block of a partition of
    the rest in turn, then opens a block of its own, numbered 0 ahead of
    the others; so blocks are numbered in order of their last item."""
    if not size:
        yield (), []
        return
    for rest, sizes in _block_ids(size - 1):
        for b in range(len(sizes)):
            yield (b, *rest), [*sizes[:b], sizes[b] + 1, *sizes[b + 1:]]
        yield (0, *[b + 1 for b in rest]), [1, *sizes]


def set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """All partitions of the given items into nonempty blocks, in the order
    and block numbering of `_block_ids`: the first item joins each block of
    a partition of the rest in turn, then opens a block of its own ahead of
    the others.  Each partition is spliced from one of the rest, which is
    faster than grouping the items by their block ids."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for b in range(len(partial)):
            yield partial[:b] + [[first] + partial[b]] + partial[b + 1:]
        yield [[first]] + partial


def all_partitions(size: int) -> Iterator[Partition]:
    """One `Partition` of the objects of `default_universe(size)` per set
    partition, in the order and block numbering of `set_partitions`."""
    objects = tuple(f"o{i + 1}" for i in range(size))
    for ids, sizes in _block_ids(size):
        yield Partition(objects, ids, sizes)


def all_knowledge_bases(universe: Universe) -> Iterator[KnowledgeBase]:
    """One knowledge base per set partition of the universe."""
    from .universe import KnowledgeBase

    for ids, _ in _block_ids(universe.size):
        yield KnowledgeBase.from_block_ids(universe, ids)


def default_universe(size: int) -> Universe:
    from .universe import Universe

    return Universe(tuple(f"o{i + 1}" for i in range(size)))
