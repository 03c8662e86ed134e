"""The format in which the exact engines take a knowledge base.

`verify` and `validate-logic` hand their engines a `Partition` per
knowledge base, and the engines answer in masks over its positions:
`type_pairs` places types on positions, `Partition.lift` spreads a
failing case over its block, and `members_of` names the objects of a
mask.  `classify` never loads this module: it reads the table's block ids
and flags alone, and a run without cached bytecode compiles every line
it imports.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .regions import NEGATIVE, POSITIVE


class Partition(NamedTuple):
    """A knowledge base as `verify` and `validate-logic` take it: object i,
    named `objects[i]`, lies in block `block_ids[i]`, and block b holds
    `block_sizes[b]` objects.  A `table.Table` starts with the same three
    fields (`Partition(*table[:3])`); `sweep.all_partitions` yields one per
    set partition, and `KnowledgeBase.partition()` reads one off the mask
    layer."""

    objects: Sequence[str]
    block_ids: Sequence[int]
    block_sizes: list[int]

    def rows(self, block: int) -> list[int]:
        """The positions of the objects of the given block, in order."""
        return [i for i, b in enumerate(self.block_ids) if b == block]

    def lift(self, rows: Sequence[int],
             types: Sequence[tuple[int, ...]]) -> tuple[tuple[int, int], ...]:
        """The witness of a failing case, one (positive, negative) mask pair
        per variable: the objects at `rows`, one block's positions, take the
        `types` in order (`type_pairs`), the rest of the block repeats the
        first type, and every other object is negative.  The rest and the
        outside are built in byte buffers, so the time is linear in |U|."""
        size = len(self.objects)
        rest = mask_of(rows[len(types):], size)
        outside = ((1 << size) - 1) ^ mask_of(rows, size)
        first = types[0]
        return tuple((pos | (rest if first[var] & POSITIVE else 0),
                      neg | (rest if first[var] & NEGATIVE else 0) | outside)
                     for var, (pos, neg) in enumerate(type_pairs(types, rows, len(first))))


def type_pairs(types: Sequence[tuple[int, ...]], positions: Sequence[int],
               arity: int) -> tuple[tuple[int, int], ...]:
    """The mask pairs, one per variable, giving the object at positions[i]
    the type types[i] and the others the boundary: a type's state for each
    variable has a `regions.POSITIVE` and a `NEGATIVE` bit.  Each axiom case
    and each witness (`Partition.lift`) starts here; OR-ing in `1 << i`
    suits their few types, at most the 16 of a reduced case."""
    out = []
    for var in range(arity):
        pos, neg = 0, 0
        for i, state in zip(positions, types):
            if state[var] & POSITIVE:
                pos |= 1 << i
            if state[var] & NEGATIVE:
                neg |= 1 << i
        out.append((pos, neg))
    return tuple(out)


def mask_of(indices: Iterable[int], size: int) -> int:
    """The mask over `size` positions with the given bits set, from a byte
    buffer: OR-ing in `1 << i` would copy the whole mask for every bit."""
    buf = bytearray((size + 7) >> 3)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def members_of(mask: int, items: Sequence) -> list:
    """The items at the set bits of `mask`, in order: bit i selects
    `items[i]`.  Its binary digits are read once, in C."""
    return list(itertools.compress(items, bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)))
