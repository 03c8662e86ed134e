"""Finite universes, bit-vector object sets, and indiscernibility partitions."""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from ._record import FrozenRecord
from .table import Partition, mask_of, members_of

if TYPE_CHECKING:
    from .terms import LatticeOps


class UniverseMismatchError(ValueError):
    """Two values built over different universes were combined."""


class Universe(FrozenRecord):
    """Ordered finite set of named objects; the index of each name is stable."""

    __slots__ = ("objects", "__dict__")  # the dict holds `_index` and `full_mask`

    def __init__(self, objects: tuple[str, ...]) -> None:
        if not objects:
            raise ValueError("a universe needs at least one object")
        if len(set(objects)) != len(objects):
            raise ValueError("object identifiers must be unique")
        object.__setattr__(self, "objects", objects)

    @classmethod
    def of(cls, *names: str) -> "Universe":
        return cls(tuple(names))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.objects)}

    @property
    def size(self) -> int:
        return len(self.objects)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.objects)) - 1

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown object {name!r}") from None

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[str]:
        return iter(self.objects)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def empty(self) -> "ObjectSet":
        return ObjectSet(self, 0)

    def full(self) -> "ObjectSet":
        return ObjectSet(self, self.full_mask)

    def subset(self, names: Iterable[str]) -> "ObjectSet":
        return ObjectSet(self, mask_of(map(self.index, names), self.size))


class ObjectSet(FrozenRecord):
    """Subset of a universe, stored as a bit mask over object indices."""

    __slots__ = ("universe", "bits")

    def __init__(self, universe: Universe, bits: int) -> None:
        if not 0 <= bits <= universe.full_mask:
            raise ValueError("bit mask outside the universe range")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "bits", bits)

    def _check(self, other: "ObjectSet") -> None:
        if other.universe != self.universe:
            raise UniverseMismatchError("object sets belong to different universes")

    def __and__(self, other: "ObjectSet") -> "ObjectSet":
        self._check(other)
        return ObjectSet(self.universe, self.bits & other.bits)

    def __or__(self, other: "ObjectSet") -> "ObjectSet":
        self._check(other)
        return ObjectSet(self.universe, self.bits | other.bits)

    def __sub__(self, other: "ObjectSet") -> "ObjectSet":
        self._check(other)
        return ObjectSet(self.universe, self.bits & ~other.bits)

    def __invert__(self) -> "ObjectSet":
        return ObjectSet(self.universe, self.universe.full_mask & ~self.bits)

    def __le__(self, other: "ObjectSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self.universe and bool(
            self.bits >> self.universe.index(name) & 1
        )

    def __iter__(self) -> Iterator[str]:
        return iter(members_of(self.bits, self.universe.objects))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return "{" + ", ".join(self) + "}"


class KnowledgeBase(FrozenRecord):
    """A universe together with an equivalence relation stored as partition blocks."""

    __slots__ = ("universe", "blocks", "__dict__")  # the dict holds `block_index`, `ops`

    def __init__(self, universe: Universe, blocks: tuple[ObjectSet, ...]) -> None:
        covered = 0
        for block in blocks:
            if block.universe != universe:
                raise UniverseMismatchError("partition block over a different universe")
            if block.bits == 0:
                raise ValueError("empty partition block")
            if covered & block.bits:
                raise ValueError("overlapping partition blocks")
            covered |= block.bits
        if covered != universe.full_mask:
            raise ValueError("partition blocks do not cover the universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_partition(
        cls, universe: Universe, blocks: Iterable[ObjectSet]
    ) -> "KnowledgeBase":
        return cls(universe, tuple(blocks))

    @classmethod
    def from_attributes(
        cls, universe: Universe, rows: Mapping[str, Sequence[object]]
    ) -> "KnowledgeBase":
        """Partition by exact equality of attribute vectors.

        Tokens are opaque: a missing-value token equals only itself.  Blocks
        are numbered in order of their first object (`from_block_ids`).
        """
        missing = [name for name in universe if name not in rows]
        if missing:
            raise ValueError(f"no attribute vector for objects {missing}")
        unknown = [name for name in rows if name not in universe]
        if unknown:
            raise KeyError(f"unknown object identifiers {unknown}")
        arity = len(rows[universe.objects[0]])
        groups: dict[tuple, int] = {}
        block_ids: list[int] = []
        for name in universe:
            vector = tuple(rows[name])
            if len(vector) != arity:
                raise ValueError(
                    f"attribute vector for {name!r} has arity {len(vector)}, expected {arity}"
                )
            block_ids.append(groups.setdefault(vector, len(groups)))
        return cls.from_block_ids(universe, block_ids)

    @classmethod
    def from_block_ids(
        cls, universe: Universe, block_ids: Sequence[int]
    ) -> "KnowledgeBase":
        """The partition in which object i lies in block `block_ids[i]`.

        Block numbers run from 0 without gaps, so that they are positions
        in `blocks`; the given ids seed `block_index`.  Each block's mask is
        built once from its members.
        """
        if len(block_ids) != len(universe):
            raise ValueError(
                f"{len(block_ids)} block ids for a universe of {len(universe)} objects"
            )
        if min(block_ids) < 0:
            raise ValueError("block ids must not be negative")
        members: list[list[int]] = [[] for _ in range(max(block_ids) + 1)]
        for i, b in enumerate(block_ids):
            members[b].append(i)
        blocks = tuple(ObjectSet(universe, mask_of(m, len(universe))) for m in members)
        kb = cls(universe, blocks)  # checks that no block is empty
        kb.__dict__["block_index"] = tuple(block_ids)  # the cached_property's slot
        return kb

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        """Position in `blocks` of each object's class, by object index.

        `from_block_ids` (and so `from_attributes`) sets it.  Otherwise it is
        built on first use from each block's binary digits (`members_of`),
        which costs O(blocks * |U|) character work.
        """
        out = [0] * self.universe.size
        for bi, block in enumerate(self.blocks):
            for i in members_of(block.bits, range(self.universe.size)):
                out[i] = bi
        return tuple(out)

    @cached_property
    def ops(self) -> LatticeOps:
        """The standard lattice operators over this knowledge base
        (`terms.standard_ops`), built on first use and then shared by every
        term evaluated over it (`orthopair.eval_term`), with their memo of
        lower approximations: one entry per mask asked for."""
        from .terms import standard_ops

        return standard_ops(self)

    def partition(self) -> Partition:
        """kb in the format of the `verify` and `validate-logic` engines."""
        return Partition(self.universe.objects, self.block_index,
                         [len(block) for block in self.blocks])

    def block_of(self, name: str) -> ObjectSet:
        """The equivalence class of the named object."""
        return self.blocks[self.block_index[self.universe.index(name)]]

    def _check(self, x: ObjectSet) -> None:
        if x.universe != self.universe:
            raise UniverseMismatchError("object set over a different universe")

    def lower_mask(self, mask: int) -> int:
        bits = 0
        for block in self.blocks:
            if block.bits & ~mask == 0:
                bits |= block.bits
        return bits

    def upper_mask(self, mask: int) -> int:
        bits = 0
        for block in self.blocks:
            if block.bits & mask:
                bits |= block.bits
        return bits

    def lower(self, x: ObjectSet) -> ObjectSet:
        """Objects whose whole equivalence class lies inside x."""
        self._check(x)
        return ObjectSet(self.universe, self.lower_mask(x.bits))

    def upper(self, x: ObjectSet) -> ObjectSet:
        """Objects whose equivalence class meets x."""
        self._check(x)
        return ObjectSet(self.universe, self.upper_mask(x.bits))
