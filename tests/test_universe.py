import random

import pytest
from hypothesis import given, strategies as st

from pbzlogic import (
    KnowledgeBase,
    ObjectSet,
    Universe,
    UniverseMismatchError,
    all_knowledge_bases,
    default_universe,
    set_partitions,
)
from pbzlogic.sweep import _block_ids, all_partitions, all_subset_masks

from .oracle import oracle_lower, oracle_upper


def test_universe_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Universe.of("a", "a")
    with pytest.raises(ValueError):
        Universe(())


def test_universe_index_is_stable():
    u = Universe.of("a", "b", "c")
    assert u.index("b") == 1
    assert list(u) == ["a", "b", "c"]
    with pytest.raises(KeyError):
        u.index("z")


def test_object_set_operations():
    u = Universe.of("a", "b", "c")
    x = u.subset(["a", "b"])
    y = u.subset(["b", "c"])
    assert (x & y).names() == ("b",)
    assert (x | y).names() == ("a", "b", "c")
    assert (x - y).names() == ("a",)
    assert (~x).names() == ("c",)
    assert u.subset(["a"]) <= x
    assert not x <= y
    assert "a" in x and "c" not in x
    assert len(x) == 2


def test_object_set_universe_mismatch():
    x = Universe.of("a", "b").subset(["a"])
    y = Universe.of("a", "c").subset(["a"])
    with pytest.raises(UniverseMismatchError):
        x & y


def test_partition_finest_and_coarsest():
    u = Universe.of("a", "b")
    fine = KnowledgeBase.from_partition(u, [u.subset(["a"]), u.subset(["b"])])
    assert fine.block_of("a").names() == ("a",)
    coarse = KnowledgeBase.from_partition(u, [u.subset(["a", "b"])])
    assert coarse.block_of("a").names() == ("a", "b")


def test_partition_six_object_lookup(six_kb):
    assert six_kb.block_of("o3").names() == ("o3", "o4")


def test_partition_rejects_bad_blocks():
    u = Universe.of("a", "b", "c")
    with pytest.raises(ValueError):
        KnowledgeBase.from_partition(u, [u.subset(["a", "b"]), u.subset(["b", "c"])])
    with pytest.raises(ValueError):
        KnowledgeBase.from_partition(u, [u.subset(["a", "b"]), u.empty(), u.subset(["c"])])
    with pytest.raises(ValueError):
        KnowledgeBase.from_partition(u, [u.subset(["a", "b"])])
    other = Universe.of("a", "b", "c", "d")
    with pytest.raises(UniverseMismatchError):
        KnowledgeBase.from_partition(u, [other.subset(["a", "b", "c", "d"])])


def test_from_attributes_trivial_cases():
    u = Universe.of("a", "b", "c")
    distinct = KnowledgeBase.from_attributes(
        u, {"a": ("1",), "b": ("2",), "c": ("3",)}
    )
    assert all(len(block) == 1 for block in distinct.blocks)
    same = KnowledgeBase.from_attributes(u, {"a": ("1",), "b": ("1",), "c": ("1",)})
    assert len(same.blocks) == 1


def test_from_attributes_six_object(six_universe, six_kb):
    rows = {
        "o1": ("f", "c"), "o2": ("f", "c"),
        "o3": ("r", "c"), "o4": ("r", "c"),
        "o5": ("n", "f"), "o6": ("n", "f"),
    }
    kb = KnowledgeBase.from_attributes(six_universe, rows)
    assert set(kb.blocks) == set(six_kb.blocks)
    assert kb.block_of("o3").names() == ("o3", "o4")


def test_from_attributes_missing_token_equals_only_itself():
    u = Universe.of("a", "b", "c")
    kb = KnowledgeBase.from_attributes(u, {"a": ("?",), "b": ("?",), "c": ("x",)})
    assert kb.block_of("a").names() == ("a", "b")
    assert kb.block_of("c").names() == ("c",)


def test_from_attributes_errors():
    u = Universe.of("a", "b")
    with pytest.raises(ValueError):
        KnowledgeBase.from_attributes(u, {"a": ("1",), "b": ("1", "2")})
    with pytest.raises(KeyError):
        KnowledgeBase.from_attributes(u, {"a": ("1",), "b": ("1",), "z": ("1",)})
    with pytest.raises(ValueError):
        KnowledgeBase.from_attributes(u, {"a": ("1",)})


def test_from_block_ids_errors():
    u = Universe.of("a", "b", "c")
    with pytest.raises(ValueError, match="2 block ids for a universe of 3 objects"):
        KnowledgeBase.from_block_ids(u, [0, 0])
    with pytest.raises(ValueError, match="must not be negative"):
        KnowledgeBase.from_block_ids(u, [0, -1, 0])
    with pytest.raises(ValueError, match="empty partition block"):
        KnowledgeBase.from_block_ids(u, [0, 2, 0])  # block 1 has no object
    kb = KnowledgeBase.from_block_ids(u, [1, 0, 1])
    assert kb.blocks == (u.subset(["b"]), u.subset(["a", "c"]))
    assert kb.block_index == (1, 0, 1) == _derived_block_index(kb)


def test_approximations_six_object(six_universe, six_kb):
    x = six_universe.subset(["o1", "o2", "o3"])
    assert six_kb.lower(x).names() == ("o1", "o2")
    assert six_kb.upper(x).names() == ("o1", "o2", "o3", "o4")
    assert six_kb.lower(six_universe.empty()) == six_universe.empty()
    assert six_kb.upper(six_universe.full()) == six_universe.full()


def test_identity_partition_approximations_are_identity():
    u = Universe.of("a", "b", "c")
    kb = KnowledgeBase.from_partition(u, [u.subset([n]) for n in u])
    for bits in all_subset_masks(u.size):
        x = ObjectSet(u, bits)
        assert kb.lower(x) == x
        assert kb.upper(x) == x


def test_approximation_universe_mismatch(six_kb):
    other = Universe.of("a")
    with pytest.raises(UniverseMismatchError):
        six_kb.lower(other.subset(["a"]))


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_approximation_properties_exhaustive(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        for bits in all_subset_masks(size):
            x = ObjectSet(u, bits)
            low, up = kb.lower(x), kb.upper(x)
            assert low <= x <= up
            assert kb.lower(low) == low
            assert kb.upper(up) == up
            for ybits in all_subset_masks(size):
                if bits & ~ybits == 0:
                    y = ObjectSet(u, ybits)
                    assert kb.lower(x) <= kb.lower(y)
                    assert kb.upper(x) <= kb.upper(y)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_duality_exhaustive(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        for bits in all_subset_masks(size):
            x = ObjectSet(u, bits)
            assert kb.upper(x) == ~kb.lower(~x)
            assert kb.lower(x) == ~kb.upper(~x)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_block_index_names_each_objects_block(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        assert len(kb.block_index) == size
        for i, block in enumerate(kb.block_index):
            assert kb.blocks[block].bits >> i & 1


def test_set_partition_order_is_pinned():
    """The sweeps label "partition i" in this order, and pick a witness by
    block position (the first largest or smallest block), so both orders
    are pinned: `all_knowledge_bases` and `all_partitions` number blocks as
    `set_partitions` lists them, by their last object."""
    assert list(set_partitions(["a", "b", "c"])) == [
        [["a", "b", "c"]],
        [["a"], ["b", "c"]],
        [["a", "b"], ["c"]],
        [["b"], ["a", "c"]],
        [["a"], ["b"], ["c"]],
    ]
    u = default_universe(4)
    listed = list(set_partitions(u.objects))
    # a tie that numbering by first object would swap
    assert listed[6] == [["o2", "o3"], ["o1", "o4"]]
    kbs = list(all_knowledge_bases(u))
    assert [[list(block) for block in kb.blocks] for kb in kbs] == listed
    assert list(all_partitions(4)) == [kb.partition() for kb in kbs]


@pytest.mark.parametrize("size", range(9))
def test_spliced_set_partitions_follow_the_block_ids(size):
    """`set_partitions` splices each partition from one of the rest; it lists
    them in the order, and numbers blocks as, grouping by `_block_ids` does."""
    items = [f"x{i}" for i in range(size)]
    grouped = []
    for ids, sizes in _block_ids(size):
        blocks = [[] for _ in sizes]
        for item, b in zip(items, ids):
            blocks[b].append(item)
        grouped.append(blocks)
    assert list(set_partitions(items)) == grouped


def _derived_block_index(kb):
    """block_index as derived from the blocks alone, not seeded by from_attributes."""
    return KnowledgeBase.from_partition(kb.universe, kb.blocks).block_index


def _check_from_attributes(rows):
    u = Universe(tuple(rows))
    kb = KnowledgeBase.from_attributes(u, rows)
    assert kb.block_index == _derived_block_index(kb)
    by_vector = {}
    for name, vector in rows.items():
        by_vector.setdefault(vector, []).append(name)
    # one block per distinct vector, numbered by first object
    assert kb.blocks == tuple(u.subset(names) for names in by_vector.values())
    for names in by_vector.values():
        assert u.subset(names).bits == sum(1 << u.index(n) for n in names)
    return kb


@pytest.mark.parametrize("seed", range(8))
def test_seeded_block_index_matches_derived_on_random_tables(seed):
    rng = random.Random(seed)
    rows = {f"r{i}": (rng.choice("ab"), str(rng.randrange(rng.randint(1, 40))))
            for i in range(rng.randint(1, 300))}
    _check_from_attributes(rows)


@pytest.mark.parametrize("rows", [1, 2, 9, 200])
def test_seeded_block_index_on_singletons_and_one_block(rows):
    singletons = _check_from_attributes({f"r{i}": (str(i),) for i in range(rows)})
    assert singletons.block_index == tuple(range(rows))
    one_block = _check_from_attributes({f"r{i}": ("same",) for i in range(rows)})
    assert one_block.block_index == (0,) * rows


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_seeded_block_index_matches_derived_on_every_partition(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        rows = {name: (str(kb.block_index[u.index(name)]),) for name in u}
        seeded = _check_from_attributes(rows)
        assert set(seeded.blocks) == set(kb.blocks)
        assert [seeded.blocks[b] for b in seeded.block_index] == [
            kb.blocks[b] for b in kb.block_index
        ]


@pytest.mark.parametrize("size", [2, 3, 4])
def test_approximations_match_set_oracle(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        blocks = [frozenset(block) for block in kb.blocks]
        for bits in all_subset_masks(size):
            x = ObjectSet(u, bits)
            assert frozenset(kb.lower(x)) == oracle_lower(blocks, frozenset(x))
            assert frozenset(kb.upper(x)) == oracle_upper(blocks, frozenset(x))


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        min_size=1,
        max_size=8,
    )
)
def test_attribute_partition_matches_pairwise_equality(vectors):
    names = [f"x{i}" for i in range(len(vectors))]
    u = Universe(tuple(names))
    kb = KnowledgeBase.from_attributes(u, dict(zip(names, vectors)))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            same_block = kb.block_of(a) == kb.block_of(b)
            assert same_block == (vectors[i] == vectors[j])
