import pytest

from pbzlogic import (
    FORMULATIONS,
    KnowledgeBase,
    ObjectSet,
    Orthopair,
    TruthValue,
    Universe,
    UniverseMismatchError,
    all_knowledge_bases,
    all_orthopairs,
    block_values,
    classify,
    default_universe,
    downward_part,
    eval_term,
    kleene,
    part,
    seven_partition,
    truth_leq,
    upward_part,
)
from pbzlogic.sevenvalued import (
    BASE_TERMS,
    BOUNDARY,
    DOWNWARD_MEMBERS,
    DOWNWARD_TERMS,
    NEGATIVE,
    POSITIVE,
    UPWARD_MEMBERS,
    UPWARD_TERMS,
)

from .oracle import oracle_parts

V = TruthValue


def symbols_of(partition):
    return {v.symbol: set(s) for v, s in partition.parts.items() if s.bits}


def test_identity_partition_parts():
    u = Universe.of("a", "b", "c", "d")
    kb = KnowledgeBase.from_partition(u, [u.subset([n]) for n in u])
    p = Orthopair.from_names(u, ["a"], ["b"])
    assert part(kb, p, V.TRUE) == p.positive
    assert part(kb, p, V.FALSE) == p.negative
    assert part(kb, p, V.UNKNOWN) == p.boundary
    for v in (V.SOMETIMES_TRUE, V.CONTRADICTORY, V.FULLY_CONTRADICTORY, V.SOMETIMES_FALSE):
        assert len(part(kb, p, v)) == 0


def test_six_object_parts_all_formulations(six_kb, six_pair):
    for formulation in FORMULATIONS:
        sp = seven_partition(six_kb, six_pair, formulation)
        assert symbols_of(sp) == {
            "T": {"o1", "o2"},
            "K": {"o3", "o4"},
            "sF": {"o5", "o6"},
        }


def test_counts_name_every_value(six_kb, six_pair):
    # the README's Library example
    assert seven_partition(six_kb, six_pair).counts() == {
        "T": 2, "sT": 0, "U": 0, "K": 2, "fK": 0, "sF": 2, "F": 0,
    }


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_part_rejects_an_orthopair_over_another_universe(six_kb, formulation):
    p = Orthopair.from_names(Universe.of("o1", "o2"), ["o1"], [])
    with pytest.raises(UniverseMismatchError, match="different universe"):
        part(six_kb, p, V.TRUE, formulation)


def test_one_block_kb_is_fully_contradictory():
    u = Universe.of("a", "b", "c")
    kb = KnowledgeBase.from_partition(u, [u.full()])
    p = Orthopair.from_names(u, ["a"], ["b"])
    sp = seven_partition(kb, p)
    assert symbols_of(sp) == {"fK": {"a", "b", "c"}}


def test_trivial_concepts(six_kb, six_universe):
    empty = Orthopair.from_names(six_universe, [], [])
    assert symbols_of(seven_partition(six_kb, empty)) == {"U": set(six_universe)}
    everything = Orthopair.from_names(six_universe, list(six_universe), [])
    assert symbols_of(seven_partition(six_kb, everything)) == {"T": set(six_universe)}


def test_classify_examples(six_kb, six_pair):
    assert classify(six_kb, six_pair, "o1") is V.TRUE
    assert classify(six_kb, six_pair, "o4") is V.CONTRADICTORY
    assert classify(six_kb, six_pair, "o6") is V.SOMETIMES_FALSE
    with pytest.raises(KeyError):
        classify(six_kb, six_pair, "nope")


def test_classify_identity_partition():
    u = Universe.of("a", "b")
    kb = KnowledgeBase.from_partition(u, [u.subset([n]) for n in u])
    p = Orthopair.from_names(u, ["a"], [])
    assert classify(kb, p, "a") is V.TRUE


def test_aggregation_examples(six_kb, six_universe, six_pair):
    assert upward_part(six_kb, six_pair, V.TRUE) == part(six_kb, six_pair, V.TRUE)
    assert upward_part(six_kb, six_pair, V.FALSE) == six_universe.full()
    assert downward_part(six_kb, six_pair, V.TRUE) == six_universe.full()
    assert downward_part(six_kb, six_pair, V.FALSE) == part(six_kb, six_pair, V.FALSE)
    assert upward_part(six_kb, six_pair, V.SOMETIMES_TRUE).names() == ("o1", "o2")
    assert upward_part(six_kb, six_pair, V.FULLY_CONTRADICTORY).names() == ("o1", "o2")
    assert downward_part(six_kb, six_pair, V.SOMETIMES_FALSE).names() == ("o5", "o6")


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sweep_partition_and_agreement(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        for p in all_orthopairs(u):
            sp = seven_partition(kb, p, "classwise")
            covered = 0
            for v in V:
                s = sp[v]
                assert covered & s.bits == 0
                covered |= s.bits
                assert part(kb, p, v, "approximation") == s
                assert part(kb, p, v, "lattice") == s
            assert covered == u.full_mask
            for name in u:
                assert name in sp[classify(kb, p, name)]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_block_values_agree_with_every_formulation(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        blocks = [frozenset(block) for block in kb.blocks]
        for p in all_orthopairs(u):
            values = block_values(kb, p)
            single_pass = {v: 0 for v in V}
            for i, name in enumerate(u):
                value = values[kb.block_index[i]]
                assert classify(kb, p, name) is value
                single_pass[value] |= 1 << i
            for formulation in FORMULATIONS:
                sp = seven_partition(kb, p, formulation)
                assert {v: sp[v].bits for v in V} == single_pass
            expected = oracle_parts(blocks, frozenset(p.positive), frozenset(p.negative))
            assert {
                v.symbol: frozenset(ObjectSet(u, bits)) for v, bits in single_pass.items()
            } == expected


def test_formulation_terms_decide_every_type_set():
    # The 7 single-block type sets: a block with one object in each region
    # of the flag.  A term is unary, so by steps 1-3 of the `axioms`
    # docstring its positive region on any knowledge base of any size is the
    # union of the blocks whose flag gives the whole block here.  So these
    # 147 evaluations decide "lattice = classwise" for every size; the
    # sweeps above stop at size 5.
    for flag in range(1, 8):
        regions = [r for r in (POSITIVE, NEGATIVE, BOUNDARY) if flag & r]
        u = Universe(tuple(f"o{i}" for i in range(len(regions))))
        kb = KnowledgeBase.from_partition(u, [u.full()])
        p = Orthopair(
            ObjectSet(u, sum(1 << i for i, r in enumerate(regions) if r == POSITIVE)),
            ObjectSet(u, sum(1 << i for i, r in enumerate(regions) if r == NEGATIVE)),
        )
        for terms, holds in (
            (BASE_TERMS, lambda v: v.flag == flag),
            (UPWARD_TERMS, lambda v: UPWARD_MEMBERS[v] >> flag & 1),
            (DOWNWARD_TERMS, lambda v: DOWNWARD_MEMBERS[v] >> flag & 1),
        ):
            for v in V:
                expected = u.full() if holds(v) else u.empty()
                assert eval_term(kb, p, terms[v]).positive == expected, (flag, terms[v])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sweep_aggregations(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        for p in all_orthopairs(u):
            base = {v: part(kb, p, v) for v in V}
            for v in V:
                up_union = u.empty()
                for m in V:
                    if UPWARD_MEMBERS[v] >> m.flag & 1:
                        up_union = up_union | base[m]
                assert upward_part(kb, p, v) == up_union
                assert upward_part(kb, p, v, "classwise") == up_union
                assert upward_part(kb, p, v, "lattice") == up_union
                down_union = u.empty()
                for m in V:
                    if DOWNWARD_MEMBERS[v] >> m.flag & 1:
                        down_union = down_union | base[m]
                assert downward_part(kb, p, v) == down_union
                assert downward_part(kb, p, v, "classwise") == down_union
                assert downward_part(kb, p, v, "lattice") == down_union
            # sF-up is everything except the false part
            assert upward_part(kb, p, V.SOMETIMES_FALSE) == ~base[V.FALSE]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_mirror_duality(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        for p in all_orthopairs(u):
            q = kleene(p)
            for v in V:
                assert part(kb, p, v) == part(kb, q, v.mirror())


@pytest.mark.parametrize("size", [1, 2, 3])
def test_treatment_split_identity(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        for p in all_orthopairs(u):
            a, b = p.positive, p.negative
            treat = part(kb, p, V.TRUE) | part(kb, p, V.SOMETIMES_TRUE)
            assert treat == kb.lower(~b) & kb.upper(a)
            assert ~treat == kb.upper(b) | kb.lower(p.boundary)


def test_treatment_split_six(six_kb, six_pair):
    treat = part(six_kb, six_pair, V.TRUE) | part(six_kb, six_pair, V.SOMETIMES_TRUE)
    assert treat == six_kb.lower(~six_pair.negative) & six_kb.upper(six_pair.positive)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_parts_match_set_oracle(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        blocks = [frozenset(block) for block in kb.blocks]
        for p in all_orthopairs(u):
            expected = oracle_parts(blocks, frozenset(p.positive), frozenset(p.negative))
            for v in V:
                assert frozenset(part(kb, p, v)) == expected[v.symbol]


@pytest.mark.parametrize("flag", range(1, 8))
def test_flag_table_matches_the_oracle(flag):
    # one block of 3 objects meeting exactly the regions of `flag`:
    # bit 1 the positive region, bit 2 the negative one, bit 4 the boundary
    u = Universe.of("x", "y", "z")
    kb = KnowledgeBase.from_partition(u, [u.full()])
    regions = [bit for bit in (1, 2, 4) if flag & bit]
    region_of = {name: regions[i % len(regions)] for i, name in enumerate(u)}
    a = frozenset(n for n, r in region_of.items() if r == 1)
    b = frozenset(n for n, r in region_of.items() if r == 2)
    (value,) = block_values(kb, Orthopair.from_names(u, a, b))
    assert value.flag == flag
    assert oracle_parts([frozenset(u)], a, b)[value.symbol] == frozenset(u)


def test_truth_order():
    assert truth_leq(V.FALSE, V.SOMETIMES_FALSE)
    assert truth_leq(V.SOMETIMES_FALSE, V.UNKNOWN)
    assert truth_leq(V.UNKNOWN, V.SOMETIMES_TRUE)
    assert truth_leq(V.SOMETIMES_TRUE, V.TRUE)
    assert truth_leq(V.FALSE, V.TRUE)
    assert not truth_leq(V.UNKNOWN, V.CONTRADICTORY)
    assert not truth_leq(V.CONTRADICTORY, V.UNKNOWN)
    assert all(truth_leq(v, v) for v in V)


def test_mirror_is_involution():
    for v in V:
        assert v.mirror().mirror() is v


def test_bad_formulation(six_kb, six_pair):
    with pytest.raises(ValueError):
        part(six_kb, six_pair, V.TRUE, "nope")
