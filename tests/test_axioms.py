import itertools
import time

import pytest

from pbzlogic import (
    AXIOMS,
    MUTATIONS,
    KnowledgeBase,
    TermError,
    Universe,
    all_knowledge_bases,
    certified,
    check_all,
    check_axiom,
    default_universe,
    run_mutation,
)
from pbzlogic import axioms, brute, verdicts
from pbzlogic.brute import mutated_ops, standard_ops
from pbzlogic.sweep import all_orthopair_masks, all_partitions
from pbzlogic.partition import Partition, type_pairs


def _all_pairs_including_overlapping(size: int):
    """Every pair of masks over `size` positions, overlapping ones too: the
    elements of the drop-disjointness mutation for the brute engine."""
    full = (1 << size) - 1
    for a in range(full + 1):
        for b in range(full + 1):
            yield (a, b)


def _implies(hyp, con):
    return con if hyp else True


def _distributivity(o, p, q, r):
    return o.meet(p, o.join(q, r)) == o.join(o.meet(p, q), o.meet(p, r)) and o.join(
        p, o.meet(q, r)
    ) == o.meet(o.join(p, q), o.join(p, r))


# The axioms as hand-written lambdas over LatticeOps, with their arity and
# pointwise flag: the oracle of the compiled `AXIOMS[...].predicate`.
ORACLE = {
    "bounds": (1, True, lambda o, p: o.leq(o.bottom, p) and o.leq(p, o.top)),
    "distributivity": (3, True, _distributivity),
    "K1": (1, True, lambda o, p: o.kleene(o.kleene(p)) == p),
    "K2": (2, True,
           lambda o, p, q: o.kleene(o.join(p, q)) == o.meet(o.kleene(p), o.kleene(q))),
    "K3": (2, True,
           lambda o, p, q: o.leq(o.meet(p, o.kleene(p)), o.join(q, o.kleene(q)))),
    "B1": (1, True, lambda o, p: o.meet(p, o.brouwer(o.brouwer(p))) == p),
    "B2": (2, True,
           lambda o, p, q: o.brouwer(o.join(p, q)) == o.meet(o.brouwer(p), o.brouwer(q))),
    "B3": (1, True, lambda o, p: o.meet(p, o.brouwer(p)) == o.bottom),
    "in": (1, True, lambda o, p: o.leq(o.brouwer(p), o.kleene(p))),
    "s-in": (1, True, lambda o, p: o.brouwer(o.brouwer(p)) == o.kleene(o.brouwer(p))),
    "B2a": (2, True,
            lambda o, p, q: o.brouwer(o.meet(p, q)) == o.join(o.brouwer(p), o.brouwer(q))),
    "A1": (1, False, lambda o, p: o.kleene(o.pawlak(p)) == o.pawlak(o.kleene(p))),
    "A2": (2, False, lambda o, p, q: _implies(
        o.leq(p, q), o.leq(o.brouwer(o.pawlak(q)), o.brouwer(o.pawlak(p))))),
    "A3": (1, False, lambda o, p: o.leq(o.brouwer(o.pawlak(p)), o.brouwer(p))),
    "A4": (0, False, lambda o: o.pawlak(o.bottom) == o.bottom),
    "A5": (2, False, lambda o, p, q: _implies(
        o.brouwer(p) == o.brouwer(q),
        o.meet(o.pawlak(p), o.pawlak(q)) == o.pawlak(o.meet(p, q)))),
    "A6": (2, False, lambda o, p, q: o.leq(
        o.join(o.pawlak(p), o.pawlak(q)), o.pawlak(o.join(p, q)))),
    "A7": (1, False, lambda o, p: o.pawlak(o.pawlak(p)) == o.pawlak(p)),
    "A8": (1, False,
           lambda o, p: o.pawlak(o.brouwer(o.pawlak(p))) == o.brouwer(o.pawlak(p))),
    "A9": (2, False, lambda o, p, q: o.pawlak(o.meet(o.pawlak(p), o.pawlak(q)))
           == o.meet(o.pawlak(p), o.pawlak(q))),
}


@pytest.fixture
def kb3():
    u = Universe.of("x", "y", "z")
    return KnowledgeBase.from_partition(u, [u.subset(["x", "y"]), u.subset(["z"])])


def test_axiom_catalogue():
    expected = {
        "bounds", "distributivity",
        "K1", "K2", "K3", "B1", "B2", "B3", "in", "s-in", "B2a",
        "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9",
    }
    assert set(AXIOMS) == expected


def test_equations_derive_the_hand_written_arity_and_pointwise_flag():
    assert list(AXIOMS) == list(ORACLE)
    for ident, (arity, pointwise, _) in ORACLE.items():
        assert (AXIOMS[ident].arity, AXIOMS[ident].pointwise) == (arity, pointwise), ident


@pytest.mark.parametrize("size", [1, 2, 3])
def test_compiled_equations_agree_with_the_oracle(size):
    # every tuple, under the standard operators and each operator mutation;
    # drop-disjointness keeps the standard operators on overlapping pairs
    for kb in all_knowledge_bases(default_universe(size)):
        configs = [(standard_ops(kb), list(all_orthopair_masks(size)))]
        configs += [(mutated_ops(kb, m), configs[0][1])
                    for m in MUTATIONS if m != "drop-disjointness"]
        configs.append((standard_ops(kb), list(_all_pairs_including_overlapping(size))))
        for ident, (arity, _, oracle) in ORACLE.items():
            if arity == 3 and size == 3:
                continue
            predicate = AXIOMS[ident].predicate
            for ops, pairs in configs:
                for tup in itertools.product(pairs, repeat=arity):
                    assert predicate(ops, *tup) == oracle(ops, *tup), (ident, kb.blocks, tup)


def test_unknown_axiom_rejected(kb3):
    with pytest.raises(ValueError):
        check_axiom(kb3, "Z9")


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_k1_holds_with_full_case_count(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        report = check_axiom(kb, "K1")
        assert report.status == "holds"
        # the three one-object types evaluated; the 3^size orthopairs covered
        assert (report.cases_checked, report.covers) == (3, (3, size))


@pytest.mark.parametrize("size", [1, 2, 3])
def test_all_axioms_hold_exhaustively(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        assert certified(check_all(kb))


def test_one_size_four_partition_certifies():
    u = default_universe(4)
    kb = KnowledgeBase.from_partition(
        u, [u.subset(["o1", "o2"]), u.subset(["o3", "o4"])]
    )
    reports = check_all(kb)
    assert certified(reports)
    distrib = next(r for r in reports if r.axiom == "distributivity")
    assert (distrib.cases_checked, distrib.covers) == (27, (3, 4 * 3))  # 81^3 triples


def test_all_size_five_partitions_certify():
    u = default_universe(5)
    kbs = list(all_knowledge_bases(u))
    assert len(kbs) == 52
    for kb in kbs:
        assert certified(check_all(kb))


def test_size_six_sampled_partitions():
    # at size 6 only a few partitions are exercised
    u = default_universe(6)
    kbs = list(all_knowledge_bases(u))
    for kb in kbs[:: max(1, len(kbs) // 3)]:
        assert certified(check_all(kb))


def test_six_object_kb_certifies(six_kb):
    reports = check_all(six_kb)
    assert certified(reports)
    distrib = next(r for r in reports if r.axiom == "distributivity")
    assert (distrib.cases_checked, distrib.covers) == (27, (3, 6 * 3))


def test_a_counterexample_counts_the_cases_up_to_it():
    # under pawlak-upper-on-both, A5 first fails on the 19th of its 45
    # reduced cases on a two-object block
    u = default_universe(2)
    kb = KnowledgeBase.from_partition(u, [u.full()])
    found = next(r for r in run_mutation(kb, "pawlak-upper-on-both") if r.axiom == "A5")
    assert (found.status, found.cases_checked) == ("counterexample", 19)
    assert not AXIOMS["A5"].predicate(mutated_ops(kb, "pawlak-upper-on-both"), *found.witness)


def test_mutations_all_detected_on_three_objects(kb3):
    for name in MUTATIONS:
        reports = run_mutation(kb3, name)
        bad = [r for r in reports if r.status == "counterexample"]
        assert bad, f"mutation {name!r} slipped through"


def test_witness_reevaluates_to_violation(kb3):
    ops = mutated_ops(kb3, "brouwer-as-kleene")
    reports = [r for r in check_all(kb3, ops=ops) if r.status == "counterexample"]
    assert reports
    for report in reports:
        axiom = AXIOMS[report.axiom]
        assert not axiom.predicate(ops, *report.witness)
        # the genuine operators satisfy the axiom on the same witness
        assert axiom.predicate(standard_ops(kb3), *report.witness)


def test_witness_names_render(kb3):
    ops = mutated_ops(kb3, "kleene-identity")
    report = check_axiom(kb3, "K2", ops=ops)
    assert report.status == "counterexample"
    rendered = verdicts.axiom_entry(report)["witness"]
    assert len(rendered) == AXIOMS["K2"].arity
    assert all(set(entry) == {"positive", "negative"} for entry in rendered)


def test_an_equation_needs_a_relation():
    with pytest.raises(TermError, match="expected '=' or '<='"):
        axioms._axiom("X", "a")


def test_unknown_mutation_rejected(kb3):
    with pytest.raises(ValueError):
        run_mutation(kb3, "nope")


def test_mutated_ops_rejects_an_unknown_mutation(kb3):
    with pytest.raises(ValueError, match="unknown mutation 'nope'"):
        mutated_ops(kb3, "nope")


def test_elements_alone_are_checked_under_the_standard_operators(kb3):
    # given elements and no operators, the brute engine takes kb's standard ones
    elements = [(0, 0b111), (0b001, 0b110), (0b011, 0), (0b111, 0)]
    report = check_axiom(kb3, "K2", elements=elements)
    assert (report.status, report.cases_checked, report.covers) == ("holds", 16, (4, 2))
    assert report == check_axiom(kb3, "K2", ops=standard_ops(kb3), elements=elements)


def test_drop_disjointness_has_no_mutated_operators(kb3):
    # it changes the elements: the standard operators on overlapping pairs
    with pytest.raises(ValueError, match="changes the elements, not the operators"):
        mutated_ops(kb3, "drop-disjointness")


# --- reduced engine against the brute engine ---------------------------------

CONFIGS = (None, *MUTATIONS)


def _brute_reports(kb, mutation, idents):
    if mutation == "drop-disjointness":
        ops, elements = standard_ops(kb), list(_all_pairs_including_overlapping(kb.universe.size))
    else:
        ops = standard_ops(kb) if mutation is None else mutated_ops(kb, mutation)
        elements = None
    return [check_axiom(kb, ident, ops=ops, elements=elements) for ident in idents], ops


@pytest.mark.parametrize("mutation", CONFIGS, ids=lambda m: m or "standard")
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_reduced_engine_matches_brute_engine(size, mutation):
    # At size 4 the brute distributivity check costs 81^3 (or, past its
    # limit, 256^3) per knowledge base; the allowed difference is pinned below.
    idents = [i for i in AXIOMS if size < 4 or i != "distributivity"]
    for kb in all_knowledge_bases(default_universe(size)):
        reduced = check_all(kb) if mutation is None else run_mutation(kb, mutation)
        reduced = [r for r in reduced if r.axiom in idents]
        brute, ops = _brute_reports(kb, mutation, idents)
        for fast, slow in zip(reduced, brute):
            assert fast.axiom == slow.axiom
            assert fast.status == slow.status, (kb.blocks, mutation, fast.axiom)
            if fast.status == "holds":
                # the reduced verdict covers the tuples that the brute one enumerated
                (base, exponent), (b, e) = fast.covers, slow.covers
                assert base**exponent == slow.cases_checked == b**e
                assert fast.cases_checked <= slow.cases_checked
            elif fast.status == "counterexample":
                assert not AXIOMS[fast.axiom].predicate(ops, *fast.witness)


def test_reduced_engine_decides_overlapping_distributivity():
    # The one allowed difference: over 4^4 overlapping pairs distributivity
    # is past the brute engine's limit, and the reduced engine decides it.
    kb = next(all_knowledge_bases(default_universe(4)))
    reduced = next(r for r in run_mutation(kb, "drop-disjointness")
                   if r.axiom == "distributivity")
    assert reduced.status == "holds"
    assert (reduced.cases_checked, reduced.covers) == (4**3, (4, 4 * 3))  # 256^3 triples
    elements = list(_all_pairs_including_overlapping(4))
    with pytest.raises(ValueError, match=r"256\^3 tuples"):
        check_axiom(kb, "distributivity", ops=standard_ops(kb), elements=elements)


def test_pointwise_axioms_never_apply_the_approximation():
    u = default_universe(2)
    kb = KnowledgeBase.from_partition(u, [u.full()])

    def refuse(p):
        raise AssertionError("approximation applied")

    ops = standard_ops(kb)._replace(pawlak=refuse)
    pairs = list(all_orthopair_masks(2))
    for axiom in AXIOMS.values():
        if axiom.pointwise:
            for tup in itertools.product(pairs, repeat=axiom.arity):
                axiom.predicate(ops, *tup)
        else:
            with pytest.raises(AssertionError, match="approximation"):
                for tup in itertools.product(pairs, repeat=axiom.arity):
                    axiom.predicate(ops, *tup)


def _skewed_kb(size, blocks):
    """One large block and blocks - 1 singletons."""
    u = default_universe(size)
    names = list(u)
    cut = size - blocks + 1
    return KnowledgeBase.from_partition(
        u, [u.subset(names[:cut])] + [u.subset([n]) for n in names[cut:]]
    )


@pytest.mark.parametrize(
    "axiom_id, reduced_cases",
    [("K3", 3**2), ("distributivity", 3**3), ("A1", 3 + 3 + 1), ("A2", 2**9 - 1)],
)
def test_reduced_case_counts_on_a_block_of_nine(axiom_id, reduced_cases):
    kb = _skewed_kb(10, blocks=2)  # largest block: 9 objects
    arity = AXIOMS[axiom_id].arity
    exact = check_axiom(kb, axiom_id)
    assert exact.status == "holds"
    assert (exact.cases_checked, exact.covers) == (reduced_cases, (3, 10 * arity))


def test_brute_engine_builds_nothing_exponential_in_the_universe():
    # standard_ops computes lower approximations on demand, and the brute
    # engine counts the 3^40 orthopairs and refuses them without listing them
    start = time.perf_counter()
    ops = standard_ops(_skewed_kb(64, blocks=8))  # a block of 57 and 7 singletons
    assert ops.upper(1) == (1 << 57) - 1
    assert ops.pawlak((1, 1 << 63)) == (0, 1 << 63)
    kb40 = _skewed_kb(40, blocks=4)
    with pytest.raises(ValueError, match=r"3\^40 tuples"):
        check_axiom(kb40, "K1", ops=standard_ops(kb40))
    assert time.perf_counter() - start < 1.0


def test_the_brute_engine_enumerates_up_to_its_limit():
    # 1,414^2 = 1,999,396 tuples are enumerated: K2 under kleene-identity
    # fails at the first pair of distinct elements, the second tuple.
    # 1,415^2 = 2,002,225 are refused before any operator is applied.
    kb = _skewed_kb(7, blocks=1)
    elements = list(itertools.islice(all_orthopair_masks(7), 1_415))
    ops = mutated_ops(kb, "kleene-identity")
    report = check_axiom(kb, "K2", ops=ops, elements=elements[:1_414])
    assert (report.status, report.cases_checked) == ("counterexample", 2)
    assert report.witness == tuple(elements[:2])

    def refuse(p, q):
        raise AssertionError("a tuple evaluated")

    with pytest.raises(ValueError, match=r"1415\^2 tuples.* limit of 2,000,000"):
        check_axiom(kb, "K2", ops=ops._replace(join=refuse, meet=refuse), elements=elements)


def test_sixteen_objects_certify_without_enumeration(monkeypatch):
    def refuse_orthopairs(size):
        raise AssertionError("orthopairs enumerated")

    def small_ops_only(kb):
        assert kb.universe.size <= 9, "operators built on the whole knowledge base"
        return standard_ops(kb)

    monkeypatch.setattr(brute, "all_orthopair_masks", refuse_orthopairs)
    monkeypatch.setattr(brute, "standard_ops", small_ops_only)
    kb = _skewed_kb(16, blocks=7)
    reports = check_all(kb)
    assert certified(reports)
    a2 = next(r for r in reports if r.axiom == "A2")
    assert (a2.cases_checked, a2.covers) == (2**9 - 1, (3, 16 * 2))  # a block of 10


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_witness_is_bottom_off_the_largest_block(mutation):
    # the failing type set goes on the first largest block, and every
    # variable is bottom on the other blocks (module docstring)
    for size in (1, 2, 3, 4):
        for kb in all_knowledge_bases(default_universe(size)):
            outside = kb.universe.full_mask ^ max(kb.blocks, key=len).bits
            for report in run_mutation(kb, mutation):
                for pos, neg in report.witness or ():
                    assert (pos & outside, neg & outside) == (0, outside)
                    if mutation != "drop-disjointness":
                        assert pos & neg == 0


class _PartitionWithoutRows(Partition):
    def rows(self, block):
        raise AssertionError(f"read the rows of block {block}")


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_a_passing_check_reads_only_the_block_sizes(size):
    # a hold needs the largest block's size alone: the rows of its block,
    # a scan of every object, are read only to place a counterexample
    for partition in all_partitions(size):
        assert certified(axioms.check_blocks(_PartitionWithoutRows(*partition)))


def test_a_lift_onto_a_large_block_takes_linear_time():
    # the witness masks are built in byte buffers: setting each member's bit
    # in an int would copy the |U|-bit mask for every member
    type_set = ((1, 0, 2), (2, 1, 0), (0, 3, 1))
    members = [1, 3, 4, 6, 7]
    filled = type_set + (type_set[0],) * 2
    outside = 0b1111_1111 ^ sum(1 << i for i in members)
    partition = Partition([f"o{i}" for i in range(8)], [0, 1, 0, 1, 1, 0, 1, 1], [3, 5])
    assert partition.lift(members, type_set) == tuple(
        (pos, neg | outside) for pos, neg in type_pairs(filled, members, 3))
    size = 1 << 19
    partition = Partition(range(size), [0] + [1] * (size - 1), [1, size - 1])
    start = time.perf_counter()
    witness = partition.lift(range(1, size), type_set)
    assert time.perf_counter() - start < 2.0
    assert witness[0] == (0b10 | ((1 << size) - 1) ^ 0b1111, 0b101)
