import random

import pytest

from pbzlogic import (
    KnowledgeBase,
    LogicSpec,
    ObjectSet,
    Orthopair,
    TruthValue,
    ValueDef,
    all_knowledge_bases,
    all_orthopairs,
    belnap_from_arguments,
    block_values,
    builtin_logic,
    builtin_logics,
    classify,
    default_universe,
    evaluate_logic,
    truth_leq,
    validate_logic,
)
from pbzlogic.logics import (
    _CASE_ORDER,
    BASE_SYMBOLS,
    _partition_failure,
    _validate_brute,
    _witness_block,
)
from pbzlogic.regions import BOUNDARY, NEGATIVE, POSITIVE
from pbzlogic.sevenvalued import DOWNWARD_MEMBERS, UPWARD_MEMBERS

V = TruthValue

BELNAP_MERGE = {"T": "T_B", "sT": "T_B", "U": "U_B", "K": "K_B", "fK": "K_B",
                "sF": "F_B", "F": "F_B"}


def test_builtin_names_and_labels():
    specs = builtin_logics()
    assert [s.name for s in specs] == ["treatment", "triage", "diagnosis", "belnap"]
    assert builtin_logic("triage").labels() == ("hospitalize", "expert", "discharge")
    with pytest.raises(KeyError):
        builtin_logic("nope")


def test_value_def_validation():
    with pytest.raises(ValueError):
        ValueDef("empty")
    with pytest.raises(ValueError):
        ValueDef("bad", up=("XX",))
    with pytest.raises(ValueError):
        LogicSpec("dup", (ValueDef("a", up=("T",)), ValueDef("a", down=("F",))))
    with pytest.raises(ValueError):
        LogicSpec("none", ())


def test_single_value_logic_covers_everything(six_kb, six_pair):
    spec = LogicSpec("all", (ValueDef("everything", up=("F",)),))
    assignment = evaluate_logic(six_kb, six_pair, spec)
    assert assignment["everything"] == six_kb.universe.full()


def test_belnap_on_six_object(six_kb, six_pair):
    assignment = evaluate_logic(six_kb, six_pair, builtin_logic("belnap"))
    assert set(assignment["T_B"]) == {"o1", "o2"}
    assert set(assignment["U_B"]) == set()
    assert set(assignment["K_B"]) == {"o3", "o4"}
    assert set(assignment["F_B"]) == {"o5", "o6"}


def test_treatment_and_triage_on_six_object(six_kb, six_pair):
    treatment = evaluate_logic(six_kb, six_pair, builtin_logic("treatment"))
    assert set(treatment["treat"]) == {"o1", "o2"}
    assert set(treatment["wait"]) == {"o3", "o4", "o5", "o6"}
    triage = evaluate_logic(six_kb, six_pair, builtin_logic("triage"))
    assert set(triage["hospitalize"]) == {"o1", "o2"}
    assert set(triage["expert"]) == {"o3", "o4"}
    assert set(triage["discharge"]) == {"o5", "o6"}


def test_treatment_on_full_concept(six_kb, six_universe):
    everything = Orthopair.from_names(six_universe, list(six_universe), [])
    assignment = evaluate_logic(six_kb, everything, builtin_logic("treatment"))
    assert assignment["treat"] == six_universe.full()
    assert len(assignment["wait"]) == 0


def test_belnap_from_arguments_examples(six_kb, six_universe, six_pair):
    assert belnap_from_arguments(six_kb, six_pair, "o3") == "K_B"
    empty = Orthopair.from_names(six_universe, [], [])
    assert belnap_from_arguments(six_kb, empty, "o1") == "U_B"


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_belnap_routes_agree(size):
    u = default_universe(size)
    belnap = builtin_logic("belnap")
    for kb in all_knowledge_bases(u):
        for p in all_orthopairs(u):
            a, b = p.positive, p.negative
            assignment = evaluate_logic(kb, p, belnap)
            closed = {
                "T_B": kb.upper(a) & kb.lower(~b),
                "U_B": kb.lower(p.boundary),
                "K_B": kb.upper(a) & kb.upper(b),
                "F_B": kb.upper(b) & kb.lower(~a),
            }
            for label, expected in closed.items():
                assert assignment[label] == expected
            for name in u:
                from_args = belnap_from_arguments(kb, p, name)
                assert from_args == assignment.value_of(name)
                assert from_args == BELNAP_MERGE[classify(kb, p, name).symbol]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_diagnosis_equivalent_to_belnap(size):
    u = default_universe(size)
    diagnosis = builtin_logic("diagnosis")
    belnap = builtin_logic("belnap")
    pairing = list(zip(diagnosis.labels(), belnap.labels()))
    for kb in all_knowledge_bases(u):
        for p in all_orthopairs(u):
            d = evaluate_logic(kb, p, diagnosis)
            n = evaluate_logic(kb, p, belnap)
            for dl, nl in pairing:
                assert d[dl] == n[nl]


@pytest.mark.parametrize("name", ["treatment", "triage", "diagnosis", "belnap"])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_builtins_are_valid(name, size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        result = validate_logic(kb, builtin_logic(name))
        assert result.status == "valid"
        # every value the largest block can take evaluated; 3^size concepts covered
        largest = max(len(block) for block in kb.blocks)
        assert result.checked == {1: 3, 2: 6}.get(largest, 7)
        assert result.covers == (3, size)


def _concept(kb, witness):
    """The Orthopair over kb's universe of a verdict's witness masks."""
    positive, negative = witness
    return Orthopair(ObjectSet(kb.universe, positive), ObjectSet(kb.universe, negative))


def test_coverage_failure_has_bottom_witness(six_kb):
    spec = LogicSpec("only-true", (ValueDef("yes", up=("T",)),))
    result = _validate_brute(six_kb, spec)
    assert result.status == "invalid"
    assert result.uncovered is not None
    # first concept in enumeration order is <empty, U>
    witness = _concept(six_kb, result.witness)
    assert set(witness.negative) == set(six_kb.universe)
    assert len(witness.positive) == 0


def test_disjointness_failure(six_kb):
    # sT-up is contained in sF-up, so these two can never be disjoint on a
    # concept with a nonempty true part; F-down keeps coverage intact so the
    # overlap is what gets reported.
    spec = LogicSpec(
        "overlapping",
        (
            ValueDef("a", up=("sT",)),
            ValueDef("b", up=("sF",)),
            ValueDef("c", down=("F",)),
        ),
    )
    result = validate_logic(six_kb, spec)
    assert result.status == "invalid"
    assert result.overlap is not None
    assert result.overlap[:2] == ("a", "b")


def test_case_regions_match_the_classifier():
    # The cases in order.  On blocks of 1, 3 and 2 objects, a case's witness
    # is the first smallest block that can take its value, lifted by
    # `Partition.lift` with the value's regions in the order positive,
    # negative, boundary: the block's objects go one into each, and the
    # rest into the first; every other object is negative.  The witness
    # block takes the case's value.
    kb = KnowledgeBase.from_block_ids(default_universe(6), [0, 1, 1, 1, 2, 2])
    partition, u = kb.partition(), kb.universe
    witnesses = {  # symbol: witness block, positive objects, negative objects
        "T": (0, "o1", "o2 o3 o4 o5 o6"),
        "U": (0, "", "o2 o3 o4 o5 o6"),
        "F": (0, "", "o1 o2 o3 o4 o5 o6"),
        "sT": (2, "o5", "o1 o2 o3 o4"),
        "K": (2, "o5", "o1 o2 o3 o4 o6"),
        "sF": (2, "", "o1 o2 o3 o4 o5"),
        "fK": (1, "o2", "o1 o3 o5 o6"),
    }
    assert _CASE_ORDER == tuple(V(s) for s in "T U F sT K sF fK".split())
    for value in _CASE_ORDER:
        block, positive, negative = witnesses[value.symbol]
        assert _witness_block([1, 3, 2], value) == block
        regions = [(r,) for r in (POSITIVE, NEGATIVE, BOUNDARY) if value.flag & r]
        ((pos, neg),) = partition.lift(partition.rows(block), regions)
        p = Orthopair(ObjectSet(u, pos), ObjectSet(u, neg))
        assert (list(p.positive), list(p.negative)) == (positive.split(), negative.split())
        assert block_values(kb, p)[block] is value


# Belnap with K_B narrowed to fK: K, the fifth case, has no label.
NO_K = LogicSpec("no-K", (
    *builtin_logic("belnap").values[:2],
    ValueDef("fK_B", up=("fK",), down=("fK",)),
    builtin_logic("belnap").values[3],
))


def test_the_first_case_without_a_single_label_fails(six_kb):
    # six_kb's largest block has 2 objects: 6 cases, T to sF
    result = validate_logic(six_kb, NO_K)
    assert (result.status, result.checked) == ("invalid", 5)
    assert set(ObjectSet(six_kb.universe, result.uncovered)) == {"o1", "o2"}
    # with blocks of one object, K is not realisable
    singletons = KnowledgeBase.from_block_ids(default_universe(3), [0, 1, 2])
    assert validate_logic(singletons, NO_K).status == "valid"


def test_validation_detects_corrupted_builtin(six_kb):
    belnap = builtin_logic("belnap")
    corrupted = LogicSpec("belnap-broken", belnap.values[:-1])  # F_B dropped
    result = validate_logic(six_kb, corrupted)
    assert result.status == "invalid"
    assert result.witness is not None


def test_triage_value_table():
    assert builtin_logic("triage").value_table() == {
        V.TRUE: ("hospitalize",),
        V.SOMETIMES_TRUE: ("hospitalize",),
        V.UNKNOWN: ("expert",),
        V.CONTRADICTORY: ("expert",),
        V.FULLY_CONTRADICTORY: ("expert",),
        V.SOMETIMES_FALSE: ("discharge",),
        V.FALSE: ("discharge",),
    }


def test_member_masks_follow_the_truth_order():
    for v in V:
        for w in V:
            assert bool(UPWARD_MEMBERS[v] >> w.flag & 1) == truth_leq(v, w)
            assert bool(DOWNWARD_MEMBERS[v] >> w.flag & 1) == truth_leq(w, v)
        # no bit besides the seven flags'
        assert (UPWARD_MEMBERS[v] | DOWNWARD_MEMBERS[v]) & ~0b1111_1110 == 0


def _members_oracle(up, down):
    """The base values of a derived value, as Python sets: the union of
    the upward sets of `up`, intersected with that of the downward sets of
    `down`, each straight from the truth order."""
    held = [
        {w for symbol in symbols for w in V if leq(V(symbol), w)}
        for symbols, leq in ((up, truth_leq), (down, lambda u, w: truth_leq(w, u)))
        if symbols
    ]
    return set.intersection(*held)


def test_members_mask_matches_set_oracle_exhaustively():
    subsets = [
        tuple(s for i, s in enumerate(BASE_SYMBOLS) if bits >> i & 1)
        for bits in range(1 << len(BASE_SYMBOLS))
    ]
    checked = 0
    for up in subsets:
        for down in subsets:
            if not (up or down):
                continue
            mask = ValueDef("x", up=up, down=down).members()
            assert mask == sum(1 << w.flag for w in _members_oracle(up, down)), (up, down)
            checked += 1
    assert checked == 128 * 128 - 1


OVERLAPPING = LogicSpec(
    "overlapping",
    (ValueDef("act", up=("sT",)), ValueDef("alert", up=("K",)),
     ValueDef("rest", up=("U",), down=("sF",))),
)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_value_table_matches_evaluate_logic(size):
    tables = [(spec, spec.value_table()) for spec in (*builtin_logics(), OVERLAPPING)]
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        for p in all_orthopairs(u):
            by_block = block_values(kb, p)
            values = [by_block[block] for block in kb.block_index]
            for spec, table in tables:
                assignment = evaluate_logic(kb, p, spec)
                for label in spec.labels():
                    held = sum(1 << i for i, v in enumerate(values) if label in table[v])
                    assert assignment[label].bits == held


def test_spec_serialization_round_trip():
    for spec in builtin_logics():
        assert LogicSpec.from_json(spec.to_json()) == spec


def test_assignment_value_of_errors_when_not_partition(six_kb, six_pair):
    spec = LogicSpec("gappy", (ValueDef("yes", up=("T",)),))
    assignment = evaluate_logic(six_kb, six_pair, spec)
    with pytest.raises(ValueError):
        assignment.value_of("o5")


def test_part_and_belnap_information_loss(six_kb):
    # The Belnap value depends only on the argument pair, never on the
    # boundary's upper approximation.
    u = six_kb.universe
    seen = {}
    for p in [Orthopair.from_names(u, ["o1", "o2"], []),
              Orthopair.from_names(u, ["o1", "o2"], ["o3", "o4"])]:
        for name in u:
            key = (
                name in six_kb.upper(p.positive),
                name in six_kb.upper(p.negative),
            )
            value = belnap_from_arguments(six_kb, p, name)
            assert seen.setdefault(key, value) == value


def _random_spec(seed: int) -> LogicSpec:
    """A spec of 1 to 4 derived values, each an up, a down or an up-and-down
    definition over 1 to 3 base values."""
    rng = random.Random(seed)
    values = []
    for i in range(rng.randint(1, 4)):
        kind = rng.choice(("up", "down", "both"))
        up = tuple(rng.sample(BASE_SYMBOLS, rng.randint(1, 3))) if kind != "down" else ()
        down = tuple(rng.sample(BASE_SYMBOLS, rng.randint(1, 3))) if kind != "up" else ()
        values.append(ValueDef(f"v{i}", up=up, down=down))
    return LogicSpec(f"random-{seed}", tuple(values))


RANDOM_SPECS = tuple(_random_spec(seed) for seed in range(40))


@pytest.mark.parametrize(
    "size, specs",
    [
        *((size, builtin_logics() + RANDOM_SPECS) for size in (1, 2, 3, 4)),
        # diagnosis is belnap with other labels, so size 5 leaves it out
        (5, tuple(builtin_logic(n) for n in ("treatment", "triage", "belnap"))
         + (NO_K, OVERLAPPING) + RANDOM_SPECS[:8]),
    ],
    ids=["1", "2", "3", "4", "5"],
)
def test_rule_agrees_with_enumeration(size, specs):
    statuses = set()
    for kb in all_knowledge_bases(default_universe(size)):
        for spec in specs:
            result = validate_logic(kb, spec)
            oracle = _validate_brute(kb, spec)
            assert result.status == oracle.status
            statuses.add(result.status)
            sizes = [len(block) for block in kb.blocks]
            cases = [v for v in _CASE_ORDER if v.flag.bit_count() <= max(sizes)]
            if result.status == "valid":
                # the rule's cases cover the concepts that the oracle enumerated
                base, exponent = result.covers
                assert base**exponent == oracle.checked == 3**size
                assert (result.checked, oracle.covers) == (len(cases), result.covers)
                continue
            assert 1 <= result.checked <= 7
            # the witness fails: some objects have two labels, or none
            witness = _concept(kb, result.witness)
            assignment = evaluate_logic(kb, witness, spec)
            if result.overlap is not None:
                first, second, shared = result.overlap
                shared = ObjectSet(kb.universe, shared)
                assert shared.bits and shared <= assignment[first] & assignment[second]
            else:
                uncovered = ObjectSet(kb.universe, result.uncovered)
                assert uncovered.bits
                assert all(assignment.labels_of(name) == () for name in uncovered)
            # exactly the failure the per-concept check finds on the witness,
            # whose block takes the failing case's value
            failure = {key: getattr(result, key) for key in ("overlap", "uncovered")
                       if getattr(result, key) is not None}
            assert failure == _partition_failure(kb, spec, witness)
            value = cases[result.checked - 1]
            assert block_values(kb, witness)[_witness_block(sizes, value)] is value
    assert statuses == {"valid", "invalid"}
