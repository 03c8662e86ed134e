import pytest

from pbzlogic import (
    LogicSpec,
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
    validate_logic,
)

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
        assert result.exhaustive
        assert result.checked == 3**size


def test_coverage_failure_has_bottom_witness(six_kb):
    spec = LogicSpec("only-true", (ValueDef("yes", up=("T",)),))
    result = validate_logic(six_kb, spec)
    assert result.status == "invalid"
    assert result.uncovered is not None
    # first concept in enumeration order is <empty, U>
    assert set(result.witness.negative) == set(six_kb.universe)
    assert len(result.witness.positive) == 0


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


def test_validation_undecided_under_tiny_budget(six_kb):
    result = validate_logic(six_kb, builtin_logic("belnap"), budget=10)
    assert result.status == "undecided"
    assert not result.exhaustive
    assert result.checked == 10


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
