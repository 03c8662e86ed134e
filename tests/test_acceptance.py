"""Acceptance gate: one pass/fail line per criterion.

Every criterion sweeps all set partitions of universes of size 1-4
(23 knowledge bases) and, where concepts are involved, every orthopair
over each universe (up to 81 per knowledge base).
"""

import csv
import io
import json
from pathlib import Path

from pbzlogic import (
    MUTATIONS,
    KnowledgeBase,
    Orthopair,
    TruthValue,
    Universe,
    all_knowledge_bases,
    all_orthopairs,
    belnap_from_arguments,
    builtin_logic,
    certified,
    check_all,
    classify,
    default_universe,
    evaluate_logic,
    part,
    run_mutation,
    seven_partition,
)
from pbzlogic.cli import build_classification_report, load_table, main, render_json
from pbzlogic.sevenvalued import DOWNWARD_MEMBERS, FORMULATIONS, UPWARD_MEMBERS
from pbzlogic.sevenvalued import downward_part, upward_part

from .oracle import oracle_parts

V = TruthValue
SWEEP_SIZES = (1, 2, 3, 4)
DEMO_CSV = Path(__file__).parent / "data" / "demo.csv"

BELNAP_MERGE = {"T": "T_B", "sT": "T_B", "U": "U_B", "K": "K_B", "fK": "K_B",
                "sF": "F_B", "F": "F_B"}


def _verdict(number: int, title: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({title}) failed"


def _sweep():
    for size in SWEEP_SIZES:
        u = default_universe(size)
        for kb in all_knowledge_bases(u):
            yield u, kb


def test_acceptance_1_axiom_certification():
    ok = all(certified(check_all(kb)) for _, kb in _sweep())
    _verdict(1, "axiom certification on all size 1-4 partitions", ok)


def test_acceptance_2_seven_way_partition():
    ok = True
    for u, kb in _sweep():
        for p in all_orthopairs(u):
            sp = seven_partition(kb, p)  # raises on overlap / gap
            covered = 0
            for v in V:
                s = sp[v].bits
                ok = ok and covered & s == 0
                covered |= s
            ok = ok and covered == u.full_mask
    _verdict(2, "seven parts partition U for every concept", ok)


def test_acceptance_3_three_formulation_agreement():
    nontrivial_up = [v for v in V if v is not V.FALSE]
    nontrivial_down = [v for v in V if v is not V.TRUE]
    ok = True
    for u, kb in _sweep():
        for p in all_orthopairs(u):
            for v in V:
                base = {f: part(kb, p, v, f) for f in FORMULATIONS}
                ok = ok and len(set(s.bits for s in base.values())) == 1
            for v in nontrivial_up:
                ups = {f: upward_part(kb, p, v, f) for f in FORMULATIONS}
                ok = ok and len(set(s.bits for s in ups.values())) == 1
            for v in nontrivial_down:
                downs = {f: downward_part(kb, p, v, f) for f in FORMULATIONS}
                ok = ok and len(set(s.bits for s in downs.values())) == 1
    _verdict(3, "classwise/approximation/lattice formulations agree", ok)


def test_acceptance_4_belnap_equivalence():
    belnap = builtin_logic("belnap")
    ok = True
    for u, kb in _sweep():
        for p in all_orthopairs(u):
            a, b = p.positive, p.negative
            assignment = evaluate_logic(kb, p, belnap)
            closed = {
                "T_B": kb.upper(a) & kb.lower(~b),
                "U_B": kb.lower(p.boundary),
                "K_B": kb.upper(a) & kb.upper(b),
                "F_B": kb.upper(b) & kb.lower(~a),
            }
            for label in belnap.labels():
                ok = ok and assignment[label] == closed[label]
            for name in u:
                routes = {
                    belnap_from_arguments(kb, p, name),
                    assignment.value_of(name),
                    BELNAP_MERGE[classify(kb, p, name).symbol],
                }
                ok = ok and len(routes) == 1
    _verdict(4, "four Belnap evaluation routes agree", ok)


def test_acceptance_5_treatment_identity():
    ok = True
    for u, kb in _sweep():
        for p in all_orthopairs(u):
            a, b = p.positive, p.negative
            treat = part(kb, p, V.TRUE) | part(kb, p, V.SOMETIMES_TRUE)
            ok = ok and treat == kb.lower(~b) & kb.upper(a)
            ok = ok and ~treat == kb.upper(b) | kb.lower(p.boundary)
    _verdict(5, "treatment split identity", ok)


def _demo_concept(universe):
    """The concept of demo.csv's decision column, read apart from load_table."""
    with DEMO_CSV.open(newline="") as f:
        rows = list(csv.reader(f))[1:]
    return Orthopair.from_names(
        universe, [r[0] for r in rows if r[-1] == "yes"], [r[0] for r in rows if r[-1] == "no"]
    )


def test_acceptance_6_six_object_fixture_vs_oracle():
    table = load_table(DEMO_CSV)
    kb = KnowledgeBase.from_block_ids(Universe(tuple(table.objects)), table.block_ids)
    pair = _demo_concept(kb.universe)
    blocks = [frozenset(block) for block in kb.blocks]
    expected = oracle_parts(blocks, frozenset(pair.positive), frozenset(pair.negative))
    sp = seven_partition(kb, pair)
    ok = all(frozenset(sp[v]) == expected[v.symbol] for v in V)
    ok = ok and frozenset(sp[V.TRUE]) == {"o1", "o2"}
    ok = ok and frozenset(sp[V.CONTRADICTORY]) == {"o3", "o4"}
    ok = ok and frozenset(sp[V.SOMETIMES_FALSE]) == {"o5", "o6"}
    triage = evaluate_logic(kb, pair, builtin_logic("triage"))
    ok = ok and triage.counts() == {"hospitalize": 2, "expert": 2, "discharge": 2}
    # the table's flags give every object its value in the seven partition
    values = table.block_values()
    ok = ok and [values[b] for b in table.block_ids] == [sp.value_of(n) for n in kb.universe]
    _verdict(6, "six-object fixture matches independent oracle", ok)


def test_acceptance_7_mutation_sensitivity():
    u = default_universe(3)
    kb = next(
        k for k in all_knowledge_bases(u) if len(k.blocks) == 2
    )
    ok = True
    for name in MUTATIONS:
        reports = run_mutation(kb, name)
        ok = ok and any(r.status == "counterexample" for r in reports)
    _verdict(7, "every documented mutation is detected", ok)


def test_acceptance_8_cli_determinism_and_round_trip(capsys):
    argv = ["classify", "--input", str(DEMO_CSV), "--logic", "triage",
            "--format", "json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    ok = first == second

    parsed = json.loads(first)
    in_memory = build_classification_report(
        load_table(DEMO_CSV), builtin_logic("triage"),
        parsed["provenance"]["input_sha256"], parsed["provenance"]["config"],
    )
    rendered = io.StringIO()
    render_json(in_memory, rendered)
    ok = ok and parsed == json.loads(rendered.getvalue())
    ok = ok and json.dumps(parsed, indent=2, sort_keys=True) + "\n" == first
    _verdict(8, "CLI reports are deterministic and round-trip", ok)
