"""Fast self-tests of the benchmark: generators, checker, tracer, set-up."""

from __future__ import annotations

import json
import sys

import pytest

import run
from checker import (
    SEVEN_ORDER, TRIAGE, TRIAGE_ORDER, VERIFY_AXIOMS, check, expected_classification,
)
from tracing import Tracer, summarize
from workloads import (
    WORKLOADS, Table, set_partition_shapes, shaped_table, sweep_descriptors, uniform_table,
)

TABLE_WORKLOADS = [name for name, w in WORKLOADS.items() if w.make_table]


@pytest.mark.parametrize("name", TABLE_WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_table(name):
    make = WORKLOADS[name].make_table
    first = make(7)
    assert make(7).csv == first.csv
    assert make(8).csv != first.csv
    assert first.descriptors()["sha256"] == make(7).descriptors()["sha256"]


def test_shaped_table_keeps_its_partition_shape():
    for seed in range(5):
        table = shaped_table("t", seed, (4, 2, 2, 1, 1, 1, 1, 1))
        assert sorted(table.block_sizes()) == [1, 1, 1, 1, 1, 2, 2, 4]
        assert table.descriptors()["rows"] == 13


def test_sweep_matches_bell_numbers():
    assert [len(set_partition_shapes(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]
    assert sweep_descriptors()["kbs"] == 23


def test_benchmark_json_names_what_run_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


# --- checker -----------------------------------------------------------------


def classify_report(table):
    expected = expected_classification(table)
    sevens = [s for _, s, _ in expected]
    derived = [d for _, _, d in expected]
    return {
        "logic": "triage",
        "provenance": {"input_sha256": table.sha256},
        "objects": [{"id": i, "seven": s, "derived": d} for i, s, d in expected],
        "summary": {
            "seven": {v: sevens.count(v) for v in SEVEN_ORDER},
            "derived": {d: derived.count(d) for d in TRIAGE_ORDER},
        },
    }


def dump(report) -> bytes:
    return json.dumps(report).encode()


def test_expected_classification_of_a_hand_table():
    rows = (("a", ("x",), "1"), ("b", ("x",), "1"), ("c", ("y",), "1"), ("d", ("y",), "?"),
            ("e", ("z",), "1"), ("f", ("z",), "0"), ("g", ("w",), "0"), ("h", ("w",), "?"),
            ("i", ("w",), "1"), ("j", ("v",), "?"))
    got = {oid: (seven, derived) for oid, seven, derived in
           expected_classification(Table(rows, b""))}
    assert got == {
        "a": ("T", "hospitalize"), "b": ("T", "hospitalize"),
        "c": ("sT", "hospitalize"), "d": ("sT", "hospitalize"),
        "e": ("K", "expert"), "f": ("K", "expert"),
        "g": ("fK", "expert"), "h": ("fK", "expert"), "i": ("fK", "expert"),
        "j": ("U", "expert"),
    }


def test_checker_accepts_a_correct_classify_report():
    table = uniform_table("t", 1, 200, 2, 4)
    verdict = check("classify", table, 0, dump(classify_report(table)), b"")
    assert verdict.ok, verdict.reason
    assert verdict.decided == verdict.verdicts == 200


def test_checker_rejects_one_flipped_object():
    table = uniform_table("t", 1, 200, 2, 4)
    report = classify_report(table)
    entry = report["objects"][17]
    entry["seven"] = "F" if entry["seven"] != "F" else "T"
    assert not check("classify", table, 0, dump(report), b"").ok


def test_checker_rejects_wrong_exit_code_traceback_and_hash():
    table = uniform_table("t", 1, 50, 2, 4)
    good = classify_report(table)
    assert not check("classify", table, 1, dump(good), b"").ok
    assert not check("classify", table, 0, dump(good), b"Traceback (most recent").ok
    good["provenance"]["input_sha256"] = "0" * 64
    assert not check("classify", table, 0, dump(good), b"").ok
    malformed = classify_report(table)
    malformed["objects"] = [1] * len(malformed["objects"])
    assert "malformed" in check("classify", table, 0, dump(malformed), b"").reason


def verify_report(kbs=23):
    axioms = [{"axiom": a, "status": "holds", "cases_checked": 1, "exhaustive": True}
              for a in sorted(VERIFY_AXIOMS)]
    return {"runs": [{"kb": f"kb {i}", "certified": True, "axioms": [dict(a) for a in axioms]}
                     for i in range(kbs)]}


def test_checker_verify_accepts_all_exhaustive_and_rejects_one_sampled():
    verdict = check("verify", None, 0, dump(verify_report()), b"")
    assert verdict.ok and verdict.decided == verdict.verdicts == 23 * 20
    report = verify_report()
    report["runs"][5]["axioms"][3]["exhaustive"] = False
    assert not check("verify", None, 0, dump(report), b"").ok


def test_checker_verify_of_a_table_expects_one_knowledge_base():
    table = WORKLOADS["verify-table"].make_table(0)
    assert sorted(table.block_sizes()) == [1, 1, 2]
    verdict = check("verify", table, 0, dump(verify_report(1)), b"")
    assert verdict.ok and verdict.decided == verdict.verdicts == 20
    assert not check("verify", table, 0, dump(verify_report()), b"").ok
    assert not check("verify", None, 0, dump(verify_report(1)), b"").ok


def test_checker_validate_outcomes():
    def result(status):
        return dump({"results": [{"logic": "triage", "status": status}]})

    assert check("validate", None, 2, result("undecided"), b"").ok
    assert check("validate", None, 0, result("valid"), b"").decided == 1
    assert not check("validate", None, 2, result("invalid"), b"").ok
    assert not check("validate", None, 0, result("undecided"), b"").ok


# --- tracer ------------------------------------------------------------------


def test_self_time_excludes_children_counted_leaves_and_generators():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    leaf = tracer.wrap_counted("universe.leaf", lambda: tick(1))

    def numbers():
        for _ in range(2):
            tick(2)
            yield 0

    gen = tracer.wrap_generator("sweep.numbers", numbers, counter="sweep.items")
    child = tracer.wrap("logics.child", lambda: (tick(4), leaf()))

    def parent():
        tick(8)
        child()
        list(gen())

    tracer.call("cli.parent", parent)
    summary = summarize(tracer.spans, tracer.counts, tracer.times)
    by_name = summary["by_name"]
    assert by_name["cli.parent"] == {"busy_s": 17.0, "self_s": 8.0, "calls": 1}
    assert by_name["logics.child"] == {"busy_s": 5.0, "self_s": 4.0, "calls": 1}
    assert by_name["universe.leaf"] == {"busy_s": 1.0, "self_s": 1.0, "calls": 1}
    assert by_name["sweep.numbers"]["busy_s"] == 4.0
    assert tracer.counts["sweep.items"] == 2
    assert sum(summary["layer_self_s"].values()) == by_name["cli.parent"]["busy_s"]


# --- the real program --------------------------------------------------------


def test_probe_imports_this_checkouts_src():
    found = run.probe_import()
    assert found["pbzlogic"].startswith(str(run.SRC))
    assert found["python"] == sys.version.split()[0]


def test_refuses_to_run_without_program_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    code = run.main(["--workload", "verify-default", "--seed", "0", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and "no program source" in err


def test_real_classify_passes_the_checker(tmp_path):
    table = uniform_table("t", 3, 60, 2, 3)
    csv = tmp_path / "t.csv"
    csv.write_bytes(table.csv)
    argv = [sys.executable, "-m", "pbzlogic.cli",
            *WORKLOADS["classify-fine"].argv(str(csv))]
    wall, rss, code = run.spawn(argv, tmp_path / "out", tmp_path / "err", 60)
    verdict = check("classify", table, code, (tmp_path / "out").read_bytes(),
                    (tmp_path / "err").read_bytes())
    assert verdict.ok, verdict.reason
    assert wall > 0 and rss > 0


def test_a_command_over_its_ceiling_is_killed(tmp_path):
    argv = [sys.executable, "-c", "import time; time.sleep(60)"]
    wall, _, code = run.spawn(argv, tmp_path / "out", tmp_path / "err", 0.5)
    assert code == -9 and 0.5 <= wall < 20
