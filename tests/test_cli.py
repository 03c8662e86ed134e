import ast
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pbzlogic
from pbzlogic import (
    KnowledgeBase,
    LogicSpec,
    ValueDef,
    all_knowledge_bases,
    certified,
    check_all,
    default_universe,
    run_mutation,
)
from pbzlogic.cli import main, sha256_hex

DEMO_CSV = Path(__file__).parent / "data" / "demo.csv"

# `sha256_hex` falls back on hashlib only without both of these modules.
BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(
        "id,attr,flag\n"
        "a,x,yes\n"
        "b,x,yes\n"
        "c,y,no\n"
        "d,z,?\n"
    )
    return path


def test_classify_text_default_logic(capsys, demo_csv):
    code, out, _ = run(capsys, "classify", "--input", str(demo_csv))
    assert code == 0
    assert "logic: seven" in out
    assert "seven counts: T=2 sT=0 U=0 K=2 fK=0 sF=2 F=0" in out


def test_classify_text_triage(capsys, demo_csv):
    code, out, _ = run(
        capsys, "classify", "--input", str(demo_csv), "--logic", "triage"
    )
    assert code == 0
    assert "derived counts: hospitalize=2 expert=2 discharge=2" in out


def test_classify_json_belnap(capsys, demo_csv):
    code, out, _ = run(
        capsys, "classify", "--input", str(demo_csv),
        "--logic", "belnap", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["logic"] == "belnap"
    assert report["summary"]["seven"] == {
        "T": 2, "sT": 0, "U": 0, "K": 2, "fK": 0, "sF": 2, "F": 0
    }
    assert report["summary"]["derived"] == {"T_B": 2, "U_B": 0, "K_B": 2, "F_B": 2}
    by_id = {entry["id"]: entry for entry in report["objects"]}
    assert by_id["o1"] == {"id": "o1", "seven": "T", "derived": "T_B"}
    assert by_id["o3"] == {"id": "o3", "seven": "K", "derived": "K_B"}
    assert by_id["o6"] == {"id": "o6", "seven": "sF", "derived": "F_B"}
    assert len(report["provenance"]["input_sha256"]) == 64


def test_classify_json_is_deterministic(capsys, demo_csv):
    args = ("classify", "--input", str(demo_csv), "--logic", "triage",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    # serialization round trip
    assert json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n" == first


def test_classify_with_spec_file(capsys, demo_csv, tmp_path):
    spec = LogicSpec(
        "alarm",
        (ValueDef("act", up=("sT",)), ValueDef("rest", down=("U", "K", "fK"))),
    )
    spec_path = tmp_path / "alarm.json"
    spec_path.write_text(spec.to_json())
    code, out, _ = run(
        capsys, "classify", "--input", str(demo_csv),
        "--logic", str(spec_path), "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["logic"] == "alarm"
    assert report["summary"]["derived"] == {"act": 2, "rest": 4}


def test_classify_column_order_independent(capsys, demo_csv, tmp_path):
    reordered = tmp_path / "reordered.csv"
    lines = demo_csv.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines]
    # move the decision column between the two condition columns
    reordered.write_text(
        "\n".join(",".join([r[0], r[1], r[3], r[2]]) for r in rows) + "\n"
    )
    base = run(capsys, "classify", "--input", str(demo_csv),
               "--decision-column", "disease", "--format", "json")[1]
    moved = run(capsys, "classify", "--input", str(reordered),
                "--decision-column", "disease", "--format", "json")[1]
    assert json.loads(base)["summary"] == json.loads(moved)["summary"]
    assert json.loads(base)["objects"] == json.loads(moved)["objects"]


def test_classify_attribute_subset_changes_partition(capsys, demo_csv):
    code, out, _ = run(
        capsys, "classify", "--input", str(demo_csv),
        "--attributes", "symptom_b", "--format", "json",
    )
    assert code == 0
    # with only symptom_b, o1..o4 collapse into one block
    report = json.loads(out)
    by_id = {entry["id"]: entry["seven"] for entry in report["objects"]}
    assert by_id["o1"] == "K"


def test_classify_attribute_names_are_stripped(capsys, demo_csv):
    spaced = run(capsys, "classify", "--input", str(demo_csv),
                 "--attributes", " symptom_a , symptom_b", "--format", "json")
    plain = run(capsys, "classify", "--input", str(demo_csv),
                "--attributes", "symptom_a,symptom_b", "--format", "json")
    assert spaced == plain
    assert spaced[0] == 0


def test_classify_custom_tokens(capsys, tmp_path):
    path = tmp_path / "tokens.csv"
    path.write_text("id,a,d\nx,1,ja\ny,2,nein\nz,3,offen\n")
    code, out, _ = run(
        capsys, "classify", "--input", str(path),
        "--positive-tokens", "ja", "--negative-tokens", "nein",
        "--unknown-tokens", "offen", "--format", "json",
    )
    assert code == 0
    by_id = {e["id"]: e["seven"] for e in json.loads(out)["objects"]}
    assert by_id == {"x": "T", "y": "F", "z": "U"}


@pytest.mark.parametrize(
    "content",
    [
        "id,a,d\n",  # no data rows
        "id\nx\n",  # no decision column
        "id,a,d\nx,1\n",  # ragged row
        "id,a,d\nx,1,yes\nx,2,no\n",  # duplicate id
        "id,a,d\nx,1,maybe\n",  # unmapped token
        "id,a,d\n,1,yes\ny,2,no\n",  # empty id
    ],
)
def test_classify_data_errors(capsys, tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    code, _, err = run(capsys, "classify", "--input", str(path))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "content, message",
    [
        # blank lines count: o2 is on line 5
        ("id,a,d\n\no1,x,yes\n\no2,y,maybe\n", "5: decision token 'maybe' is not mapped"),
        # the quoted cell of o1 spans lines 2 and 3, so o2 starts on line 4
        ('id,a,d\no1,"x\ny",yes\no2,y,maybe\n', "4: decision token 'maybe' is not mapped"),
        ('id,a,d\no1,"x\ny",yes\no2,p,yes,no\n', "4: row has 4 cells, header has 3"),
        # a row that spans lines 3 and 4 is cited by the line it starts on
        ('id,a,d\n\no1,"x\ny",maybe\n', "3: decision token 'maybe' is not mapped"),
        ("\r\nid,a,d\r\no1,x,yes\r\n\r\no1,y,no\r\n", "5: duplicate object id 'o1'"),
        ("id,a,d\r\r o1,x,yes\r\r,y,no\r", "5: empty object id"),
    ],
    ids=["blank-lines", "quoted-break", "quoted-break-ragged", "row-spans-lines",
         "crlf-blank-lines", "lone-cr-blank-lines"],
)
def test_data_errors_cite_the_line_the_row_starts_on(capsys, tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content.encode("utf-8"))
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert (code, out, err) == (1, "", f"error: {path}:{message}\n")


@pytest.mark.parametrize(
    "options, sets, token",
    [
        (["--negative-tokens", "yes,no"], "positive and the negative", "yes"),
        (["--unknown-tokens", "?,True"], "positive and the unknown", "true"),
        (["--positive-tokens", "ja", "--negative-tokens", "nein,?"],
         "negative and the unknown", "?"),
    ],
    ids=["positive-negative", "positive-unknown", "negative-unknown"],
)
def test_a_token_in_two_sets_is_a_data_error(capsys, small_csv, options, sets, token):
    code, out, err = run(capsys, "classify", "--input", str(small_csv), *options)
    assert (code, out, err) == (
        1, "", f"error: decision token {token!r} is in both the {sets} tokens\n"
    )


TABLE_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["classify"], ["verify"], ["validate-logic", "--logic", "triage"]],
    ids=["classify", "verify", "validate-logic"],
)


@TABLE_COMMANDS
def test_duplicate_column_name_is_a_data_error(capsys, tmp_path, argv):
    # under one name the second `a` would hide the first, and o1 and o2,
    # which differ in the first `a`, would share a block
    path = tmp_path / "dup.csv"
    path.write_text("id,a,a,d\no1,x,p,yes\no2,y,p,no\n")
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: duplicate column name 'a'\n")


@TABLE_COMMANDS
def test_a_cell_over_the_csv_field_limit_is_a_data_error(capsys, tmp_path, argv):
    # the csv module's default limit is 131,072 characters; it stays as it is
    limit = csv.field_size_limit()
    path = tmp_path / "wide.csv"
    path.write_text("id,a,d\no1," + "x" * 200_000 + ",yes\n")
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert (code, out, err) == (
        1, "", f"error: {path}:2: field larger than field limit ({limit})\n"
    )
    assert csv.field_size_limit() == limit


def test_a_nul_in_a_cell_follows_the_csv_module(capsys, tmp_path):
    # Python 3.10's csv module rejects a line holding a NUL; from 3.11 on it
    # is a character like any other, so "p\0" and "p" are two blocks
    path = tmp_path / "nul.csv"
    path.write_text("id,a,d\no1,p\0,yes\no2,p,no\n")
    code, out, err = run(capsys, "classify", "--input", str(path), "--format", "json")
    if sys.version_info < (3, 11):
        assert (code, out, err) == (1, "", f"error: {path}:2: line contains NUL\n")
    else:
        assert (code, err) == (0, "")
        # one block would give both objects K
        objects = json.loads(out)["objects"]
        assert {o["id"]: o["seven"] for o in objects} == {"o1": "T", "o2": "F"}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("logic", ["seven", "treatment", "triage", "diagnosis", "belnap"])
def test_classify_matches_golden_bytes(capsys, demo_csv, logic, fmt):
    golden = demo_csv.parent / "golden" / f"classify_{logic}.{'txt' if fmt == 'text' else fmt}"
    code, out, _ = run(
        capsys, "classify", "--input", str(demo_csv), "--logic", logic, "--format", fmt
    )
    assert code == 0
    assert out.encode("utf-8") == golden.read_bytes()


MUTATION_NAMES = sorted(pbzlogic.MUTATIONS)
VERIFY_GOLDENS = [
    ("verify_sizes_1-5.txt", ["--sizes", "1,2,3,4,5"]),
    *[(f"verify_sizes_3_mutate_{m}.txt", ["--sizes", "3", "--mutate", m])
      for m in MUTATION_NAMES],
    ("verify_sizes_3_mutate_pawlak-upper-on-both.json",
     ["--sizes", "3", "--mutate", "pawlak-upper-on-both", "--format", "json"]),
]


@pytest.mark.parametrize("golden, argv", VERIFY_GOLDENS, ids=[g for g, _ in VERIFY_GOLDENS])
def test_verify_matches_golden_bytes(capsys, demo_csv, golden, argv):
    # witness placement and case counts across a sweep, standard and mutated
    code, out, _ = run(capsys, "verify", *argv)
    assert code == (0 if "--mutate" not in argv else 2)
    assert out.encode("utf-8") == (demo_csv.parent / "golden" / golden).read_bytes()


@pytest.mark.parametrize(
    "values, message",
    [
        # o1 is T, inside both upward aggregations
        ([{"label": "act", "up": ["sT"]}, {"label": "alert", "up": ["K"]}],
         "object 'o1' falls in 2 derived values"),
        # o1 and o2 are T; o3 is K, outside the only derived value
        ([{"label": "treat", "up": ["sT"]}], "object 'o3' falls in 0 derived values"),
    ],
)
def test_classify_logic_not_a_partition(capsys, demo_csv, tmp_path, values, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "custom", "values": values}))
    code, out, err = run(
        capsys, "classify", "--input", str(demo_csv), "--logic", str(spec_path)
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}; the logic is not a partition on this concept\n"


TABLE_LF = 'id,a,d\nx,"p\nq",yes\ny,"p\nq",no\nz,p,?\n'


@pytest.mark.parametrize(
    "content",
    [
        TABLE_LF.replace("\n", "\r\n"),
        TABLE_LF.replace("\n", "\r"),
        "\ufeff" + TABLE_LF,
        "\ufeff" + TABLE_LF.replace("\n", "\r\n"),
    ],
    ids=["crlf", "lone-cr", "bom", "bom-crlf"],
)
def test_classify_line_endings_and_bom(capsys, tmp_path, content):
    base = tmp_path / "lf.csv"
    base.write_bytes(TABLE_LF.encode("utf-8"))
    variant = tmp_path / "variant.csv"
    variant.write_bytes(content.encode("utf-8"))
    reports = []
    for path in (base, variant):
        code, out, _ = run(capsys, "classify", "--input", str(path), "--format", "json")
        assert code == 0
        reports.append(json.loads(out))
    expected, got = reports
    # the quoted field spans two lines but stays one cell: x and y share a block
    assert [(e["id"], e["seven"]) for e in got["objects"]] == [
        ("x", "K"), ("y", "K"), ("z", "U")
    ]
    assert got["objects"] == expected["objects"]
    assert got["summary"] == expected["summary"]
    assert got["provenance"]["input_sha256"] == hashlib.sha256(variant.read_bytes()).hexdigest()


def test_classify_keeps_line_breaks_in_quoted_fields(capsys, tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'id,a,d\nx,"p\nq",yes\ny,pq,no\n')
    code, out, _ = run(capsys, "classify", "--input", str(path), "--format", "json")
    assert code == 0
    # "p<LF>q" and "pq" are distinct values, so x and y fall in distinct blocks
    assert [(e["id"], e["seven"]) for e in json.loads(out)["objects"]] == [
        ("x", "T"), ("y", "F")
    ]


def test_classify_invalid_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("id,a,d\nx,caf\u00e9,yes\n".encode("latin-1"))
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")


def test_classify_missing_file_and_unknown_logic(capsys, demo_csv):
    code, _, err = run(capsys, "classify", "--input", "/nonexistent.csv")
    assert code == 1
    code, _, err = run(
        capsys, "classify", "--input", str(demo_csv), "--logic", "nope"
    )
    assert code == 1
    assert "unknown logic" in err


@pytest.mark.parametrize("command", ["classify", "validate-logic"])
@pytest.mark.parametrize("logic", ["", "directory"])
def test_a_logic_naming_a_directory_is_unknown(capsys, command, logic):
    # "" reads as the path ".", a directory: neither is a spec file
    logic = str(DEMO_CSV.parent) if logic == "directory" else logic
    got = run(capsys, command, "--input", str(DEMO_CSV), "--logic", logic)
    assert got == (1, "", f"error: unknown logic {logic!r}: not a built-in and not a file\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--sizes", "1", "--mutate", "nope"], "unknown mutation 'nope'"),
        (["verify", "--sizes", "1", "--mutate", ""], "unknown mutation ''"),
        (["classify", "--attributes", "nope"], "condition attribute 'nope' not found"),
        (["classify", "--attributes", " "], "condition attribute '' not found"),
        (["classify", "--attributes", ""], "condition attribute '' not found"),
        (["verify", "--input", str(DEMO_CSV), "--attributes", ""],
         "condition attribute '' not found"),
        (["classify", "--decision-column", "nope"], "decision column 'nope' not found"),
        (["classify", "--decision-column", ""], "decision column '' not found"),
        (["classify", "--decision-column", "id"],
         "decision column 'id' is the object id column"),
        (["classify", "--attributes", "disease"],
         "condition attribute 'disease' is the decision column"),
        (["classify", "--attributes", "id"],
         "condition attribute 'id' is the object id column"),
    ],
    ids=["mutate", "mutate-empty", "attributes", "attributes-blank", "attributes-empty",
         "verify-attributes-empty", "decision-column", "decision-column-empty",
         "decision-column-id", "attributes-decision", "attributes-id"],
)
def test_an_empty_value_is_no_absent_value(capsys, argv, message):
    """An empty value is an error as any unknown value is, never the default;
    a column that exists but holds the ids or the decisions is named so."""
    if argv[0] == "classify":
        argv = [*argv, "--input", str(DEMO_CSV)]
    if "--input" in argv:
        message = f"{DEMO_CSV}: {message}"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("given, named", [
    ("missing.csv", "missing.csv"), ("./missing.csv", "missing.csv"),
    ("d//missing.csv", "d/missing.csv"), ("//missing.csv", "//missing.csv"),
], ids=["plain", "dot", "double-slash", "leading-double-slash"])
@TABLE_COMMANDS
def test_a_missing_input_is_named_as_pathlib_names_it(capsys, monkeypatch, tmp_path, argv,
                                                      given, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    code, out, err = run(capsys, *argv, "--input", given)
    assert (code, out, err) == (1, "", f"error: [Errno 2] No such file or directory: {named!r}\n")


def test_an_empty_input_path_is_the_current_directory(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for argv in (["classify"], ["verify"]):
        code, out, err = run(capsys, *argv, "--input", "")
        assert (code, out, err) == (1, "", "error: [Errno 21] Is a directory: '.'\n")


def test_verify_synthetic_sizes(capsys):
    code, out, _ = run(capsys, "verify", "--sizes", "1,2")
    assert code == 0
    assert "size 2 partition 1: PBZ-certified" in out


def test_verify_table_input(capsys, small_csv):
    code, out, _ = run(capsys, "verify", "--input", str(small_csv))
    assert code == 0
    assert f"table {small_csv}: PBZ-certified" in out


def _table(tmp_path, rows, groups):
    path = tmp_path / "table.csv"
    path.write_text("id,attr,flag\n" + "".join(
        f"r{i},v{i % groups},{'yes' if i % 3 else 'no'}\n" for i in range(rows)
    ))
    return path


def test_verify_sixteen_row_table_is_certified(capsys, tmp_path):
    path = _table(tmp_path, 16, 5)
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, err) == (0, "")
    assert out == f"table {path}: PBZ-certified\n"


def test_verify_decides_the_largest_case_space_exactly(capsys, tmp_path):
    # a binary axiom under drop-disjointness on a 16-row block: every
    # nonempty set of at most 16 of its 4^2 types, the most cases any
    # axiom has, all evaluated with no budget to cut them short
    path = _table(tmp_path, 16, 1)
    code, out, err = run(capsys, "verify", "--input", str(path), "--format", "json",
                         "--mutate", "drop-disjointness")
    assert (code, err) == (2, "")
    [run_] = json.loads(out)["runs"]
    assert {a["status"] for a in run_["axioms"]} == {"holds", "counterexample"}
    [a2] = [a for a in run_["axioms"] if a["axiom"] == "A2"]
    assert a2 == {"axiom": "A2", "status": "holds", "cases_checked": 2**16 - 1,
                  "exhaustive": True, "covers": {"base": 4, "exponent": 16 * 2}}


def test_verify_json_prints_counts_past_the_int_digit_limit(capsys, tmp_path):
    # distributivity covers 3^(3 * 3,100) tuples, a number of 4,438 digits,
    # past the 4,300 that str() and json accept by default; the report states
    # it as a base and an exponent, so it loads with a plain json.loads
    path = _table(tmp_path, 3100, 3100)
    code, out, _ = run(capsys, "verify", "--input", str(path), "--format", "json")
    assert code == 0
    [run_] = json.loads(out)["runs"]
    assert run_["certified"] is True
    [distributivity] = [a for a in run_["axioms"] if a["axiom"] == "distributivity"]
    assert distributivity["covers"] == {"base": 3, "exponent": 3 * 3100}


def test_verify_size_seven_certifies(capsys):
    code, out, _ = run(capsys, "verify", "--sizes", "7")
    assert code == 0
    assert out.count(": PBZ-certified\n") == len(out.splitlines()) == 877


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["verify", "--sizes", "9"], "--sizes takes sizes from 1 to 8, got '9'"),
        (["verify", "--sizes", "0"], "--sizes takes sizes from 1 to 8, got '0'"),
        (["verify", "--sizes", "1,,2"], "--sizes takes sizes from 1 to 8, got ''"),
        (["verify", "--sizes", "two"], "--sizes takes sizes from 1 to 8, got 'two'"),
        (["validate-logic", "--logic", "belnap", "--size", "9"],
         "--size takes sizes from 1 to 8, got '9'"),
        (["validate-logic", "--logic", "belnap", "--size", "0"],
         "--size takes sizes from 1 to 8, got '0'"),
        (["verify", "--sizes", ""], "--sizes takes sizes from 1 to 8, got ''"),
    ],
)
def test_synthetic_sizes_are_bounded(capsys, argv, limit):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {limit}\n")


def test_validate_logic_size_eight(capsys):
    code, out, _ = run(capsys, "validate-logic", "--logic", "belnap", "--size", "8")
    assert code == 0
    # of the Bell(8) = 4,140 knowledge bases, 764 have no block over 2
    # objects (the involutions of 8 items), one of them only singletons
    assert Counter(out.splitlines()) == {
        f"belnap: valid (checked {cases} cases, covers 3^8 concepts, exhaustive)": count
        for cases, count in ((3, 1), (6, 763), (7, 4140 - 764))
    }


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 5000), groups=st.integers(1, 5000))
@example(rows=9100, groups=3)  # 3^9,100 has 4,342 digits, past the default 4,300
def test_verdicts_load_under_the_int_digit_limit(rows, groups):
    """An exact verdict states what it covers as a base and an exponent, so
    the JSON of a table of any size loads with a plain `json.loads`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _table(Path(tmp), rows, groups)
        verified = _json_stdout(["verify", "--input", str(path), "--format", "json"])
        validated = _json_stdout(["validate-logic", "--logic", "triage", "--input", str(path),
                                  "--format", "json"])
    [run_] = verified["runs"]
    assert run_["certified"] is True
    for report in run_["axioms"]:
        arity = pbzlogic.AXIOMS[report["axiom"]].arity
        assert report["covers"] == {"base": 3, "exponent": rows * arity}
    [result] = validated["results"]
    assert (result["status"], result["covers"]) == ("valid", {"base": 3, "exponent": rows})


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_logic_prints_counts_past_the_int_digit_limit(capsys, tmp_path, fmt):
    # a valid verdict covers 3^9,100 concepts, a number of 4,342 digits, past
    # the 4,300 that str() and json accept by default; it prints as 3^9100
    path = _table(tmp_path, 9100, 3)
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "validate-logic", "--logic", "triage",
                       "--input", str(path), "--format", fmt)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    if fmt == "text":
        assert re.fullmatch(
            r"triage: valid \(checked \d+ cases, covers 3\^9100 concepts, exhaustive\)\n", out
        )
    else:
        [result] = json.loads(out)["results"]
        assert (result["status"], result["covers"]) == ("valid", {"base": 3, "exponent": 9100})


def _json_stdout(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


def test_a_sweep_reports_the_coverage_of_each_size(capsys):
    # runs of sizes 2 and 3 share their witness-free entries but not their
    # coverage, so the JSON writer keys its rendered entries by it too
    code, out, _ = run(capsys, "verify", "--sizes", "2,3", "--format", "json")
    assert code == 0
    runs = json.loads(out)["runs"]
    assert len(runs) == 2 + 5
    for run_ in runs:
        size = int(run_["kb"].split()[1])
        [distributivity] = [a for a in run_["axioms"] if a["axiom"] == "distributivity"]
        assert distributivity["cases_checked"] == 27
        assert distributivity["covers"] == {"base": 3, "exponent": 3 * size}


def test_verify_mutation_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--sizes", "2", "--mutate", "kleene-identity"
    )
    assert code == 2
    assert "FAILED" in out
    assert "counterexample" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--sizes", "3"],
    ["validate-logic", "--logic", "belnap", "--size", "3"],
], ids=["verify", "validate-logic"])
def test_takes_no_budget(capsys, argv):
    # every verdict of both commands is exact: the option is a usage error
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", "1"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert "error: unrecognized arguments: --budget 1\n" in err
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert "--budget" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--sizes", "1,2,3"],
        ["verify", "--sizes", "3", "--mutate", "kleene-identity"],
        ["verify", "--input", str(DEMO_CSV), "--mutate", "pawlak-upper-on-both"],
        ["validate-logic", "--logic", "triage", "--size", "3"],
        ["validate-logic", "--logic", "GAPPY", "--size", "3"],
        ["validate-logic", "--logic", "GAPPY", "--input", str(DEMO_CSV)],
    ],
    ids=["verify", "verify-witness", "verify-table-witness", "validate", "validate-invalid",
         "validate-table-invalid"],
)
def test_streamed_json_is_what_json_dumps_writes(capsys, tmp_path, argv):
    """`verify` and `validate-logic` write their JSON one knowledge base at
    a time, in the layout of `json.dumps`, witnesses included."""
    spec = tmp_path / "gappy.json"
    spec.write_text(LogicSpec("gappy", (ValueDef("yes", up=("T",)),)).to_json())
    argv = [str(spec) if arg == "GAPPY" else arg for arg in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert ('"witness": ' in out) == (code == 2)


@pytest.mark.parametrize("argv", [[], ["--mutate", "pawlak-upper-on-both"]],
                         ids=["standard", "mutation"])
def test_verify_sweep_json_lists_each_report(capsys, argv):
    code, out, _ = run(capsys, "verify", "--sizes", "1,2,3", "--format", "json", *argv)
    runs = json.loads(out)["runs"]
    expected = [
        (f"size {size} partition {i}",
         run_mutation(kb, argv[1]) if argv else check_all(kb))
        for size in (1, 2, 3)
        for i, kb in enumerate(all_knowledge_bases(default_universe(size)))
    ]
    assert [(r["kb"], r["certified"], r["axioms"]) for r in runs] == [
        (label, certified(reports), [r.to_dict() for r in reports])
        for label, reports in expected
    ]
    assert code == (0 if all(r["certified"] for r in runs) else 2)


def test_verify_imports_no_numpy():
    script = (
        "import sys\n"
        "from pbzlogic.cli import main\n"
        "code = main(['verify', '--sizes', '3'])\n"
        "sys.stderr.write(f'exit {code} numpy {\"numpy\" in sys.modules}')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pbzlogic.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert done.stderr == "exit 0 numpy False"


def _fresh_python(script: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh `python -S`, so that no site hook pre-loads
    modules, with this checkout's pbzlogic on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(pbzlogic.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env,
        timeout=60,
    )


def _loaded_by(argv: list[str]) -> tuple[int, str, str, set[str]]:
    """Exit code, stdout, stderr and the modules loaded of one CLI command
    run in a fresh process."""
    done = _fresh_python(
        "import sys\n"
        "from pbzlogic.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stderr.write(repr((code, sorted(sys.modules))))\n"
    )
    *err, last = done.stderr.splitlines(keepends=True)
    code, modules = ast.literal_eval(last)
    return code, done.stdout, "".join(err), set(modules)


# What argparse and pathlib load: a well-formed command loads none of it,
# and only a spec file named by `--logic` loads pathlib.
PARSER_MODULES = {"argparse", "gettext", "locale", "shutil", "pathlib"}


def test_classify_leaves_the_axiom_engine_unloaded(demo_csv):
    for logic in ("seven", "triage"):
        code, out, _, loaded = _loaded_by(
            ["classify", "--input", str(demo_csv), "--logic", logic, "--format", "json"])
        assert code == 0
        assert json.loads(out)["logic"] == logic
        assert not loaded & PARSER_MODULES
        assert not loaded & {
            "dataclasses", "json", "json.decoder", "pbzlogic.axioms", "pbzlogic.orthopair",
            "pbzlogic.universe", "pbzlogic.sweep",
        }
        if BUILTIN_SHA256:
            assert not loaded & {"hashlib", "_hashlib"}


def _imported_by_main(argv: list[str]) -> tuple[int, str, set[str]]:
    """Exit code, stdout and the modules imported of one CLI command run as
    the benchmark runs it, `python -m pbzlogic.cli`, where `cli` itself runs
    as `__main__`: the imports that `-X importtime` reports."""
    env = {**os.environ, "PYTHONPATH": str(Path(pbzlogic.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "pbzlogic.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    return done.returncode, done.stdout, imported


# What `classify` runs: the ingest, the region bits, the classification
# report, and the seven values with the logics' value tables.
CLASSIFY_MODULES = {
    "pbzlogic", "pbzlogic._record", "pbzlogic.regions", "pbzlogic.report",
    "pbzlogic.table", "pbzlogic.values",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("logic", ["seven", "triage"])
def test_classify_imports_only_the_code_it_runs(demo_csv, logic, fmt):
    """Neither the three formulations (`sevenvalued`) nor the mask-layer
    logics (`logics`) load, and only JSON output loads the JSON writer."""
    code, out, imported = _imported_by_main(
        ["classify", "--input", str(demo_csv), "--logic", logic, "--format", fmt])
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["logic"] == logic
    else:
        assert out.startswith(f"logic: {logic}\n")
    assert {m for m in imported if m.startswith("pbzlogic")} == CLASSIFY_MODULES | (
        {"pbzlogic.jsontext"} if fmt == "json" else set())
    assert not imported & {"dataclasses", "json"}
    if BUILTIN_SHA256:
        assert "hashlib" not in imported


def test_list_logics_loads_neither_argparse_nor_pathlib():
    code, out, _, loaded = _loaded_by(["list-logics"])
    assert (code, bool(out)) == (0, True)
    assert not loaded & PARSER_MODULES


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["verify", "--help"], 0), (["frobnicate"], 1),
    (["classify", "--input", str(DEMO_CSV), "--format", "xml"], 1),
], ids=["help", "verify-help", "unknown-command", "bad-choice"])
def test_help_and_usage_errors_come_from_argparse(argv, code):
    got, out, err, loaded = _loaded_by(argv)
    assert got == code
    assert (out if code == 0 else err).startswith("usage: pbzlogic")
    assert "argparse" in loaded
    if code:
        assert out == ""
        assert "error: argument " in err


def test_list_logics_imports_only_the_values():
    code, out, imported = _imported_by_main(["list-logics"])
    assert code == 0
    assert out.startswith("treatment: treat, wait\n")
    assert {m for m in imported if m.startswith("pbzlogic")} == {
        "pbzlogic", "pbzlogic._record", "pbzlogic.regions", "pbzlogic.table",
        "pbzlogic.values",
    }


@pytest.mark.parametrize("argv", [
    ["classify", "--input", str(DEMO_CSV), "--logic", "belnap", "--format", "json"],
    ["verify", "--input", str(DEMO_CSV), "--format", "json"],
    ["verify", "--sizes", "2"],
    ["validate-logic", "--logic", "triage", "--input", str(DEMO_CSV), "--format", "json"],
    ["validate-logic", "--logic", "diagnosis", "--size", "2"],
    ["list-logics"],
], ids=["classify", "verify-input", "verify-sweep", "validate-input", "validate-sweep",
        "list-logics"])
def test_main_module_is_never_imported_again(argv):
    """Under `python -m pbzlogic.cli`, `cli` runs as `__main__`: a module
    that imported `pbzlogic.cli` would load and compile it a second time."""
    code, _, imported = _imported_by_main(argv)
    assert code == 0
    assert "pbzlogic.cli" not in imported


def test_no_module_imports_the_cli():
    package = Path(pbzlogic.__file__).parent
    for source in sorted(package.glob("*.py")):
        if source.name != "cli.py":
            assert not re.search(
                r"^\s*(from (\.|pbzlogic\.)cli |import pbzlogic\.cli\b"
                r"|from (\.|pbzlogic) import .*\bcli\b)", source.read_text(), re.M
            ), source.name


@pytest.mark.parametrize("size", [0, 1, 55, 56, 64, 65_537])
def test_sha256_hex_equals_hashlib(size):
    data = bytes(range(251)) * (size // 251) + bytes(range(size % 251))
    assert len(data) == size
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("rows, head", [(6, None), (20_000, None), (20_000, 100),
                                        ("verify", None), ("verify", 100)])
@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_1(tmp_path, rows, head, unbuffered):
    """A classify of a table of `rows` rows, or where `rows` is "verify" a
    `verify --sizes 1,2,3,4,5 --format json` (about 330 kB), whose stdout
    loses its reader, from the start (`head` is None) or after `head`
    bytes, reports the broken pipe once and exits 1, whether the error
    comes from a write or from the last flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(pbzlogic.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "pbzlogic.cli"]
    if rows == "verify":
        argv += ["verify", "--sizes", "1,2,3,4,5", "--format", "json"]
    else:
        path = tmp_path / "table.csv"
        path.write_text("id,a,d\n" + "".join(f"o{i},v{i % 7},{i % 2}\n" for i in range(rows)))
        argv += ["classify", "--input", str(path), "--format", "json"]
    if head is None:
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write)
        code, err = done.returncode, done.stderr
    else:  # as `classify ... | head -c 100`: the output is far over a pipe's buffer
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(head)) == head
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"error: [Errno 32] Broken pipe\n")


def test_verify_input_loads_only_the_axiom_engine(demo_csv):
    for fmt in ("text", "json"):
        code, out, _, loaded = _loaded_by(["verify", "--input", str(demo_csv), "--format", fmt])
        assert code == 0
        assert not loaded & PARSER_MODULES
        if fmt == "text":
            assert out == f"table {demo_csv}: PBZ-certified\n"
        else:
            assert json.loads(out)["runs"][0]["certified"] is True
        # the verdicts come from the block sizes: no mask layer, sweep or truth
        # values; only the JSON report loads the JSON writer
        assert {m for m in loaded if m.startswith("pbzlogic")} == {
            "pbzlogic", "pbzlogic.cli", "pbzlogic.table", "pbzlogic.regions",
            "pbzlogic.axioms", "pbzlogic.terms", "pbzlogic.verdicts",
        } | ({"pbzlogic.jsontext"} if fmt == "json" else set())
        assert not loaded & {"json", "json.decoder", "hashlib", "dataclasses"}


# A logic with no label for U, nor for any value but T.
GAPPY = LogicSpec("gappy", (ValueDef("yes", up=("T",)),))
# Triage with a second label for sT: the fourth case overlaps.
OVERLAPPING = LogicSpec("overlapping", (
    ValueDef("hospitalize", up=("sT",)),
    ValueDef("confirm", up=("sT",), down=("sT",)),
    ValueDef("expert", up=("U", "K", "fK"), down=("U", "K", "fK")),
    ValueDef("discharge", down=("sF",)),
))
VALIDATE_GOLDENS = [
    (f"validate_logic_{logic}_{where}.{'txt' if fmt == 'text' else fmt}",
     ["--logic", logic, *argv, "--format", fmt], code)
    for logic, code in (("gappy", 2), ("overlapping", 2), ("belnap", 0))
    for where, argv in (("input", ["--input", str(DEMO_CSV)]), ("size_3", ["--size", "3"]))
    if logic != "belnap" or where == "size_3"
    for fmt in ("text", "json")
]


@pytest.mark.parametrize("golden, argv, code", VALIDATE_GOLDENS,
                         ids=[g for g, _, _ in VALIDATE_GOLDENS])
def test_validate_logic_matches_golden_bytes(capsys, tmp_path, golden, argv, code):
    # witness concepts, overlaps and uncovered objects, on a table and a sweep
    specs = {"gappy": GAPPY, "overlapping": OVERLAPPING}
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(spec.to_json())
    argv = [str(tmp_path / f"{arg}.json") if arg in specs else arg for arg in argv]
    got, out, _ = run(capsys, "validate-logic", *argv)
    assert got == code
    assert out.encode("utf-8") == (DEMO_CSV.parent / "golden" / golden).read_bytes()


def test_validate_logic_input_leaves_dataclasses_unloaded(demo_csv, tmp_path):
    for fmt in ("text", "json"):
        code, out, _, loaded = _loaded_by(
            ["validate-logic", "--logic", "triage", "--input", str(demo_csv), "--format", fmt])
        assert code == 0
        assert not loaded & PARSER_MODULES
        if fmt == "text":
            assert out == "triage: valid (checked 6 cases, covers 3^6 concepts, exhaustive)\n"
        else:
            assert json.loads(out)["results"][0]["status"] == "valid"
        # a valid verdict needs the block sizes only, and the concept
        # enumerator (`sweep`) is the test oracle only
        assert not loaded & {
            "dataclasses", "json", "json.decoder", "pbzlogic.universe", "pbzlogic.orthopair",
            "pbzlogic.sweep", "pbzlogic.sevenvalued",
        }
    # an invalid verdict reads the spec file with `json`, but still never
    # loads the sweep
    spec = tmp_path / "gappy.json"
    spec.write_text(GAPPY.to_json())
    code, out, _, loaded = _loaded_by(
        ["validate-logic", "--logic", str(spec), "--input", str(demo_csv)])
    assert code == 2
    assert out.startswith("gappy: invalid (checked 2 cases, exhaustive)\n")
    assert not loaded & {"dataclasses", "pbzlogic.sweep"}
    assert loaded & PARSER_MODULES == {"pathlib"}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--sizes", "1,2,3,4"], 0),
        (["verify", "--sizes", "4", "--mutate", "pawlak-upper-on-both"], 2),
        (["validate-logic", "--logic", "triage", "--size", "4"], 0),
        (["validate-logic", "--logic", "GAPPY", "--size", "4"], 2),
        (["validate-logic", "--logic", "GAPPY", "--input", str(DEMO_CSV)], 2),
    ],
    ids=["verify-sweep", "verify-mutation", "validate-sweep", "validate-sweep-invalid",
         "validate-input-invalid"],
)
def test_no_command_builds_a_knowledge_base(capsys, monkeypatch, tmp_path, argv, code):
    """Every knowledge base reaches the engines as a `Partition`: block ids
    and sizes, never the mask layer's `KnowledgeBase`."""
    spec = tmp_path / "gappy.json"
    spec.write_text(GAPPY.to_json())
    argv = [str(spec) if arg == "GAPPY" else arg for arg in argv]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a command built a KnowledgeBase")

    monkeypatch.setattr(KnowledgeBase, "__init__", refuse)
    assert run(capsys, *argv)[0] == code


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--input", str(DEMO_CSV)], 0),
        (["verify", "--sizes", "1,2,3"], 0),
        (["verify", "--sizes", "4", "--mutate", "pawlak-upper-on-both"], 2),
        (["validate-logic", "--logic", "triage", "--input", str(DEMO_CSV)], 0),
        (["validate-logic", "--logic", "GAPPY", "--input", str(DEMO_CSV)], 2),
        (["validate-logic", "--logic", "triage", "--size", "4"], 0),
        (["validate-logic", "--logic", "GAPPY", "--size", "4"], 2),
    ],
    ids=["verify-input", "verify-sweep", "verify-mutation", "validate-input",
         "validate-input-invalid", "validate-sweep", "validate-sweep-invalid"],
)
def test_no_command_loads_the_mask_layer(tmp_path, argv, code, fmt):
    """The engines take a `Partition` and return masks that it names, so
    neither `universe` nor `orthopair` loads, and `verify` loads no record
    class and not the knowledge-base API with the brute engine (`brute`)
    either."""
    spec = tmp_path / "gappy.json"
    spec.write_text(GAPPY.to_json())
    spec_file = "GAPPY" in argv
    argv = [str(spec) if arg == "GAPPY" else arg for arg in argv]
    got, out, _, loaded = _loaded_by([*argv, "--format", fmt])
    assert (got, bool(out)) == (code, True)
    assert loaded & PARSER_MODULES == ({"pathlib"} if spec_file else set())
    assert not loaded & {"pbzlogic.universe", "pbzlogic.orthopair"}
    if argv[0] == "verify":
        assert not loaded & {"pbzlogic._record", "pbzlogic.brute"}


@pytest.mark.parametrize("argv", [
    ["verify", "--sizes", "1"],
    ["validate-logic", "--logic", "belnap", "--size", "1", "--format", "json"],
], ids=["verify", "validate-logic"])
def test_commands_run_without_the_int_digit_limit(argv):
    """Python 3.10 before 3.10.7 has no limit on int-to-str conversion, nor
    `sys.get_int_max_str_digits` and `sys.set_int_max_str_digits`."""
    done = _fresh_python(
        "import sys\n"
        "for name in ('get_int_max_str_digits', 'set_int_max_str_digits'):\n"
        "    if hasattr(sys, name):\n"
        "        delattr(sys, name)\n"
        "from pbzlogic.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


def test_no_submodule_imports_dataclasses():
    done = _fresh_python(
        "import importlib, os, sys\n"
        "import pbzlogic\n"
        "names = sorted(f[:-3] for f in os.listdir(os.path.dirname(pbzlogic.__file__))\n"
        "               if f.endswith('.py') and f != '__init__.py')\n"
        "for name in names:\n"
        "    importlib.import_module('pbzlogic.' + name)\n"
        "from pbzlogic import *\n"
        "sys.stderr.write(f'{len(names)} {\"dataclasses\" in sys.modules}')\n"
    )
    assert done.stderr == "16 False"


def test_term_evaluation_leaves_the_axiom_engine_unloaded():
    """`eval_term`, and through it the lattice formulation of the seven
    parts, compile their terms with `terms`, not with the axiom engine."""
    done = _fresh_python(
        "import sys\n"
        "from pbzlogic import KnowledgeBase, Orthopair, Universe, eval_term, seven_partition\n"
        "u = Universe.of('o1', 'o2', 'o3')\n"
        "kb = KnowledgeBase.from_partition(u, [u.subset(['o1', 'o2']), u.subset(['o3'])])\n"
        "p = Orthopair.from_names(u, ['o1', 'o3'], ['o2'])\n"
        "print(eval_term(kb, p, 'L-~'))\n"
        "print(seven_partition(kb, p, 'lattice').counts())\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('pbzlogic'))))\n"
    )
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stderr))
    assert "pbzlogic.terms" in loaded
    assert not loaded & {"pbzlogic.axioms", "pbzlogic.brute"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--budget", "x"], "unrecognized arguments: --budget x"),
        (["validate-logic", "--logic", "belnap", "--size", "abc"],
         "argument --size: invalid int value: 'abc'"),
        (["classify"], "the following arguments are required: --input"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["verify-budget", "validate-size", "classify-input", "subcommand"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert err.startswith("usage: pbzlogic")
    assert message in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pbzlogic")


def test_validate_logic_builtin(capsys):
    code, out, _ = run(capsys, "validate-logic", "--logic", "belnap", "--size", "3")
    assert code == 0
    # the first knowledge base is one block of 3 objects, which takes all 7 values
    assert out.startswith("belnap: valid (checked 7 cases, covers 3^3 concepts, exhaustive)\n")


def test_validate_logic_table_input(capsys, small_csv):
    code, out, _ = run(
        capsys, "validate-logic", "--logic", "triage", "--input", str(small_csv)
    )
    assert code == 0
    assert "triage: valid" in out


def test_validate_logic_invalid_spec_file(capsys, tmp_path):
    spec = LogicSpec("gappy", (ValueDef("yes", up=("T",)),))
    path = tmp_path / "gappy.json"
    path.write_text(spec.to_json())
    code, out, _ = run(
        capsys, "validate-logic", "--logic", str(path), "--size", "2"
    )
    assert code == 2
    # on the one-block partition, U (the second case) has no label
    assert out.startswith(
        "gappy: invalid (checked 2 cases, exhaustive)\n"
        "  uncovered objects: ['o1', 'o2']\n"
        "  witness concept: {'positive': [], 'negative': []}\n"
    )


def test_validate_logic_rejects_seven(capsys):
    code, _, err = run(capsys, "validate-logic", "--logic", "seven", "--size", "2")
    assert code == 1
    assert "needs no validation" in err


def test_validate_logic_bad_spec_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate-logic", "--logic", str(path))
    assert code == 1
    assert "bad logic spec" in err


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "x", "values": 5},
        [1],
        {"name": "x", "values": [5]},
        {"name": "x", "values": [{"label": ["a"], "up": ["T"]}]},
        {"name": "x", "values": [{"label": "a", "up": "sT"}]},
        {"name": "x", "values": [{"label": "a", "up": ["T"], "down": "T"}]},
        {"name": 3, "values": [{"label": "a", "up": ["T"]}]},
    ],
    ids=["values-number", "array", "value-number", "label-array", "up-string",
         "down-string", "name-number"],
)
@pytest.mark.parametrize("command", ["classify", "validate-logic"])
def test_malformed_spec_file_is_a_data_error(capsys, demo_csv, tmp_path, spec, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(
        capsys, command, "--logic", str(path), "--input", str(demo_csv)
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: bad logic spec: ")
    assert " must be " in err


@pytest.mark.parametrize("command", ["classify", "validate-logic"])
def test_a_deeply_nested_spec_file_is_a_data_error(demo_csv, tmp_path, command):
    """A spec nested past the JSON decoder's recursion limit ends in one
    error line, not in a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    env = {**os.environ, "PYTHONPATH": str(Path(pbzlogic.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "pbzlogic.cli", command, "--input", str(demo_csv),
         "--logic", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(f"error: {path}: bad logic spec: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_list_logics(capsys):
    code, out, _ = run(capsys, "list-logics")
    assert code == 0
    for name in ("treatment", "triage", "diagnosis", "belnap", "seven"):
        assert name in out
