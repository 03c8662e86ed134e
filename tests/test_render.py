"""`render_json` splices a classification report's objects from per-value
fragments, written in chunks, and writes every other value with its own
JSON writer; it must print exactly what `json.dumps` prints."""

import csv
import io
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbzlogic import LogicSpec, builtin_logic, builtin_logics, report as report_module
from pbzlogic import verdicts
from pbzlogic.axioms import certified, check_blocks
from pbzlogic.cli import TableConfig, build_classification_report, load_table, render_json
from pbzlogic.jsontext import dumps
from pbzlogic.report import render_classification_text
from pbzlogic.partition import Partition

# Ids and labels the encoder has to escape; "\x00" is left out because
# csv.reader rejects it before Python 3.11.
TRICKY = ['"', "\\", "\t", "\x01", "\x1f", "\x7f", "é", "✓", "\U0001f600",
          '"objects": null', '\n  "objects": []', "\r\n"]
CHARS = st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
TEXT = st.lists(st.one_of(st.sampled_from(TRICKY), CHARS), max_size=4).map("".join)


def _escaped_triage() -> LogicSpec:
    """Triage with a name and labels that need escaping."""
    data = builtin_logic("triage").to_dict()
    data["name"] = 'my "triage" \\ é'
    for value, label in zip(data["values"], ('go "now"', "ask\\✓", "\x01 home\n")):
        value["label"] = label
    return LogicSpec.from_dict(data)


LOGICS = [None, *builtin_logics(), _escaped_triage()]


def written(render, report: dict, chunk: int = report_module.RENDER_CHUNK) -> str:
    """What `render(report, out)` writes, `chunk` objects at a time."""
    out = io.StringIO()
    saved, report_module.RENDER_CHUNK = report_module.RENDER_CHUNK, chunk
    try:
        render(report, out)
    finally:
        report_module.RENDER_CHUNK = saved
    return out.getvalue()


@st.composite
def tables(draw) -> bytes:
    """A decision table of 1-12 rows whose ids are drawn from TEXT.  Its
    attribute takes up to 12 values, so that a table may have a block per
    row, or 12 rows whose blocks meet all seven nonempty sets of regions."""
    rows = [["id", "a", "d"]]
    for i in range(draw(st.integers(1, 12))):
        # the index keeps ids distinct and non-empty after strip()
        oid = draw(TEXT) + str(i)
        rows.append([oid, str(draw(st.integers(0, 11))),
                     draw(st.sampled_from(["1", "0", "?"]))])
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


# 12 rows in seven blocks, one for each nonempty set of regions.
ALL_FLAGS = (b"id,a,d\r\no0,a,1\r\no1,b,0\r\no2,c,?\r\no3,d,1\r\no4,d,0\r\no5,e,1\r\n"
             b"o6,e,?\r\no7,f,0\r\no8,f,?\r\no9,g,1\r\no10,g,0\r\no11,g,?\r\n")


@settings(max_examples=200, deadline=None)
@given(data=tables(), logic=st.sampled_from(LOGICS), chunk=st.integers(1, 13))
@example(data=ALL_FLAGS, logic=None, chunk=5)
@example(data=ALL_FLAGS, logic=LOGICS[-1], chunk=3)
def test_render_json_equals_json_dumps(data, logic, chunk):
    config = TableConfig()
    table = load_table("table.csv", config, data)
    report = build_classification_report(table, logic, "0" * 64, config.echo())
    assert written(render_json, report, chunk) == (
        json.dumps(report, indent=2, sort_keys=True, default=list) + "\n"
    )


@settings(max_examples=100, deadline=None)
@given(data=tables(), logic=st.sampled_from(LOGICS), chunk=st.integers(1, 13))
@example(data=ALL_FLAGS, logic=None, chunk=5)
@example(data=ALL_FLAGS, logic=LOGICS[-1], chunk=3)
def test_render_text_formats_each_entry(data, logic, chunk):
    config = TableConfig()
    report = build_classification_report(
        load_table("table.csv", config, data), logic, "0" * 64, config.echo()
    )
    objects = list(report["objects"])
    width = max(6, max(len(entry["id"]) for entry in objects)) + 2
    lines = [f"logic: {report['logic']}", f"{'object':<{width}}{'seven':<7}derived"]
    lines += [f"{e['id']:<{width}}{e['seven']:<7}{e['derived']}" for e in objects]
    lines += [
        f"{kind} counts: " + " ".join(f"{k}={v}" for k, v in report["summary"][kind].items())
        for kind in ("seven", "derived")
    ]
    assert written(render_classification_text, report, chunk) == "\n".join(lines) + "\n"


def test_render_json_without_objects_equals_json_dumps():
    for report in ({"runs": [], "schema_version": 1}, {"objects": [], "x": '"objects": []'}):
        assert written(render_json, report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


# Ints past the 4,300 digits that str() accepts by default: no report holds
# one, so this strategy tests `dumps` alone.
BIG_INTS = st.integers(4_300, 5_000).flatmap(lambda d: st.sampled_from([10**d + 7, 3 - 10**d]))
SCALARS = st.none() | st.booleans() | st.integers() | BIG_INTS | TEXT | st.text()
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(TEXT | st.text(), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES, report=st.dictionaries(TEXT | st.text(), JSON_VALUES, max_size=5))
def test_json_writer_equals_json_dumps(value, report):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)
        assert written(render_json, report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_writer_rejects_what_reports_never_hold():
    # json.dumps would write 1.5; a report holds no float
    with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
        dumps(1.5)


class _Writes:
    """A stream that keeps each write apart."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_a_failing_run_is_written_up_to_each_witness():
    # a witness lists every object, so the verify writer writes what it
    # holds after each one; a passing run is joined and written whole
    bad = check_blocks(Partition(("a", "b", "c"), [0, 0, 1], [2, 1]), "meet-drops-negative")
    good = check_blocks(Partition(("x", "y"), [0, 1], [1, 1]))
    out = _Writes()
    verdicts._write_runs_json(iter([("first", certified(bad), bad), ("second", True, good)]), out)
    text = "".join(out.writes)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    witnessed = ["        " + dumps(verdicts.axiom_entry(r), "        ")
                 for r in bad if r.witness is not None]
    assert len(witnessed) > 1
    for entry in witnessed:
        assert sum(write.endswith(entry) for write in out.writes) == 1
    [second] = [write for write in out.writes if '"kb": "second"' in write]
    assert json.loads(second.removeprefix(",\n")) == json.loads(text)["runs"][1]
