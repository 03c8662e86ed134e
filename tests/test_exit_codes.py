"""Property test of the CLI's exit-code contract on fuzzed decision tables.

Whatever the table and flags, a command exits 0, 1 or 2 without a
traceback, and a data or usage error (exit 1) prints nothing on stdout,
on both parser routes: the exact parser and argparse.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from pbzlogic.cli import main
from pbzlogic.options import parse_exact

VALUES = st.sampled_from(["p", "q", "", " p ", 'x"y', "p\nq", "a,b", "p\r\nq"])
TOKENS = st.sampled_from(["yes", "no", "?", "1", "0", "TRUE", ""])
DEFECTS = st.sampled_from([
    None, None, None, "duplicate id", "padded duplicate id", "empty id",
    "unmapped token", "ragged row", "no id column", "no rows",
])


@st.composite
def tables(draw) -> bytes:
    """A table of up to 8 rows with at most one defect."""
    defect = draw(DEFECTS)
    header = draw(st.sampled_from([["id", "a", "d"], ["id", "a", "b", "d"], ["id", "d"]]))
    if defect == "no id column":
        header = header[-1:]
    rows = [header]
    for i in range(0 if defect == "no rows" else draw(st.integers(1, 8))):
        rows.append([f"o{i}"] + [draw(VALUES) for _ in header[1:-1]] + [draw(TOKENS)])
    last = rows[-1]
    if defect == "duplicate id":
        last[0] = "o0"
    elif defect == "padded duplicate id":
        last[0] = " o0"
    elif defect == "empty id":
        last[0] = ""
    elif defect == "unmapped token":
        last[-1] = "maybe"
    elif defect == "ragged row":
        last.pop()
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows(rows)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + out.getvalue()).encode("utf-8")


@st.composite
def commands(draw, path: str) -> list[str]:
    """A command line on either parser route: `--format` is now and then
    spelt `--format=...` or abbreviated `--form`, which only argparse
    parses, and an option may be given twice."""
    command = draw(st.sampled_from(["classify", "verify", "validate-logic"]))
    fmt = draw(st.sampled_from(["text", "json"]))
    spelling = draw(st.sampled_from(["pair", "pair", "equals", "abbreviation"]))
    argv = [command, "--input", path,
            *{"pair": ["--format", fmt], "equals": [f"--format={fmt}"],
              "abbreviation": ["--form", fmt]}[spelling]]
    if command != "verify":
        logics = ["treatment", "triage", "diagnosis", "belnap", "nope"]
        if command == "classify":
            logics.append("seven")
        argv += ["--logic", draw(st.sampled_from(logics))]
    if draw(st.booleans()):  # a repeated option: the last value wins
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    event("exact parser" if parse_exact(argv) else "argparse")
    return argv


@settings(max_examples=300, deadline=None)
@given(data=tables(), choice=st.data())
def test_exit_code_contract(data, choice):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(data)
        argv = choice.draw(commands(str(path)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == "", argv
