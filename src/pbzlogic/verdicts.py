"""The reports of `verify` and `validate-logic`, written as they are decided.

`write_runs` writes the axiom verdicts of each knowledge base that
`verify` checks, `write_results` the verdict of each one that
`validate-logic` checks, as text or as JSON: the JSON is what
`json.dumps(report, indent=2, sort_keys=True)` of the whole report would
write.  Only those two commands load this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, TextIO

from _json import encode_basestring_ascii

if TYPE_CHECKING:
    from .axioms import AxiomReport
    from .logics import LogicValidation

    Run = tuple[str, bool, list[AxiomReport]]  # label, certified, one report per axiom

# Version 2 counts cases evaluated and states coverage as `covers` (README).
SCHEMA_VERSION = 2


def write_runs(runs: Iterator[Run], fmt: str, out: TextIO) -> None:
    """The `verify` report of each run, in the format `fmt`."""
    (_write_runs_json if fmt == "json" else _write_runs_text)(runs, out)


def write_results(results: Iterator[LogicValidation], fmt: str, out: TextIO) -> None:
    """The `validate-logic` report of each result, in the format `fmt`."""
    (_write_results_json if fmt == "json" else _write_results_text)(results, out)


def _write_json_list(key: str, entries: Iterator[str], out: TextIO) -> None:
    """Write the report `{key: [...], "schema_version": SCHEMA_VERSION}` as
    `json.dumps` would, `key` sorting first, from entries rendered at
    depth 2, each as soon as it is made.  The first entry is made before
    anything is written, so that an error in it leaves the output empty;
    there is always one."""
    first = next(entries)
    out.write(f'{{\n  {encode_basestring_ascii(key)}: [\n{first}')
    for entry in entries:
        out.write(",\n" + entry)
    out.write(f'\n  ],\n  "schema_version": {SCHEMA_VERSION}\n}}\n')


def _write_runs_text(runs: Iterator[Run], out: TextIO) -> None:
    """A verdict line per knowledge base, then each axiom that does not
    hold, with its cases and witness."""
    for label, ok, reports in runs:
        lines = [f"{label}: {'PBZ-certified' if ok else 'FAILED'}\n"]
        for r in reports:
            if r.status != "holds":
                witness = r.witness_names()
                lines.append(
                    f"  {r.axiom}: {r.status} (cases checked: {r.cases_checked})"
                    + ("" if witness is None else f" witness: {witness}") + "\n"
                )
        out.write("".join(lines))


def _write_runs_json(runs: Iterator[Run], out: TextIO) -> None:
    """The `verify` report, `{"runs": [...], "schema_version": 2}`: each run
    is written when it is checked.  A sweep repeats the same few entries
    without a witness in every run, so each of those is rendered once."""
    from .jsontext import dumps  # here and below, so that text output never loads it

    escape = encode_basestring_ascii
    rendered: dict[tuple, str] = {}  # entries without a witness, by their fields

    def axiom(r: AxiomReport) -> str:
        if r.witness is not None:
            return "        " + dumps(r.to_dict(), "        ")
        key = (*r[:3], r.covers)  # covers tells the holds of each |U| apart
        entry = rendered.get(key)
        if entry is None:
            entry = rendered[key] = "        " + dumps(r.to_dict(), "        ")
        return entry

    _write_json_list("runs", (
        '    {\n      "axioms": [\n' + ",\n".join(map(axiom, reports))
        + f'\n      ],\n      "certified": {"true" if ok else "false"},'
        f'\n      "kb": {escape(label)}\n    }}'
        for label, ok, reports in runs
    ), out)


def _write_results_json(results: Iterator[LogicValidation], out: TextIO) -> None:
    """The `validate-logic` report, `{"results": [...], "schema_version": 2}`,
    each result written when it is decided."""
    from .jsontext import dumps

    _write_json_list(
        "results", ("    " + dumps(result.to_dict(), "    ") for result in results), out
    )


def _write_results_text(results: Iterator[LogicValidation], out: TextIO) -> None:
    """One verdict line per knowledge base, with the cases evaluated and
    the concepts a valid verdict covers, then the failure and witness of
    an invalid one.  Every verdict is exhaustive."""
    for result in results:
        rep = result.to_dict()
        covers = "" if result.covers is None else ", covers %d^%d concepts" % result.covers
        lines = [
            f"{rep['logic']}: {rep['status']} (checked {rep['checked']} cases{covers}, exhaustive)"
        ]
        if "overlap" in rep:
            lines.append(
                f"  overlap between {rep['overlap'][0]} and {rep['overlap'][1]}"
                f" on {rep['overlap'][2]}"
            )
        if "uncovered" in rep:
            lines.append(f"  uncovered objects: {rep['uncovered']}")
        if "witness" in rep:
            lines.append(f"  witness concept: {rep['witness']}")
        out.write("".join(line + "\n" for line in lines))
