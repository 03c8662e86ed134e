"""The reports of `verify` and `validate-logic`, written as they are decided.

The engines return raw masks.  `axiom_entry` and `logic_entry` render a
verdict as its JSON entry, naming the objects of its masks, and every
writer, text or JSON, renders each verdict from its entry.  `write_runs`
writes the axiom verdicts of each knowledge base that `verify` checks,
`write_results` the verdict of each one that `validate-logic` checks, as
text or as JSON: the JSON is what `json.dumps(report, indent=2,
sort_keys=True)` of the whole report would write.  Each writer reads one
run or result at a time from its iterator and writes its text as it
renders it, so it never holds more than one run's text, nor more than one
witness.  Nothing is written before the first run or result is decided,
so an error there leaves the output empty.  Only those two commands load
this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence, TextIO

from _json import encode_basestring_ascii

from .partition import members_of

if TYPE_CHECKING:
    from .axioms import AxiomReport
    from .logics import LogicValidation

    Run = tuple[str, bool, list[AxiomReport]]  # label, certified, one report per axiom

# Version 2 counts cases evaluated and states coverage as `covers` (README).
SCHEMA_VERSION = 2


def axiom_entry(report: AxiomReport) -> dict:
    """The entry of one axiom verdict: a counterexample's witness names,
    for each variable, the objects of its positive and negative masks."""
    entry = _entry(report.covers, axiom=report.axiom, status=report.status,
                   cases_checked=report.cases_checked, exhaustive=report.status == "holds")
    if report.witness is not None:
        entry["witness"] = [_names(pair, report.universe.objects) for pair in report.witness]
    return entry


def logic_entry(result: LogicValidation) -> dict:
    """The entry of one logic verdict: an invalid one names the objects of
    its witness concept, and those of its overlap or uncovered mask."""
    entry = _entry(result.covers, logic=result.logic, status=result.status,
                   checked=result.checked, exhaustive=True)  # both engines decide exactly
    if result.witness is not None:
        entry["witness"] = _names(result.witness, result.universe.objects)
    if result.overlap is not None:
        *labels, shared = result.overlap
        entry["overlap"] = [*labels, members_of(shared, result.universe.objects)]
    if result.uncovered is not None:
        entry["uncovered"] = members_of(result.uncovered, result.universe.objects)
    return entry


def _entry(covers: tuple[int, int] | None, **entry: object) -> dict:
    """The fields of an entry, and a hold's `covers`: base^exponent cases."""
    if covers is not None:
        entry["covers"] = {"base": covers[0], "exponent": covers[1]}
    return entry


def _names(pair: tuple[int, int], objects: Sequence[str]) -> dict[str, list[str]]:
    return {"positive": members_of(pair[0], objects), "negative": members_of(pair[1], objects)}


def write_runs(runs: Iterator[Run], fmt: str, out: TextIO) -> None:
    """The `verify` report of each run, in the format `fmt`."""
    (_write_runs_json if fmt == "json" else _write_runs_text)(runs, out)


def write_results(results: Iterator[LogicValidation], fmt: str, out: TextIO) -> None:
    """The `validate-logic` report of each result, in the format `fmt`."""
    (_write_results_json if fmt == "json" else _write_results_text)(results, out)


def _write_runs_text(runs: Iterator[Run], out: TextIO) -> None:
    """A verdict line per knowledge base, then each axiom that does not
    hold, with its cases and witness, each line written once it is made."""
    for label, ok, reports in runs:
        out.write(f"{label}: {'PBZ-certified' if ok else 'FAILED'}\n")
        for r in reports:
            if r.status != "holds":
                entry = axiom_entry(r)
                witness = f" witness: {entry['witness']}" if "witness" in entry else ""
                out.write(f"  {entry['axiom']}: {entry['status']}"
                          f" (cases checked: {entry['cases_checked']}){witness}\n")


def _write_runs_json(runs: Iterator[Run], out: TextIO) -> None:
    """The `verify` report, `{"runs": [...], "schema_version": 2}`.

    A run's text is held until it ends, and written with one join, or up
    to each entry with a witness, which lists every object: so no two
    witnesses are ever held at once.  A sweep repeats the same few entries
    without a witness in every run, so each of those is rendered once.
    """
    from .jsontext import dumps  # here and below, so that text output never loads it

    rendered: dict[tuple, str] = {}  # entries without a witness, by their fields
    text = ['{\n  "runs": [\n']  # written with the first run, once it is checked
    for label, ok, reports in runs:
        text.append('    {\n      "axioms": [\n')
        sep = ""
        for r in reports:
            text.append(sep)
            sep = ",\n"
            if r.witness is None:
                key = (*r[:3], r.covers)  # covers tells the holds of each |U| apart
                entry = rendered.get(key)
                if entry is None:
                    entry = rendered[key] = "        " + dumps(axiom_entry(r), "        ")
                text.append(entry)
            else:
                text.append("        " + dumps(axiom_entry(r), "        "))
                out.write("".join(text))
                text.clear()
        text.append(f'\n      ],\n      "certified": {"true" if ok else "false"},'
                    f'\n      "kb": {encode_basestring_ascii(label)}\n    }}')
        out.write("".join(text))
        text = [",\n"]
    out.write(f'\n  ],\n  "schema_version": {SCHEMA_VERSION}\n}}\n')


def _write_results_json(results: Iterator[LogicValidation], out: TextIO) -> None:
    """The `validate-logic` report, `{"results": [...], "schema_version": 2}`,
    each result written once it is decided."""
    from .jsontext import dumps

    sep = '{\n  "results": [\n'  # written with the first result
    for result in results:
        out.write(sep + "    " + dumps(logic_entry(result), "    "))
        sep = ",\n"
    out.write(f'\n  ],\n  "schema_version": {SCHEMA_VERSION}\n}}\n')


def _write_results_text(results: Iterator[LogicValidation], out: TextIO) -> None:
    """One verdict line per knowledge base, with the cases evaluated and
    the concepts a valid verdict covers, then the failure and witness of
    an invalid one.  Every verdict is exhaustive.  An overlap's labels are
    written by their repr, as the object lists are: a label may hold any
    text, " and " included."""
    for result in results:
        rep = logic_entry(result)
        c = rep.get("covers")
        covers = "" if c is None else f", covers {c['base']}^{c['exponent']} concepts"
        lines = [
            f"{rep['logic']}: {rep['status']} (checked {rep['checked']} cases{covers}, exhaustive)"
        ]
        if "overlap" in rep:
            lines.append(
                f"  overlap between {rep['overlap'][0]!r} and {rep['overlap'][1]!r}"
                f" on {rep['overlap'][2]}"
            )
        if "uncovered" in rep:
            lines.append(f"  uncovered objects: {rep['uncovered']}")
        if "witness" in rep:
            lines.append(f"  witness concept: {rep['witness']}")
        out.write("".join(line + "\n" for line in lines))
