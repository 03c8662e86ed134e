"""Command-line front end: the parser, the dispatch and the report writers.

Subcommands:

* ``classify``       seven-valued (plus derived-logic) classification of a CSV
                     decision table
* ``verify``         run the axiom suite against a table or synthetic sweeps
* ``validate-logic`` check a logic spec for disjointness and coverage
* ``list-logics``    show the built-in logics

A table is read by `table.load_table`; `classify` builds its report in
`report`.  `verify` and `validate-logic` take every knowledge base, a
table or a set partition of a synthetic sweep, as a `table.Partition` and
build no mask layer, so `verify --input` loads only this module, the
ingest, the region bits and the axiom engine.  Every JSON report is
written here, as `json.dumps(report, indent=2, sort_keys=True)` would
write it, without loading `json`.

Exit status: 0 on success, 1 on data and usage errors and on a closed
stdout, 2 when an axiom or logic check fails or stays undecided.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, TextIO

from _json import encode_basestring_ascii

from .table import (  # the ingest; these names stay importable from here
    DEFAULT_NEGATIVE,
    DEFAULT_POSITIVE,
    DEFAULT_UNKNOWN,
    SCHEMA_VERSION,
    DataError,
    Partition,
    Table,
    TableConfig,
    load_table,
    sha256_hex,
)

if TYPE_CHECKING:  # each command imports the modules it uses
    from .axioms import AxiomReport
    from .logics import LogicSpec, LogicValidation
    from .sevenvalued import TruthValue

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CHECK_FAILED = 2

# Synthetic sweeps check one knowledge base per set partition of their
# objects: Bell(8) = 4,140 of them.
MAX_SYNTHETIC_SIZE = 8


# The commands call `load_table` and the four functions below through this
# module's globals, so that the traced runs can wrap them here.


def all_knowledge_bases(size: int) -> Iterator[Partition]:
    """`sweep.all_partitions`, imported on first call so that `classify`
    never loads the sweep.  The name stays until the tracer patches `sweep`
    itself (ROADMAP.md, item 2)."""
    from .sweep import all_partitions

    return all_partitions(size)


def validate_logic(spec: LogicSpec, labels_of: dict[TruthValue, tuple[str, ...]],
                   partition: Partition, budget: int | None) -> LogicValidation:
    """`logics.validate_blocks`, imported on first call so that `verify`
    never loads the logics.  The name stays until the tracer patches
    `logics` itself (ROADMAP.md, item 2)."""
    from .logics import validate_blocks

    return validate_blocks(spec, labels_of, partition, budget)


def build_classification_report(
    table: Table, spec: LogicSpec | None, input_sha256: str, config_echo: dict
) -> dict:
    """`report.build_classification_report`, imported on first call so
    that `verify` never loads the classification report."""
    from .report import build_classification_report

    return build_classification_report(table, spec, input_sha256, config_echo)


def render_json(report: dict, out: TextIO) -> None:
    """Write `json.dumps(report, indent=2, sort_keys=True)` and a newline.

    The `objects` of a classification report (an `ObjectRows`) write
    themselves, a chunk at a time, where the rest of the report, rendered
    with an empty list, holds `"objects": []`; no string value can hold
    that line, since strings are written with their line breaks escaped.
    """
    rows = report.get("objects")
    if not (rows and hasattr(rows, "write_json")):
        out.write(_dumps(report) + "\n")
        return
    head, tail = _dumps({**report, "objects": []}).split('\n  "objects": []')
    out.write(f'{head}\n  "objects": [\n')
    rows.write_json(out)
    out.write(f"\n  ]{tail}\n")


def _dumps(value: object, indent: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` of a value nested at
    `indent`, for the values that reports hold: dicts with str keys, lists,
    tuples, strings, ints, bools and None.

    Strings and keys are escaped by the C `encode_basestring_ascii` and ints
    written by `int.__repr__`, as `json.dumps` does; any other value is a
    TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{\n" + ",\n".join([
            f"{inner}{encode_basestring_ascii(key)}: {_dumps(item, inner)}"
            for key, item in sorted(value.items())
        ]) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + ",\n".join([inner + _dumps(item, inner) for item in value]) + (
            f"\n{indent}]"
        )
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json_list(key: str, entries: Iterator[str], out: TextIO) -> None:
    """Write the report `{key: [...], "schema_version": SCHEMA_VERSION}` as
    `render_json` would, `key` sorting first, from entries rendered at
    depth 2, each as soon as it is made.  The first entry is made before
    anything is written, so that an error in it leaves the output empty;
    there is always one."""
    first = next(entries)
    out.write(f'{{\n  {encode_basestring_ascii(key)}: [\n{first}')
    for entry in entries:
        out.write(",\n" + entry)
    out.write(f'\n  ],\n  "schema_version": {SCHEMA_VERSION}\n}}\n')


def _exact_counts(write: Callable[[Iterator, TextIO], None], items: Iterator,
                  out: TextIO) -> None:
    """`write(items, out)` for reports whose counts may exceed Python's
    default 4,300-digit limit on int-to-str conversion: an exact verdict
    covers 3^|U| concepts of a logic, or 3^(|U| * arity) tuples of an
    axiom."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        write(items, out)
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_size(text: str, option: str, limit: int) -> int:
    """A synthetic universe size from 1 to `limit`, else a DataError."""
    try:
        size = int(text)
    except ValueError:
        size = 0
    if not 1 <= size <= limit:
        raise DataError(f"{option} takes sizes from 1 to {limit}, got {text!r}")
    return size


def _resolve_logic(name_or_path: str) -> LogicSpec | None:
    """A built-in name, a spec file path, or None for the bare seven values."""
    if name_or_path == "seven":
        return None
    from .logics import LogicSpec, builtin_logic

    try:
        return builtin_logic(name_or_path)
    except KeyError:
        pass
    path = Path(name_or_path)
    if not path.exists():
        raise DataError(
            f"unknown logic {name_or_path!r}: not a built-in and not a file"
        )
    try:
        return LogicSpec.from_json(path.read_text(encoding="utf-8"))
    except (KeyError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise DataError(f"{path}: bad logic spec: {exc}") from exc


def _table_config(args: argparse.Namespace) -> TableConfig:
    def tokens(value: str | None, default: tuple[str, ...] | None) -> tuple[str, ...] | None:
        if value is None:
            return default
        return tuple(t.strip() for t in value.split(","))

    return TableConfig(
        attributes=tokens(args.attributes, None) if args.attributes else None,
        decision_column=args.decision_column,
        positive_tokens=tokens(args.positive_tokens, DEFAULT_POSITIVE),
        negative_tokens=tokens(args.negative_tokens, DEFAULT_NEGATIVE),
        unknown_tokens=tokens(args.unknown_tokens, DEFAULT_UNKNOWN),
    )


def _add_table_options(sub: argparse.ArgumentParser, required: bool) -> None:
    sub.add_argument("--input", required=required, help="CSV decision table")
    sub.add_argument(
        "--attributes", help="comma-separated condition attributes (default: all)"
    )
    sub.add_argument("--decision-column", help="decision column name (default: last)")
    sub.add_argument("--positive-tokens", help="comma-separated positive decision tokens")
    sub.add_argument("--negative-tokens", help="comma-separated negative decision tokens")
    sub.add_argument("--unknown-tokens", help="comma-separated unknown decision tokens")


def cmd_classify(args: argparse.Namespace) -> int:
    config = _table_config(args)
    data = Path(args.input).read_bytes()
    table = load_table(args.input, config, data)
    input_sha256 = sha256_hex(data)
    del data  # not held while rendering
    spec = _resolve_logic(args.logic)
    report = build_classification_report(table, spec, input_sha256, config.echo())
    if args.format == "json":
        render_json(report, sys.stdout)
    else:
        from .report import render_classification_text

        render_classification_text(report, sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import axioms  # here, so that the other commands never load the engine

    budget = axioms.DEFAULT_BUDGET if args.budget is None else args.budget
    failed = False

    def runs() -> Iterator[tuple[str, bool, list[AxiomReport]]]:
        nonlocal failed
        for label, partition in _partitions(args, args.sizes or "1,2,3,4", "--sizes"):
            reports = axioms.check_blocks(partition, budget, args.mutate or None)
            ok = axioms.certified(reports)
            failed = failed or not ok
            yield label, ok, reports

    write = _write_runs_json if args.format == "json" else _write_runs_text
    _exact_counts(write, runs(), sys.stdout)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _partitions(args: argparse.Namespace, sizes: str,
                option: str) -> Iterator[tuple[str, Partition]]:
    """The label and partition of each knowledge base that `verify` and
    `validate-logic` check, one at a time: the `--input` table, else every
    set partition of each size in the comma-separated `sizes` of `option`."""
    if args.input:
        table = load_table(args.input, _table_config(args))
        yield f"table {args.input}", Partition(*table[:3])
        return
    for size in [_parse_size(s, option, MAX_SYNTHETIC_SIZE) for s in sizes.split(",")]:
        for i, partition in enumerate(all_knowledge_bases(size)):
            yield f"size {size} partition {i}", partition


def _write_runs_text(runs: Iterator[tuple[str, bool, list[AxiomReport]]], out: TextIO) -> None:
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


def _write_runs_json(runs: Iterator[tuple[str, bool, list[AxiomReport]]], out: TextIO) -> None:
    """The `verify` report, `{"runs": [...], "schema_version": 1}`: each run
    is written when it is checked.  A sweep repeats the same few entries
    without a witness in every run, so each of those is rendered once."""
    escape = encode_basestring_ascii
    rendered: dict[tuple, str] = {}  # entries without a witness, by their fields

    def axiom(r: AxiomReport) -> str:
        if r.witness is not None:
            return "        " + _dumps(r.to_dict(), "        ")
        key = r[:4]  # axiom, status, cases_checked, exhaustive
        entry = rendered.get(key)
        if entry is None:
            entry = rendered[key] = "        " + _dumps(r.to_dict(), "        ")
        return entry

    _write_json_list("runs", (
        '    {\n      "axioms": [\n' + ",\n".join(map(axiom, reports))
        + f'\n      ],\n      "certified": {"true" if ok else "false"},'
        f'\n      "kb": {escape(label)}\n    }}'
        for label, ok, reports in runs
    ), out)


def cmd_validate_logic(args: argparse.Namespace) -> int:
    spec = _resolve_logic(args.logic)
    if spec is None:
        raise DataError("the base seven-valued assignment needs no validation")
    labels_of = spec.value_table()  # once per command
    failed = False

    def results() -> Iterator[LogicValidation]:
        nonlocal failed
        for _, partition in _partitions(args, str(args.size), "--size"):
            result = validate_logic(spec, labels_of, partition, args.budget)
            failed = failed or result.status != "valid"
            yield result

    write = _write_results_json if args.format == "json" else _write_results_text
    _exact_counts(write, results(), sys.stdout)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _write_results_json(results: Iterator[LogicValidation], out: TextIO) -> None:
    """The `validate-logic` report, `{"results": [...], "schema_version": 1}`,
    each result written when it is decided."""
    _write_json_list(
        "results", ("    " + _dumps(result.to_dict(), "    ") for result in results), out
    )


def _write_results_text(results: Iterator[LogicValidation], out: TextIO) -> None:
    """One verdict line per knowledge base, then the failure and witness of
    an invalid one.  A valid verdict counts the concepts it covers, any
    other the cases evaluated."""
    for result in results:
        rep = result.to_dict()
        unit = "concepts" if rep["status"] == "valid" else "cases"
        lines = [
            f"{rep['logic']}: {rep['status']}"
            f" (checked {rep['checked']} {unit}"
            f"{', exhaustive' if rep['exhaustive'] else ''})"
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


def cmd_list_logics(args: argparse.Namespace) -> int:
    from .logics import builtin_logics

    for spec in builtin_logics():
        labels = ", ".join(spec.labels())
        sys.stdout.write(f"{spec.name}: {labels}\n")
    sys.stdout.write("seven: the unaggregated seven-valued classification\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on a data error: argparse's own 2 is
    the code of a failed check.  Subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_DATA_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pbzlogic",
        description="Seven-valued rough-set classification of decision tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify every object of a decision table")
    _add_table_options(p, required=True)
    p.add_argument("--logic", default="seven",
                   help="built-in logic name, spec file path, or 'seven'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the lattice axiom suite")
    _add_table_options(p, required=False)
    p.add_argument("--sizes",
                   help=f"synthetic universe sizes from 1 to {MAX_SYNTHETIC_SIZE},"
                   " e.g. 3,4 (default 1,2,3,4)")
    p.add_argument("--budget", type=int, default=None,
                   help="maximum cases evaluated per axiom; an axiom with"
                   " more reduced cases and no failure among them is undecided")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--mutate", help=argparse.SUPPRESS)  # test harness only
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("validate-logic", help="check a logic spec for partition laws")
    _add_table_options(p, required=False)
    p.add_argument("--logic", required=True, help="built-in logic name or spec file path")
    p.add_argument("--size", type=int, default=4,
                   help=f"synthetic universe size from 1 to {MAX_SYNTHETIC_SIZE}"
                   " when no input table is given: every set partition of it")
    p.add_argument("--budget", type=int, default=None,
                   help="maximum cases (realisable base values) evaluated per"
                   " knowledge base; a logic with more cases and no failure"
                   " among them is undecided")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate_logic)

    p = sub.add_parser("list-logics", help="list the built-in logics")
    p.set_defaults(func=cmd_list_logics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (OSError, ValueError) as exc:  # DataError is a ValueError
        if isinstance(exc, BrokenPipeError):
            # The reader of stdout is gone: point it at /dev/null, so that
            # the flush at exit cannot fail too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
