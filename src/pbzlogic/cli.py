"""Command-line front end: decision-table ingestion and reports.

Subcommands:

* ``classify``       seven-valued (plus derived-logic) classification of a CSV
                     decision table
* ``verify``         run the axiom suite against a table or synthetic sweeps
* ``validate-logic`` check a logic spec for disjointness and coverage
* ``list-logics``    show the built-in logics

Exit status: 0 on success, 1 on data and usage errors, 2 when an axiom or
logic check fails or stays undecided.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NoReturn

from .logics import (
    LogicSpec,
    builtin_logic,
    builtin_logics,
    single_label,
    validate_logic,
)
from .orthopair import Orthopair
from .sevenvalued import TruthValue, block_values
from .sweep import all_knowledge_bases, default_universe
from .universe import KnowledgeBase, Universe

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CHECK_FAILED = 2

DEFAULT_POSITIVE = ("1", "yes", "true", "positive")
DEFAULT_NEGATIVE = ("0", "no", "false", "negative")
DEFAULT_UNKNOWN = ("?", "unknown", "")


# Synthetic sweeps enumerate every set partition (Bell(8) = 4,140 knowledge
# bases) and, for validate-logic, 3^size concepts on each.
MAX_VERIFY_SIZE = 8
MAX_VALIDATE_SIZE = 6


class DataError(ValueError):
    """Unusable input data; reported with file location where possible."""


@dataclass
class TableConfig:
    attributes: tuple[str, ...] | None = None  # None: all condition columns
    decision_column: str | None = None  # None: last column
    positive_tokens: tuple[str, ...] = DEFAULT_POSITIVE
    negative_tokens: tuple[str, ...] = DEFAULT_NEGATIVE
    unknown_tokens: tuple[str, ...] = DEFAULT_UNKNOWN

    def echo(self) -> dict:
        return {
            "attributes": list(self.attributes) if self.attributes else "all",
            "decision_column": self.decision_column or "last",
            "positive_tokens": sorted(self.positive_tokens),
            "negative_tokens": sorted(self.negative_tokens),
            "unknown_tokens": sorted(self.unknown_tokens),
        }


def load_table(
    path: str | Path, config: TableConfig | None = None, data: bytes | None = None
) -> tuple[Universe, KnowledgeBase, Orthopair]:
    """Read a CSV decision table into a universe, partition and concept.

    First column holds object ids; the decision column (default: last)
    maps to positive/negative/unknown through the configured token sets.
    `data` is the file's content when the caller has read it already (to
    hash exactly the bytes parsed); otherwise the file at `path` is read.
    """
    config = config or TableConfig()
    if data is None:
        data = Path(path).read_bytes()
    # csv.reader takes \r\n and a lone \r as line ends, as reading in text
    # mode would, and keeps line breaks inside quoted fields; a UTF-8 BOM
    # stays in the (unused) id column name.
    text = data.decode("utf-8")
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if len(rows) < 2:
        raise DataError(f"{path}: expected a header row and at least one data row")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2:
        raise DataError(f"{path}: need an id column and at least one more column")
    column: dict[str, int] = {}
    for i, name in enumerate(header):
        if column.setdefault(name, i) != i:
            raise DataError(f"{path}: duplicate column name {name!r}")
    decision = config.decision_column or header[-1]
    if decision not in header[1:]:
        raise DataError(f"{path}: decision column {decision!r} not found")
    condition_columns = [c for c in header[1:] if c != decision]
    attributes = config.attributes or tuple(condition_columns)
    for name in attributes:
        if name not in condition_columns:
            raise DataError(f"{path}: condition attribute {name!r} not found")
    attribute_at = [column[a] for a in attributes]
    decision_at = column[decision]

    positive = {t.lower() for t in config.positive_tokens}
    negative = {t.lower() for t in config.negative_tokens}
    unknown = {t.lower() for t in config.unknown_tokens}

    vectors: dict[str, tuple[str, ...]] = {}
    positive_ids: list[str] = []
    negative_ids: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}:{lineno}: row has {len(row)} cells, header has {len(header)}"
            )
        oid = row[0].strip()
        if not oid:
            raise DataError(f"{path}:{lineno}: empty object id")
        if oid in vectors:
            raise DataError(f"{path}:{lineno}: duplicate object id {oid!r}")
        vectors[oid] = tuple([row[i].strip() for i in attribute_at])
        token = row[decision_at].strip().lower()
        if token in positive:
            positive_ids.append(oid)
        elif token in negative:
            negative_ids.append(oid)
        elif token not in unknown:
            raise DataError(
                f"{path}:{lineno}: decision token {row[decision_at].strip()!r} is not mapped"
            )

    universe = Universe(tuple(vectors))
    kb = KnowledgeBase.from_attributes(universe, vectors)
    pair = Orthopair.from_names(universe, positive_ids, negative_ids)
    return universe, kb, pair


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
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise DataError(f"{path}: bad logic spec: {exc}") from exc


def build_classification_report(
    kb: KnowledgeBase,
    pair: Orthopair,
    spec: LogicSpec | None,
    input_sha256: str,
    config_echo: dict,
) -> dict:
    """Classify every object in one pass over the blocks.

    Each block's value comes from its signature (`block_values`), each
    object takes its block's value, and a logic is its seven-entry
    `value_table`; the bare seven values are the identity table.
    """
    if spec is None:
        table = {v: (v.symbol,) for v in TruthValue}
        derived_order = [v.symbol for v in TruthValue]
    else:
        table = spec.value_table()
        derived_order = list(spec.labels())
    values = block_values(kb, pair)
    seven_of = [value.symbol for value in values]
    derived_of = [table[value] for value in values]

    objects = []
    seven_counts = dict.fromkeys((v.symbol for v in TruthValue), 0)
    derived_counts = dict.fromkeys(derived_order, 0)
    for name, block in zip(kb.universe, kb.block_index):
        seven = seven_of[block]
        derived = single_label(name, derived_of[block])
        seven_counts[seven] += 1
        derived_counts[derived] += 1
        objects.append({"id": name, "seven": seven, "derived": derived})

    return {
        "schema_version": SCHEMA_VERSION,
        "logic": spec.name if spec is not None else "seven",
        "provenance": {"input_sha256": input_sha256, "config": config_echo},
        "objects": objects,
        "summary": {"seven": seven_counts, "derived": derived_counts},
    }


def render_json(report: dict) -> str:
    """`json.dumps(report, indent=2, sort_keys=True)` and a newline.

    With indentation `json.dumps` runs the pure-Python encoder, so the
    `objects` list of a classification report (entries with the string
    keys `derived`, `id` and `seven`) is rendered apart: each distinct
    (derived, seven) pair is encoded once, and each entry adds only its
    escaped id (the C `encode_basestring_ascii`, which `json.dumps` uses
    too).  The text goes where the rest of the report, rendered with an
    empty list, holds `"objects": []`; no string value can hold that line,
    since `json.dumps` escapes line breaks in strings.
    """
    objects = report.get("objects")
    if not objects:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    rest = json.dumps({**report, "objects": []}, indent=2, sort_keys=True)
    head, tail = rest.split('\n  "objects": []')
    escape = encode_basestring_ascii
    parts: dict[tuple[str, str], tuple[str, str]] = {}
    entries = []
    for entry in objects:
        key = (entry["derived"], entry["seven"])
        if key not in parts:
            parts[key] = (
                f'    {{\n      "derived": {escape(key[0])},\n      "id": ',
                f',\n      "seven": {escape(key[1])}\n    }}',
            )
        before, after = parts[key]
        entries.append(before + escape(entry["id"]) + after)
    body = ",\n".join(entries)
    return f'{head}\n  "objects": [\n{body}\n  ]{tail}\n'


def render_classification_text(report: dict) -> str:
    lines = [f"logic: {report['logic']}"]
    width = max(6, max(len(entry["id"]) for entry in report["objects"]))
    lines.append(f"{'object':<{width + 2}}{'seven':<7}derived")
    for entry in report["objects"]:
        lines.append(f"{entry['id']:<{width + 2}}{entry['seven']:<7}{entry['derived']}")
    for kind in ("seven", "derived"):
        counts = report["summary"][kind]
        lines.append(
            f"{kind} counts: " + " ".join(f"{k}={v}" for k, v in counts.items())
        )
    return "\n".join(lines) + "\n"


def _table_config(args: argparse.Namespace) -> TableConfig:
    def tokens(value: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
        if value is None:
            return default
        return tuple(t.strip() for t in value.split(","))

    return TableConfig(
        attributes=tuple(args.attributes.split(",")) if args.attributes else None,
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
    _, kb, pair = load_table(args.input, config, data)
    spec = _resolve_logic(args.logic)
    report = build_classification_report(
        kb, pair, spec, hashlib.sha256(data).hexdigest(), config.echo()
    )
    if args.format == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_classification_text(report))
    return EXIT_OK


def _render_exact_counts(report: dict) -> str:
    """render_json for reports whose counts may exceed Python's default
    4,300-digit limit on int-to-str conversion: an exact verdict covers
    |elements|^arity = 3^(|U| * arity) tuples."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render_json(report)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import axioms  # here, so that the other commands never load the engine

    budget = axioms.DEFAULT_BUDGET if args.budget is None else args.budget
    runs: list[tuple[str, KnowledgeBase]] = []
    if args.input:
        _, kb, _ = load_table(args.input, _table_config(args))
        runs.append((f"table {args.input}", kb))
    else:
        sizes = [
            _parse_size(s, "--sizes", MAX_VERIFY_SIZE)
            for s in (args.sizes or "1,2,3,4").split(",")
        ]
        for size in sizes:
            for i, kb in enumerate(all_knowledge_bases(default_universe(size))):
                runs.append((f"size {size} partition {i}", kb))

    results = []
    failed = False
    for label, kb in runs:
        if args.mutate:
            reports = axioms.run_mutation(kb, args.mutate, budget=budget)
        else:
            reports = axioms.check_all(kb, budget=budget)
        ok = axioms.certified(reports)
        failed = failed or not ok
        results.append({"kb": label, "certified": ok,
                        "axioms": [r.to_dict() for r in reports]})

    if args.format == "json":
        sys.stdout.write(_render_exact_counts(
            {"schema_version": SCHEMA_VERSION, "runs": results}))
    else:
        for run in results:
            verdict = "PBZ-certified" if run["certified"] else "FAILED"
            sys.stdout.write(f"{run['kb']}: {verdict}\n")
            for rep in run["axioms"]:
                if rep["status"] != "holds":
                    sys.stdout.write(
                        f"  {rep['axiom']}: {rep['status']}"
                        f" (cases checked: {rep['cases_checked']})"
                    )
                    if "witness" in rep:
                        sys.stdout.write(f" witness: {rep['witness']}")
                    sys.stdout.write("\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_validate_logic(args: argparse.Namespace) -> int:
    spec = _resolve_logic(args.logic)
    if spec is None:
        raise DataError("the base seven-valued assignment needs no validation")
    kbs: list[KnowledgeBase]
    if args.input:
        _, kb, _ = load_table(args.input, _table_config(args))
        kbs = [kb]
    else:
        size = _parse_size(str(args.size), "--size", MAX_VALIDATE_SIZE)
        kbs = list(all_knowledge_bases(default_universe(size)))
    failed = False
    reports = []
    for kb in kbs:
        result = validate_logic(kb, spec, budget=args.budget)
        failed = failed or result.status != "valid"
        reports.append(result.to_dict())
    if args.format == "json":
        sys.stdout.write(
            render_json({"schema_version": SCHEMA_VERSION, "results": reports})
        )
    else:
        for rep in reports:
            sys.stdout.write(
                f"{rep['logic']}: {rep['status']}"
                f" (checked {rep['checked']} concepts"
                f"{', exhaustive' if rep['exhaustive'] else ''})\n"
            )
            if "overlap" in rep:
                sys.stdout.write(
                    f"  overlap between {rep['overlap'][0]} and {rep['overlap'][1]}"
                    f" on {rep['overlap'][2]}\n"
                )
            if "uncovered" in rep:
                sys.stdout.write(f"  uncovered objects: {rep['uncovered']}\n")
            if "witness" in rep:
                sys.stdout.write(f"  witness concept: {rep['witness']}\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_list_logics(args: argparse.Namespace) -> int:
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
                   help=f"synthetic universe sizes from 1 to {MAX_VERIFY_SIZE},"
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
                   help=f"synthetic universe size from 1 to {MAX_VALIDATE_SIZE}"
                   " when no input table is given")
    p.add_argument("--budget", type=int, default=None,
                   help="maximum concepts to check per knowledge base")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate_logic)

    p = sub.add_parser("list-logics", help="list the built-in logics")
    p.set_defaults(func=cmd_list_logics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # DataError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
