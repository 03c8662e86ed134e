"""Command-line front end: decision-table ingestion and reports.

Subcommands:

* ``classify``       seven-valued (plus derived-logic) classification of a CSV
                     decision table
* ``verify``         run the axiom suite against a table or synthetic sweeps
* ``validate-logic`` check a logic spec for disjointness and coverage
* ``list-logics``    show the built-in logics

Exit status: 0 on success, 1 on data and usage errors and on a closed
stdout, 2 when an axiom or logic check fails or stays undecided.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from array import array
from collections import Counter
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, NoReturn, TextIO

from .sevenvalued import BOUNDARY, BY_FLAG, NEGATIVE, POSITIVE, TruthValue

if TYPE_CHECKING:  # each command imports the modules it uses
    from .logics import LogicSpec, LogicValidation
    from .universe import KnowledgeBase, Universe

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CHECK_FAILED = 2

DEFAULT_POSITIVE = ("1", "yes", "true", "positive")
DEFAULT_NEGATIVE = ("0", "no", "false", "negative")
DEFAULT_UNKNOWN = ("?", "unknown", "")


# `load_table` decodes its input in pieces of at least this many bytes, and
# the renderers write a report's objects this many at a time.
DECODE_PIECE = 1 << 16
RENDER_CHUNK = 512

# Synthetic sweeps check one knowledge base per set partition of the
# universe: Bell(8) = 4,140 of them.
MAX_SYNTHETIC_SIZE = 8


class DataError(ValueError):
    """Unusable input data; reported with file location where possible."""


class TableConfig(NamedTuple):
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


class Table(NamedTuple):
    """A decision table reduced to what its seven-valued classification needs.

    Rows are objects, in file order.  Rows with equal condition attributes
    share a block, and blocks are numbered in order of their first row.  A
    block's seven value depends only on which of the positive region, the
    negative region and the boundary its rows' decisions meet, so each block
    keeps one 3-bit region flag (`sevenvalued.POSITIVE`, `NEGATIVE` and
    `BOUNDARY`) instead of a |U|-bit mask.  All of it is linear in the rows.
    """

    objects: list[str]  # the object id of each row
    block_ids: array  # array('I'): the block of each row
    block_sizes: list[int]  # rows per block
    flags: bytearray  # per block: the regions its rows' decisions meet
    firsts: array  # array('I'): the first row of each block

    def block_values(self) -> list[TruthValue]:
        """The seven value of each block, in block order, from its flag."""
        return [BY_FLAG[flag] for flag in self.flags]

    def knowledge_base(self) -> KnowledgeBase:
        """The table's partition in the mask layer, for `verify` and
        `validate-logic`: |U|-bit block masks, as `from_attributes` builds."""
        from .universe import KnowledgeBase, Universe

        return KnowledgeBase.from_block_ids(Universe(tuple(self.objects)), self.block_ids)


def _token_flags(config: TableConfig) -> dict[str, int]:
    """The flag bit of each lowercased decision token; a token in two of
    the three sets is a DataError."""
    flag_of: dict[str, int] = {}
    kind = {POSITIVE: "positive", NEGATIVE: "negative", BOUNDARY: "unknown"}
    for flag, tokens in (
        (POSITIVE, config.positive_tokens),
        (NEGATIVE, config.negative_tokens),
        (BOUNDARY, config.unknown_tokens),
    ):
        for token in sorted({t.lower() for t in tokens}):
            if token in flag_of:
                raise DataError(
                    f"decision token {token!r} is in both the {kind[flag_of[token]]}"
                    f" and the {kind[flag]} tokens"
                )
            flag_of[token] = flag
    return flag_of


def _picker(indices: list[int]) -> Callable[[list[str]], tuple[str, ...]]:
    """A function from a row to the tuple of its cells at `indices`."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices) if indices else lambda row: ()


def _numbered_rows(reader, path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows of a `csv.reader`, each with the line it starts on.

    A row ends on the reader's `line_num`, so the next one starts on the
    line after; blank lines and line breaks inside quoted cells count.  A
    row the reader rejects, such as one with a cell over the csv module's
    field size limit, is a DataError citing the line on which it starts.
    """
    start = 1
    try:
        for row in reader:
            if row:
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}:{start}: {exc}") from exc


def sha256_hex(data: bytes) -> str:
    """The SHA-256 of `data` in hex, from the interpreter's own SHA-256
    module: `hashlib` would map OpenSSL's libcrypto for this one digest."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _decoded_pieces(data: bytes) -> Iterator[str]:
    """`data` decoded as UTF-8 in pieces of at least `DECODE_PIECE` bytes,
    each ending just after a b"\\n" (or at the end), so that no piece splits
    a line, a \\r\\n or a UTF-8 sequence and no copy of the whole text is
    made.  A UnicodeDecodeError counts its position from the start of
    `data`, as decoding the whole of it would."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + DECODE_PIECE - 1) + 1 or len(data)
        try:
            piece = data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError(
                exc.encoding, data, start + exc.start, start + exc.end, exc.reason
            ) from None
        yield piece
        start = end


def load_table(
    path: str | Path, config: TableConfig | None = None, data: bytes | None = None
) -> Table:
    """Read a CSV decision table into a `Table`, in one pass over its rows.

    The first column holds object ids; the decision column (default: last)
    maps to positive/negative/unknown through the configured token sets,
    which must be disjoint.  Each row adds its id and block id, and ORs its
    decision's bit into its block's flag; no list of rows is kept.  `data`
    is the file's content when the caller has read it already (to hash
    exactly the bytes parsed); otherwise the file at `path` is read.  A
    DataError about a row cites the line on which the row starts.  The
    content is decoded piece by piece, but a decode error anywhere in it
    is reported before any DataError, as when it was decoded whole.
    """
    config = config or TableConfig()
    flag_of = _token_flags(config)
    if data is None:
        data = Path(path).read_bytes()
    pieces = _decoded_pieces(data)
    # csv.reader takes \r\n and a lone \r as line ends, as reading in text
    # mode would, and keeps line breaks inside quoted fields; a UTF-8 BOM
    # stays in the (unused) id column name.
    reader = csv.reader(itertools.chain.from_iterable(
        io.StringIO(piece, newline="") for piece in pieces))
    try:
        return _read_table(_numbered_rows(reader, path), path, config, flag_of)
    except DataError:
        for _ in pieces:  # raises on the first undecodable byte left
            pass
        raise


def _read_table(rows: Iterator[tuple[int, list[str]]], path: str | Path,
                config: TableConfig, flag_of: dict[str, int]) -> Table:
    """The `Table` of `load_table`, from the numbered rows of its file."""
    header_row = next(rows, None)
    first_row = next(rows, None)
    if first_row is None:
        raise DataError(f"{path}: expected a header row and at least one data row")
    header = [cell.strip() for cell in header_row[1]]
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
    width = len(header)

    pick = _picker(attribute_at)
    objects: list[str] = []
    seen: set[str] = set()
    block_ids = array("I")
    flags = bytearray()
    firsts = array("I")
    # `block_of` maps each stripped vector to its block and, as an alias,
    # each vector as read (a cell read with outer spaces never equals a
    # stripped one); `flag_of_cell` maps each decision cell as read.  So a
    # row whose cells were seen before costs one lookup for each.
    block_of: dict[tuple[str, ...], int] = {}
    flag_of_cell: dict[str, int] = {}
    for lineno, row in itertools.chain((first_row,), rows):
        if len(row) != width:
            raise DataError(
                f"{path}:{lineno}: row has {len(row)} cells, header has {width}"
            )
        oid = row[0].strip()
        if not oid:
            raise DataError(f"{path}:{lineno}: empty object id")
        if oid in seen:
            raise DataError(f"{path}:{lineno}: duplicate object id {oid!r}")
        seen.add(oid)
        cell = row[decision_at]
        flag = flag_of_cell.get(cell)
        if flag is None:
            flag = flag_of.get(cell.strip().lower())
            if flag is None:
                raise DataError(
                    f"{path}:{lineno}: decision token {cell.strip()!r} is not mapped"
                )
            flag_of_cell[cell] = flag
        vector = pick(row)
        b = block_of.get(vector)
        if b is None:
            b = block_of.setdefault(tuple([c.strip() for c in vector]), len(flags))
            block_of[vector] = b
            if b == len(flags):
                flags.append(0)
                firsts.append(len(objects))
        flags[b] |= flag
        objects.append(oid)
        block_ids.append(b)
    rows_in = Counter(block_ids)
    block_sizes = [rows_in[b] for b in range(len(flags))]
    return Table(objects, block_ids, block_sizes, flags, firsts)


def all_knowledge_bases(universe: Universe) -> Iterator[KnowledgeBase]:
    """`sweep.all_knowledge_bases`, imported on first call so that
    `classify` never loads the sweep; the synthetic runs look it up here."""
    from .sweep import all_knowledge_bases

    return all_knowledge_bases(universe)


def validate_logic(kb: KnowledgeBase, spec: LogicSpec, budget: int | None) -> LogicValidation:
    """`logics.validate_logic`, imported on first call so that `verify`
    never loads the logics; the traced runs look it up here."""
    from .logics import validate_logic

    return validate_logic(kb, spec, budget=budget)


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
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise DataError(f"{path}: bad logic spec: {exc}") from exc


def build_classification_report(
    table: Table,
    spec: LogicSpec | None,
    input_sha256: str,
    config_echo: dict,
) -> dict:
    """Classify every object in one pass over the blocks.

    Each block's value comes from its flag, and a logic is its seven-entry
    `value_table`; the bare seven values are the identity table.  An
    object takes its block's value and label, so the counts are block
    sizes and `objects` is an `ObjectRows` over the table's arrays.  A
    logic that gives a value other than one label is a ValueError naming
    the first object in row order that has no single label.
    """
    from .logics import single_label

    if spec is None:
        labels_of = {v: (v.symbol,) for v in TruthValue}
        derived_order = [v.symbol for v in TruthValue]
    else:
        labels_of = spec.value_table()
        derived_order = list(spec.labels())
    # A flag's label is checked on its first block, in block order, which
    # is the order of the blocks' first rows.  Dicts here are keyed by the
    # int flags: a TruthValue hashes in Python code.
    label_of: dict[int, str] = {}
    rows_of = [0] * 8
    for first, flag, size in zip(table.firsts, table.flags, table.block_sizes):
        if flag not in label_of:
            labels = labels_of[BY_FLAG[flag]]
            label_of[flag] = single_label(table.objects[first], labels)
        rows_of[flag] += size
    symbol_of = {flag: BY_FLAG[flag].symbol for flag in label_of}

    seven_counts = dict.fromkeys((v.symbol for v in TruthValue), 0)
    derived_counts = dict.fromkeys(derived_order, 0)
    for flag, label in label_of.items():
        seven_counts[symbol_of[flag]] += rows_of[flag]
        derived_counts[label] += rows_of[flag]
    seven_of = [symbol_of[flag] for flag in table.flags]
    derived_of = [label_of[flag] for flag in table.flags]

    return {
        "schema_version": SCHEMA_VERSION,
        "logic": spec.name if spec is not None else "seven",
        "provenance": {"input_sha256": input_sha256, "config": config_echo},
        "objects": ObjectRows(table.objects, table.block_ids, seven_of, derived_of),
        "summary": {"seven": seven_counts, "derived": derived_counts},
    }


class ObjectRows(list):
    """The `objects` of a classification report, read from the table.

    Entry i is `{"derived": ..., "id": ..., "seven": ...}` for the object
    `ids[i]` of block `block_ids[i]`, made when read, so that a report
    holds no dict per object; the renderers read the arrays themselves.
    It is a list subclass only so that `json.dumps` encodes it (both of
    its encoders iterate a list subclass): the list's own storage stays
    empty, so this is a read-only sequence, and list methods not defined
    here see an empty list.
    """

    def __init__(self, ids: list[str], block_ids: array,
                 seven: list[str], derived: list[str]) -> None:
        super().__init__()
        self.ids = ids
        self.block_ids = block_ids
        self.seven = seven  # per block
        self.derived = derived  # per block

    def _entry(self, oid: str, block: int) -> dict:
        return {"id": oid, "seven": self.seven[block], "derived": self.derived[block]}

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[dict]:
        return map(self._entry, self.ids, self.block_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._entry, self.ids[i], self.block_ids[i]))
        return self._entry(self.ids[i], self.block_ids[i])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, list) and list(self) == list(other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __repr__(self) -> str:
        return repr(list(self))


def render_json(report: dict, out: TextIO) -> None:
    """Write `json.dumps(report, indent=2, sort_keys=True)` and a newline.

    With indentation `json.dumps` runs the pure-Python encoder, so the
    `objects` of a classification report (an `ObjectRows`) is rendered
    apart: each distinct (derived, seven) pair is encoded once, and each
    object adds only its escaped id (the C `encode_basestring_ascii`, which
    `json.dumps` uses too) between its block's two fragments, written
    `RENDER_CHUNK` objects at a time.  The objects go where the rest of
    the report, rendered with an empty list, holds `"objects": []`; no
    string value can hold that line, since `json.dumps` escapes line
    breaks in strings.
    """
    rows = report.get("objects")
    if not isinstance(rows, ObjectRows) or not rows:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    rest = json.dumps({**report, "objects": []}, indent=2, sort_keys=True)
    head, tail = rest.split('\n  "objects": []')
    escape = encode_basestring_ascii
    pairs = list(zip(rows.derived, rows.seven))  # per block
    fragments = {
        (derived, seven): (
            f'    {{\n      "derived": {escape(derived)},\n      "id": ',
            f',\n      "seven": {escape(seven)}\n    }}',
        )
        for derived, seven in set(pairs)
    }
    before, after = zip(*map(fragments.get, pairs))
    out.write(f'{head}\n  "objects": [\n')
    ids, block_ids = rows.ids, rows.block_ids
    for i in range(0, len(ids), RENDER_CHUNK):
        j = i + RENDER_CHUNK
        out.write((",\n" if i else "") + ",\n".join([
            before[b] + oid + after[b] for oid, b in zip(map(escape, ids[i:j]), block_ids[i:j])
        ]))
    out.write(f'\n  ]{tail}\n')


def render_classification_text(report: dict, out: TextIO) -> None:
    """Write one line per object under a header, `RENDER_CHUNK` objects at
    a time, then the seven and derived counts."""
    rows = report["objects"]
    ids, block_ids = rows.ids, rows.block_ids
    width = max(6, max(map(len, ids))) + 2
    suffix = [f"{seven:<7}{derived}\n" for seven, derived in zip(rows.seven, rows.derived)]
    out.write(f"logic: {report['logic']}\n{'object':<{width}}{'seven':<7}derived\n")
    for i in range(0, len(ids), RENDER_CHUNK):
        j = i + RENDER_CHUNK
        out.write("".join([
            oid.ljust(width) + suffix[b] for oid, b in zip(ids[i:j], block_ids[i:j])
        ]))
    for kind in ("seven", "derived"):
        counts = report["summary"][kind]
        out.write(f"{kind} counts: " + " ".join(f"{k}={v}" for k, v in counts.items()) + "\n")


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
    render = render_json if args.format == "json" else render_classification_text
    render(report, sys.stdout)
    return EXIT_OK


def _render_exact_counts(render: Callable[[dict, TextIO], None], report: dict) -> None:
    """`render(report, sys.stdout)` for reports whose counts may exceed
    Python's default 4,300-digit limit on int-to-str conversion: an exact
    verdict covers 3^|U| concepts of a logic, or 3^(|U| * arity) tuples of
    an axiom."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        render(report, sys.stdout)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import axioms  # here, so that the other commands never load the engine

    budget = axioms.DEFAULT_BUDGET if args.budget is None else args.budget
    runs: Iterable[tuple[str, KnowledgeBase]]
    if args.input:
        kb = load_table(args.input, _table_config(args)).knowledge_base()
        runs = [(f"table {args.input}", kb)]
    else:
        from .sweep import default_universe

        sizes = [
            _parse_size(s, "--sizes", MAX_SYNTHETIC_SIZE)
            for s in (args.sizes or "1,2,3,4").split(",")
        ]
        runs = (  # one knowledge base at a time
            (f"size {size} partition {i}", kb)
            for size in sizes
            for i, kb in enumerate(all_knowledge_bases(default_universe(size)))
        )

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
        _render_exact_counts(render_json, {"schema_version": SCHEMA_VERSION, "runs": results})
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
    kbs: Iterable[KnowledgeBase]
    if args.input:
        kbs = [load_table(args.input, _table_config(args)).knowledge_base()]
    else:
        from .sweep import default_universe

        size = _parse_size(str(args.size), "--size", MAX_SYNTHETIC_SIZE)
        kbs = all_knowledge_bases(default_universe(size))  # one at a time
    failed = False
    reports = []
    for kb in kbs:
        result = validate_logic(kb, spec, budget=args.budget)
        failed = failed or result.status != "valid"
        reports.append(result.to_dict())
    render = render_json if args.format == "json" else render_validation_text
    _render_exact_counts(render, {"schema_version": SCHEMA_VERSION, "results": reports})
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def render_validation_text(report: dict, out: TextIO) -> None:
    """One verdict line per knowledge base, then the failure and witness of
    an invalid one.  A valid verdict counts the concepts it covers, any
    other the cases evaluated."""
    lines = []
    for rep in report["results"]:
        unit = "concepts" if rep["status"] == "valid" else "cases"
        lines.append(
            f"{rep['logic']}: {rep['status']}"
            f" (checked {rep['checked']} {unit}"
            f"{', exhaustive' if rep['exhaustive'] else ''})"
        )
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
