"""Decision-table ingest: a CSV file read into a `Table` in one pass.

Every command that takes `--input` reads its table here.  A `Table` holds
what the three commands need of the partition, all linear in the rows: a
block id per row, the block sizes, and one region flag per block.  Its
first three fields are a `partition.Partition`, the one format in which
`verify` and `validate-logic` take every knowledge base; that module, with
the engines' mask helpers, loads only with them, so `classify` compiles
the ingest alone.  The truth values are imported only where a method
needs them, so that `verify` never loads them.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from array import array
from operator import eq, itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .regions import BOUNDARY, NEGATIVE, POSITIVE

if TYPE_CHECKING:
    from pathlib import Path

    from .values import TruthValue

# The version of the `classify` JSON report (`verdicts` has that of the others).
SCHEMA_VERSION = 1

DEFAULT_POSITIVE = ("1", "yes", "true", "positive")
DEFAULT_NEGATIVE = ("0", "no", "false", "negative")
DEFAULT_UNKNOWN = ("?", "unknown", "")

# `load_table` decodes its input in pieces of at least this many bytes:
# while csv.reader reads a piece, `io.StringIO` holds it as 4-byte code points.
DECODE_PIECE = 1 << 13


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
            "attributes": "all" if self.attributes is None else list(self.attributes),
            "decision_column": "last" if self.decision_column is None else self.decision_column,
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
    keeps one 3-bit region flag (`regions.POSITIVE`, `NEGATIVE` and
    `BOUNDARY`) instead of a |U|-bit mask.  All of it is linear in the rows.
    """

    objects: list[str]  # the object id of each row
    block_ids: array  # array('I'): the block of each row
    block_sizes: list[int]  # rows per block
    flags: bytearray  # per block: the regions its rows' decisions meet

    def block_values(self) -> list[TruthValue]:
        """The seven value of each block, in block order, from its flag."""
        from .values import BY_FLAG

        return [BY_FLAG[flag] for flag in self.flags]


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


def _block_key(cells: list[str]) -> str:
    """One string for a list of cells, which two lists of one length share
    only where they are equal: one cell itself, or several joined at a NUL;
    where a cell holds a NUL, which would make the join ambiguous, the repr
    of the cells, which holds none."""
    key = "\0".join(cells)
    return key if len(cells) < 2 or key.count("\0") == len(cells) - 1 else repr(cells)


def _row_key(indices: list[int]) -> tuple[Callable, Callable]:
    """`pick` and `join`, functions in C such that `join(pick(row))` is the
    `_block_key` of the row's cells at `indices`, or where a cell holds a
    NUL, a string with more NULs than any `_block_key` of as many cells."""
    if len(indices) == 1:
        return itemgetter(indices[0]), str
    return itemgetter(*indices) if indices else itemgetter(slice(0)), "\0".join


def _numbered_rows(reader, path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows of a `csv.reader`, each with the line it starts on;
    `load_table` reads its rows again through this only to cite an error.

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


def _pathlib_str(path: str | Path) -> str:
    """`str(pathlib.PurePosixPath(path))`, without loading pathlib: the path
    with no empty or "." parts, two leading slashes kept but three or more
    made one, and "." for an empty path."""
    path = os.fspath(path)
    slashes = len(path) - len(path.lstrip("/"))
    root = "//" if slashes == 2 else "/" if slashes else ""
    return root + "/".join(p for p in path.split("/") if p not in ("", ".")) or "."


def read_bytes(path: str | Path) -> bytes:
    """The content of the file at `path`, read as `Path(path).read_bytes()`
    reads it: the file opened, and the name an OSError gives, is the path as
    pathlib spells it, so "./x.csv" fails as "x.csv" and "" as "."."""
    with open(_pathlib_str(path), "rb") as file:
        return file.read()


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


def _reader(pieces: Iterable[str]):
    """A `csv.reader` over the decoded pieces.  It takes \\r\\n and a lone
    \\r as line ends, as reading in text mode would, and keeps line breaks
    inside quoted cells; a UTF-8 BOM stays in the (unused) id column name."""
    return csv.reader(itertools.chain.from_iterable(
        io.StringIO(piece, newline="") for piece in pieces))


class _RowFault(Exception):
    """A fault of one row: its position among the non-blank rows (the
    header is row 0) and the message."""


def load_table(
    path: str | Path, config: TableConfig | None = None, data: bytes | None = None
) -> Table:
    """Read a CSV decision table into a `Table`, in one pass over its rows.

    The first column holds object ids; the decision column (default: last)
    maps to positive/negative/unknown through the configured token sets,
    which must be disjoint.  Each row adds its id and block id, and ORs its
    decision's bit into its block's flag; no list of rows and no line
    number is kept.  `data` is the file's content when the caller has read
    it already (to hash exactly the bytes parsed); otherwise the file at
    `path` is read.

    Empty and repeated ids are looked for after the pass, once its block
    dict is freed, among the ids read up to the first faulty row; so the
    error reported is still the first in file order, and within a row a
    cell count comes before an empty id, then a repeated id, then an
    unmapped token.  A DataError about a row cites the line on which the
    row starts, found by reading the rows again.  The content is decoded
    piece by piece, but a decode error anywhere in it is reported before
    any DataError, as when it was decoded whole.
    """
    config = config or TableConfig()
    flag_of = _token_flags(config)
    if data is None:
        data = read_bytes(path)
    pieces = _decoded_pieces(data)
    objects: list[str] = []
    try:
        try:
            table = _read_table(_reader(pieces), objects, path, config, flag_of)
            fault = None
        except _RowFault as exc:
            fault = exc.args
        except csv.Error as exc:  # the rows are read again up to it, and it recurs
            fault = (len(objects) + 1, str(exc))
        fault = _bad_id(objects) or fault
        if fault:
            row, message = fault
            rows = _numbered_rows(_reader(_decoded_pieces(data)), path)
            line, _ = next(itertools.islice(rows, row, None))
            raise DataError(f"{path}:{line}: {message}")
    except DataError:
        for _ in pieces:  # raises on the first undecodable byte left
            pass
        raise
    return table


def _bad_id(objects: list[str]) -> tuple[int, str] | None:
    """The row (the header is row 0) and error of the first empty or
    repeated object id, or None.  Whether there is one is read off a sorted
    copy of the ids, where an empty id comes first and a repeated one next
    to itself: a set of them would take four times the memory, and six
    times while it grows."""
    ids = sorted(objects)
    if ids[:1] != [""] and not any(map(eq, ids, itertools.islice(ids, 1, None))):
        return None
    del ids
    seen: set[str] = set()
    for row, oid in enumerate(objects, 1):
        if not oid:
            return row, "empty object id"
        if oid in seen:
            return row, f"duplicate object id {oid!r}"
        seen.add(oid)
    return None


def _read_table(reader, objects: list[str], path: str | Path,
                config: TableConfig, flag_of: dict[str, int]) -> Table:
    """The `Table` of `load_table`, from a `csv.reader` of its file.  The id
    of each row is appended to `objects` as it is read, and left unchecked;
    a faulty row is a `_RowFault`."""
    rows = filter(None, reader)  # the non-blank rows
    header_row = next(rows, None)
    first_row = next(rows, None)
    if first_row is None:
        raise DataError(f"{path}: expected a header row and at least one data row")
    header = [cell.strip() for cell in header_row]
    if len(header) < 2:
        raise DataError(f"{path}: need an id column and at least one more column")
    column: dict[str, int] = {}
    for i, name in enumerate(header):
        if column.setdefault(name, i) != i:
            raise DataError(f"{path}: duplicate column name {name!r}")
    decision = header[-1] if config.decision_column is None else config.decision_column
    if decision not in header[1:]:
        found = "is the object id column" if decision == header[0] else "not found"
        raise DataError(f"{path}: decision column {decision!r} {found}")
    condition_columns = [c for c in header[1:] if c != decision]
    attributes = tuple(condition_columns) if config.attributes is None else config.attributes
    role = {header[0]: "is the object id column", decision: "is the decision column"}
    for name in attributes:
        if name not in condition_columns:
            raise DataError(
                f"{path}: condition attribute {name!r} {role.get(name, 'not found')}")
    attribute_at = [column[a] for a in attributes]
    pick, join = _row_key(attribute_at)
    decision_at = column[decision]
    width = len(header)

    block_ids = array("I")
    block_sizes: list[int] = []
    flags = bytearray()
    # `block_of` maps the `_block_key` of each stripped vector to its block
    # and, as an alias, that of each vector as read (a cell read with outer
    # spaces never equals a stripped one); `flag_of_cell` maps each decision
    # cell as read.  So a row whose cells were seen before, and hold no NUL,
    # costs one lookup for each.
    block_of: dict[str, int] = {}
    flag_of_cell: dict[str, int] = {}
    for row in itertools.chain((first_row,), rows):
        if len(row) != width:
            raise _RowFault(len(objects) + 1, f"row has {len(row)} cells, header has {width}")
        objects.append(row[0].strip())
        cell = row[decision_at]
        flag = flag_of_cell.get(cell)
        if flag is None:
            flag = flag_of.get(cell.strip().lower())
            if flag is None:
                raise _RowFault(len(objects), f"decision token {cell.strip()!r} is not mapped")
            flag_of_cell[cell] = flag
        key = join(pick(row))
        b = block_of.get(key)
        if b is None:
            stripped = _block_key([row[i].strip() for i in attribute_at])
            b = block_of.setdefault(stripped, len(flags))
            if key != stripped:  # outer spaces or a NUL: alias the cells as read
                block_of[_block_key([row[i] for i in attribute_at])] = b
            if b == len(flags):
                flags.append(0)
                block_sizes.append(0)
        flags[b] |= flag
        block_sizes[b] += 1
        block_ids.append(b)
    return Table(objects, block_ids, block_sizes, flags)
