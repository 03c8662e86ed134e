"""Independent brute-force oracles over plain Python sets and lists.

Evaluates the quantifier definitions of the seven parts directly from the
partition blocks, with no shared code with the package's bit-mask path;
and reads a CSV decision table the plain way, for `table.load_table`.
"""

from __future__ import annotations

import csv
import io
import itertools
from array import array

from pbzlogic.table import DataError, Table, TableConfig

SYMBOLS = ("T", "sT", "U", "K", "fK", "sF", "F")


def oracle_parts(
    blocks: list[frozenset[str]], a: frozenset[str], b: frozenset[str]
) -> dict[str, frozenset[str]]:
    universe = frozenset().union(*blocks)
    bd = universe - a - b
    parts: dict[str, set[str]] = {s: set() for s in SYMBOLS}
    for block in blocks:
        conditions = {
            "T": block <= a,
            "sT": block <= universe - b and block & a and block & bd,
            "U": block <= bd,
            "K": block <= a | b and block & a and block & b,
            "fK": block & a and block & b and block & bd,
            "sF": block <= universe - a and block & b and block & bd,
            "F": block <= b,
        }
        matched = [s for s, cond in conditions.items() if cond]
        assert len(matched) == 1, f"block {set(block)} matched {matched}"
        parts[matched[0]] |= block
    return {s: frozenset(members) for s, members in parts.items()}


def oracle_lower(blocks: list[frozenset[str]], x: frozenset[str]) -> frozenset[str]:
    return frozenset().union(*(bl for bl in blocks if bl <= x)) if any(
        bl <= x for bl in blocks
    ) else frozenset()


def oracle_upper(blocks: list[frozenset[str]], x: frozenset[str]) -> frozenset[str]:
    return frozenset().union(*(bl for bl in blocks if bl & x)) if any(
        bl & x for bl in blocks
    ) else frozenset()


def oracle_table(path: str, config: TableConfig, data: bytes) -> Table:
    """The `Table` of a CSV decision table, read the plain way: the whole
    file decoded at once, each row numbered by `reader.line_num`, and each
    row checked in turn (cell count, empty id, repeated id, decision token)
    against the ids before it.  The token sets must be disjoint."""
    text = data.decode("utf-8")
    reader = csv.reader(io.StringIO(text, newline=""))
    flag_of = {}
    for flag, tokens in ((1, config.positive_tokens), (2, config.negative_tokens),
                         (4, config.unknown_tokens)):
        flag_of.update((token.lower(), flag) for token in tokens)

    def numbered():
        start = 1
        try:
            for row in reader:
                if row:
                    yield start, row
                start = reader.line_num + 1
        except csv.Error as exc:
            raise DataError(f"{path}:{start}: {exc}") from None

    rows = numbered()
    header = next(rows, None)
    first = next(rows, None)
    if first is None:
        raise DataError(f"{path}: expected a header row and at least one data row")
    names = [cell.strip() for cell in header[1]]
    if len(names) < 2:
        raise DataError(f"{path}: need an id column and at least one more column")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DataError(f"{path}: duplicate column name {name!r}")
    decision = config.decision_column
    if decision is None:
        decision = names[-1]
    if decision == names[0]:
        raise DataError(f"{path}: decision column {decision!r} is the object id column")
    if decision not in names:
        raise DataError(f"{path}: decision column {decision!r} not found")
    attributes = config.attributes
    if attributes is None:
        attributes = [name for name in names[1:] if name != decision]
    for name in attributes:
        if name == names[0]:
            raise DataError(f"{path}: condition attribute {name!r} is the object id column")
        if name == decision:
            raise DataError(f"{path}: condition attribute {name!r} is the decision column")
        if name not in names:
            raise DataError(f"{path}: condition attribute {name!r} not found")

    objects, read, block_of = [], [], {}
    for line, row in itertools.chain([first], rows):
        if len(row) != len(names):
            raise DataError(f"{path}:{line}: row has {len(row)} cells, header has {len(names)}")
        oid = row[0].strip()
        if not oid:
            raise DataError(f"{path}:{line}: empty object id")
        if oid in objects:
            raise DataError(f"{path}:{line}: duplicate object id {oid!r}")
        token = row[names.index(decision)].strip()
        if token.lower() not in flag_of:
            raise DataError(f"{path}:{line}: decision token {token!r} is not mapped")
        vector = tuple(row[names.index(name)].strip() for name in attributes)
        block_of.setdefault(vector, len(block_of))
        objects.append(oid)
        read.append((block_of[vector], flag_of[token.lower()]))
    sizes = [0] * len(block_of)
    flags = bytearray(len(block_of))
    for b, flag in read:
        sizes[b] += 1
        flags[b] |= flag
    return Table(objects, array("I", [b for b, _ in read]), sizes, flags)
