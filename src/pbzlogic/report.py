"""The classification report of `classify`: one pass over a table's blocks,
and the objects it lists, written a chunk at a time.

`cli.render_json` writes the report's JSON and asks its `ObjectRows` to
write the objects; `render_classification_text` writes the text form.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import TYPE_CHECKING, Iterator, TextIO

from _json import encode_basestring_ascii

from .values import BY_FLAG, TruthValue, single_label
from .table import SCHEMA_VERSION

if TYPE_CHECKING:
    from .values import LogicSpec
    from .table import Table

# The renderers write a report's objects this many at a time.
RENDER_CHUNK = 512


def build_classification_report(
    table: Table,
    spec: LogicSpec | None,
    input_sha256: str,
    config_echo: dict,
) -> dict:
    """Classify every object in one pass over the blocks.

    Each block's value comes from its flag, and a logic is its seven-entry
    `value_table`; the bare seven values are the identity table.  An
    object takes its block's value and label, so a value and a label are
    chosen once per flag, the counts are sums of block sizes, and
    `objects` is an `ObjectRows` over the table's arrays.  A logic that
    gives no label or several to a value that occurs is a ValueError
    naming the first object in row order that has no single label.
    """
    if spec is None:
        labels_of = {v: (v.symbol,) for v in TruthValue}
        derived_order = [v.symbol for v in TruthValue]
    else:
        labels_of = spec.value_table()
        derived_order = list(spec.labels())
    # Lists here are indexed by the 3-bit flag; 0 is the flag of no block.
    # Dicts are keyed by the int flags: a TruthValue hashes in Python code.
    rows_of = [0] * 8
    for flag, size in zip(table.flags, table.block_sizes):
        rows_of[flag] += size
    value_of = {flag: BY_FLAG[flag] for flag, rows in enumerate(rows_of) if rows}
    bad = [flag for flag, value in value_of.items() if len(labels_of[value]) != 1]
    if bad:  # blocks are numbered in order of their first rows
        block = min(map(table.flags.index, bad))
        single_label(table.objects[table.block_ids.index(block)],
                     labels_of[value_of[table.flags[block]]])

    seven, derived = [""] * 8, [""] * 8  # "" for a flag that no block has
    seven_counts = dict.fromkeys((v.symbol for v in TruthValue), 0)
    derived_counts = dict.fromkeys(derived_order, 0)
    for flag, value in value_of.items():
        (label,) = labels_of[value]
        seven[flag], derived[flag] = value.symbol, label
        seven_counts[value.symbol] += rows_of[flag]
        derived_counts[label] += rows_of[flag]

    return {
        "schema_version": SCHEMA_VERSION,
        "logic": spec.name if spec is not None else "seven",
        "provenance": {"input_sha256": input_sha256, "config": config_echo},
        "objects": ObjectRows(table.objects, table.block_ids, table.flags, seven, derived),
        "summary": {"seven": seven_counts, "derived": derived_counts},
    }


class ObjectRows(Sequence):
    """The `objects` of a classification report, read from the table: a
    read-only sequence, which `json.dumps(report, default=list)` encodes.

    Entry i is `{"derived": ..., "id": ..., "seven": ...}` for the object
    `ids[i]` of block `block_ids[i]`, whose value and label are those of
    the block's flag, `flags[block_ids[i]]`.  An entry is made when read,
    so that a report holds no dict per object; the renderers read the
    arrays themselves.
    """

    def __init__(self, ids: list[str], block_ids: array, flags: bytearray,
                 seven: list[str], derived: list[str]) -> None:
        self.ids = ids
        self.block_ids = block_ids
        self.flags = flags  # per block
        self.seven = seven  # per flag
        self.derived = derived  # per flag

    def _entry(self, oid: str, block: int) -> dict:
        flag = self.flags[block]
        return {"id": oid, "seven": self.seven[flag], "derived": self.derived[flag]}

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[dict]:
        return map(self._entry, self.ids, self.block_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._entry, self.ids[i], self.block_ids[i]))
        return self._entry(self.ids[i], self.block_ids[i])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, (list, ObjectRows)) and list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))

    def write_json(self, out: TextIO) -> None:
        """Write the entries as `json.dumps(report, indent=2, sort_keys=True)`
        lists them, with no brackets and no line break after the last.

        The two fragments around an id are encoded once per flag, and each
        object adds only its escaped id (the C `encode_basestring_ascii`,
        which `json.dumps` uses too) between those of its block's flag,
        written `RENDER_CHUNK` objects at a time.
        """
        escape = encode_basestring_ascii
        before = [f'    {{\n      "derived": {escape(label)},\n      "id": '
                  for label in self.derived]
        after = [f',\n      "seven": {escape(symbol)}\n    }}' for symbol in self.seven]
        ids, block_ids, flag_of = self.ids, self.block_ids, self.flags.__getitem__
        for i in range(0, len(ids), RENDER_CHUNK):
            j = i + RENDER_CHUNK
            out.write((",\n" if i else "") + ",\n".join([
                before[f] + oid + after[f]
                for oid, f in zip(map(escape, ids[i:j]), map(flag_of, block_ids[i:j]))
            ]))


def render_classification_text(report: dict, out: TextIO) -> None:
    """Write one line per object under a header, `RENDER_CHUNK` objects at
    a time, then the seven and derived counts."""
    rows = report["objects"]
    ids, block_ids, flag_of = rows.ids, rows.block_ids, rows.flags.__getitem__
    width = max(6, max(map(len, ids))) + 2
    suffix = [f"{seven:<7}{derived}\n" for seven, derived in zip(rows.seven, rows.derived)]
    out.write(f"logic: {report['logic']}\n{'object':<{width}}{'seven':<7}derived\n")
    for i in range(0, len(ids), RENDER_CHUNK):
        j = i + RENDER_CHUNK
        out.write("".join([
            oid.ljust(width) + suffix[f] for oid, f in zip(ids[i:j], map(flag_of, block_ids[i:j]))
        ]))
    for kind in ("seven", "derived"):
        counts = report["summary"][kind]
        out.write(f"{kind} counts: " + " ".join(f"{k}={v}" for k, v in counts.items()) + "\n")
