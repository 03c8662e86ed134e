"""Seeded inputs, command lines and descriptors of the benchmark workloads.

Every table is a pure function of (workload, seed): the same seed gives
byte-identical CSV bytes, another seed a different table.  Nothing here
imports pbzlogic; the program only ever receives the generated CSV.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

DECISIONS = ("1", "0", "?")  # positive, negative, unknown in the CLI defaults

Row = tuple[str, tuple[str, ...], str]  # object id, attribute vector, decision


@dataclass(frozen=True)
class Table:
    """A generated decision table: its rows and the exact CSV bytes."""

    rows: tuple[Row, ...]
    csv: bytes

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.csv).hexdigest()

    def block_sizes(self) -> list[int]:
        return list(Counter(vector for _, vector, _ in self.rows).values())

    def descriptors(self) -> dict:
        sizes = self.block_sizes()
        mix = Counter(decision for _, _, decision in self.rows)
        return {
            "rows": len(self.rows),
            "blocks": len(sizes),
            "block_size_max": max(sizes),
            "block_size_histogram": _histogram(sizes),
            "decision_mix": {d: mix.get(d, 0) for d in DECISIONS},
            "bytes": len(self.csv),
            "sha256": self.sha256,
        }


def _histogram(sizes: Sequence[int]) -> dict[str, int]:
    return {str(size): count for size, count in sorted(Counter(sizes).items())}


def _render(rows: Sequence[Row], attributes: int) -> bytes:
    header = ["id", *(f"a{k + 1}" for k in range(attributes)), "decision"]
    lines = [",".join(header)]
    lines.extend(",".join((oid, *vector, decision)) for oid, vector, decision in rows)
    return ("\n".join(lines) + "\n").encode("ascii")


def uniform_table(
    tag: str, seed: int, rows: int, attributes: int, values: int
) -> Table:
    """Rows with independent uniform attribute values and decisions."""
    rng = random.Random(f"{tag}/{seed}")
    out = tuple(
        (
            f"r{i}",
            tuple(f"v{rng.randrange(values)}" for _ in range(attributes)),
            rng.choice(DECISIONS),
        )
        for i in range(rows)
    )
    return Table(out, _render(out, attributes))


def shaped_table(tag: str, seed: int, block_sizes: Sequence[int]) -> Table:
    """Rows grouped into blocks of exactly the given sizes.

    The seed chooses the attribute vectors, the row order and the
    decisions; the partition shape stays fixed, so per-concept work does
    not drift with the seed.
    """
    rng = random.Random(f"{tag}/{seed}")
    attributes, values = 3, 4
    codes = rng.sample(range(values**attributes), len(block_sizes))
    vectors = [
        tuple(f"v{code // values**k % values}" for k in range(attributes))
        for code in codes
    ]
    members = [vector for vector, size in zip(vectors, block_sizes) for _ in range(size)]
    rng.shuffle(members)
    out = tuple(
        (f"r{i}", vector, rng.choice(DECISIONS)) for i, vector in enumerate(members)
    )
    return Table(out, _render(out, attributes))


# --- synthetic verify sweep --------------------------------------------------

VERIFY_SIZES = (1, 2, 3, 4)


def set_partition_shapes(size: int) -> list[list[int]]:
    """Block sizes of every set partition of `size` items (Bell(size) entries)."""

    def grow(items: int) -> list[list[int]]:
        if items == 0:
            return [[]]
        out = []
        for blocks in grow(items - 1):
            for i in range(len(blocks)):
                out.append(blocks[:i] + [blocks[i] + 1] + blocks[i + 1:])
            out.append(blocks + [1])
        return out

    return grow(size)


def sweep_descriptors(sizes: Sequence[int] = VERIFY_SIZES) -> dict:
    shapes = [shape for size in sizes for shape in set_partition_shapes(size)]
    all_blocks = [b for shape in shapes for b in shape]
    return {
        "kbs": len(shapes),
        "rows": sum(sum(shape) for shape in shapes),
        "blocks": len(all_blocks),
        "block_size_max": max(all_blocks),
        "block_size_histogram": _histogram(all_blocks),
        "bytes": 0,
    }


VERIFY_KBS = sweep_descriptors()["kbs"]  # 1 + 2 + 5 + 15 set partitions


# --- workload catalogue ------------------------------------------------------
#
# BENCHMARK.json gates classify-fine and verify-table, which between them
# reach every layer; classify-coarse, verify-default and validate-table run
# on request (--workload NAME, or all).  On a shared 2-vCPU VM the host's
# speed drifted by up to 20% within minutes, so a run's command times follow
# the host over the whole run.  verify-default is one 15-20 s command, so a
# run holds only three and their median reads one stretch of that drift;
# verify-table runs the same axiom checks one knowledge base at a time
# (about 1.5 s a command), so its median covers the whole run.


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "classify" | "verify" | "validate": selects the output checker
    why: str
    # Units of work one command completes, for work_per_s: knowledge bases
    # checked, or None for the rows of the table.
    work_units: int | None
    ceiling_s: float  # a command running longer than this is killed and failed
    make_table: Callable[[int], Table] | None
    args: tuple[str, ...]  # CLI arguments; "--input <csv>" is appended for tables

    def argv(self, csv_path: str | None) -> list[str]:
        if csv_path is None:
            return list(self.args)
        return [*self.args, "--input", csv_path]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "classify-fine",
            "classify",
            "4,096 rows in ~1.6k small blocks: the per-object classify loop "
            "rescans every block, so block-count work dominates",
            None,
            60.0,
            lambda seed: uniform_table("classify-fine", seed, 4096, 3, 12),
            ("classify", "--logic", "triage", "--format", "json"),
        ),
        Workload(
            "classify-coarse",
            "classify",
            "65,536 rows in 4 huge blocks: block scans are cheap, big-int bit "
            "tests, CSV ingest, JSON render and memory carry the cost",
            None,
            60.0,
            lambda seed: uniform_table("classify-coarse", seed, 65536, 1, 4),
            ("classify", "--logic", "triage", "--format", "json"),
        ),
        Workload(
            "verify-default",
            "verify",
            "23 knowledge bases of sizes 1-4: all time is axiom checking, "
            "mostly pure-Python ternary distributivity",
            VERIFY_KBS,
            90.0,
            None,
            ("verify", "--format", "json"),
        ),
        Workload(
            "verify-table",
            "verify",
            "one seeded 4-object knowledge base per command: ~90% is the "
            "pure-Python ternary distributivity loop over 81^3 triples",
            1,
            60.0,
            lambda seed: shaped_table("verify-table", seed, (2, 1, 1)),
            ("verify", "--format", "json"),
        ),
        Workload(
            "validate-table",
            "validate",
            "13-row table above the exhaustive limit: 100k sampled concepts, "
            "each a full evaluate_logic on a tiny universe",
            1,
            90.0,
            lambda seed: shaped_table("validate-table", seed, (4, 2, 2, 1, 1, 1, 1, 1)),
            ("validate-logic", "--logic", "triage", "--format", "json"),
        ),
    )
}
