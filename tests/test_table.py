"""`cli.Table` against the mask engine: block ids, sizes and flag-derived
values must be what `KnowledgeBase.from_attributes` and `block_values`
give, and a logic that is not a partition must fail on the same object."""

import csv
import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbzlogic import (
    KnowledgeBase,
    LogicSpec,
    Orthopair,
    Universe,
    ValueDef,
    all_knowledge_bases,
    all_orthopairs,
    block_values,
    default_universe,
    evaluate_logic,
)
from pbzlogic.cli import TableConfig, build_classification_report, load_table
from pbzlogic.logics import BASE_SYMBOLS, single_label

DECISION = {"positive": "1", "negative": "0", "unknown": "?"}


def _csv(rows) -> bytes:
    """A table `id,a1..ak,d` of (id, vector, decision) rows."""
    arity = len(rows[0][1])
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", *(f"a{k}" for k in range(arity)), "d"])
    writer.writerows([oid, *vector, decision] for oid, vector, decision in rows)
    return out.getvalue().encode("utf-8")


def _mask_engine(rows):
    """The knowledge base and concept of the rows, built by the mask layer."""
    vectors = {oid.strip(): tuple(v.strip() for v in vector) for oid, vector, _ in rows}
    u = Universe(tuple(vectors))
    kb = KnowledgeBase.from_attributes(u, vectors)
    pair = Orthopair.from_names(
        u,
        [oid.strip() for oid, _, d in rows if d == DECISION["positive"]],
        [oid.strip() for oid, _, d in rows if d == DECISION["negative"]],
    )
    return kb, pair


def _check_agreement(rows):
    table = load_table("t.csv", TableConfig(), _csv(rows))
    kb, pair = _mask_engine(rows)
    assert table.objects == list(kb.universe)
    assert tuple(table.block_ids) == kb.block_index
    assert table.block_sizes == [len(block) for block in kb.blocks]
    assert table.block_values() == block_values(kb, pair)
    assert list(table.firsts) == [kb.block_index.index(b) for b in range(len(kb.blocks))]
    assert table.knowledge_base() == kb
    return table, kb, pair


VALUES = st.sampled_from(["p", "q", " p ", "", "p\nq", "a,b"])


@st.composite
def tables(draw):
    """1-12 rows of 0-3 attributes; ids may carry spaces that strip() drops."""
    arity = draw(st.integers(0, 3))
    rows = []
    for i in range(draw(st.integers(1, 12))):
        oid = draw(st.sampled_from(["o{}", " o{}", "x{} "])).format(i)
        vector = tuple(draw(VALUES) for _ in range(arity))
        rows.append((oid, vector, draw(st.sampled_from(list(DECISION.values())))))
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=tables())
def test_table_agrees_with_the_mask_engine_on_random_tables(rows):
    _check_agreement(rows)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_table_agrees_with_the_mask_engine_on_every_partition(size):
    """Every set partition of the size, under every concept up to size 4 and
    under 30 seeded concepts above it."""
    u = default_universe(size)
    concepts = list(all_orthopairs(u))
    if size > 4:
        concepts = random.Random(size).sample(concepts, 30)
    for kb in all_knowledge_bases(u):
        for pair in concepts:
            rows = [
                (name, (f"b{kb.block_index[i]}",),
                 "1" if name in pair.positive else "0" if name in pair.negative else "?")
                for i, name in enumerate(u)
            ]
            table, seeded, _ = _check_agreement(rows)
            assert set(seeded.blocks) == set(kb.blocks)
            assert table.block_values() == [
                block_values(kb, pair)[kb.block_index[first]] for first in table.firsts
            ]


@st.composite
def specs(draw):
    """1-3 derived values, each an up, a down or an up-and-down set of symbols."""
    symbols = st.lists(st.sampled_from(BASE_SYMBOLS), min_size=1, max_size=3, unique=True)
    values = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["up", "down", "both"]))
        up = tuple(draw(symbols)) if kind != "down" else ()
        down = tuple(draw(symbols)) if kind != "up" else ()
        values.append(ValueDef(f"v{k}", up=up, down=down))
    return LogicSpec("random", tuple(values))


@settings(max_examples=300, deadline=None)
@given(rows=tables(), spec=specs())
def test_report_labels_and_errors_match_evaluate_logic(rows, spec):
    table = load_table("t.csv", TableConfig(), _csv(rows))
    kb, pair = _mask_engine(rows)
    assignment = evaluate_logic(kb, pair, spec)
    try:
        expected = [single_label(name, assignment.labels_of(name)) for name in kb.universe]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            build_classification_report(table, spec, "0" * 64, {})
        assert str(raised.value) == str(exc)
    else:
        report = build_classification_report(table, spec, "0" * 64, {})
        assert [entry["derived"] for entry in report["objects"]] == expected


def test_report_objects_read_as_a_list_of_entries(demo_csv):
    report = build_classification_report(load_table(demo_csv), None, "0" * 64, {})
    objects = report["objects"]
    entries = [
        {"id": "o1", "seven": "T", "derived": "T"},
        {"id": "o2", "seven": "T", "derived": "T"},
        {"id": "o3", "seven": "K", "derived": "K"},
        {"id": "o4", "seven": "K", "derived": "K"},
        {"id": "o5", "seven": "sF", "derived": "sF"},
        {"id": "o6", "seven": "sF", "derived": "sF"},
    ]
    assert len(objects) == 6 and list(objects) == entries
    assert objects == entries and not objects != entries and objects != entries[:5]
    assert objects[2] == entries[2] and objects[-1] == entries[-1]
    assert objects[1:3] == entries[1:3]
    assert repr(objects) == repr(entries)


# Measured with Python 3.11: a 5.7 MB peak for 16,384 rows in 16,384 blocks.
# A |U|-bit mask per block, as the mask layer builds them, takes 28 MB here.
PEAK_BOUND_MB = 12


def test_table_memory_is_linear_in_rows():
    rng = random.Random(0)
    rows = [(f"r{i}", (f"k{rng.randrange(1 << 30)}",), rng.choice("10?"))
            for i in range(1 << 14)]
    data = _csv(rows)
    tracemalloc.start()
    try:
        table = load_table("t.csv", TableConfig(), data)
        report = build_classification_report(table, None, "0" * 64, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.block_sizes) > 16_000 and len(report["objects"]) == 1 << 14
    assert peak < PEAK_BOUND_MB * 2**20, f"peak {peak / 2**20:.1f} MB"
