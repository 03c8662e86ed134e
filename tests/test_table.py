"""`table.Table` against the mask engine: block ids, sizes and flag-derived
values must be what `KnowledgeBase.from_attributes` and `block_values`
give, and a logic that is not a partition must fail on the same object."""

import csv
import io
import random
import tracemalloc
from pathlib import PurePosixPath

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
from pbzlogic import table as table_module
from pbzlogic.cli import (
    DataError,
    TableConfig,
    build_classification_report,
    load_table,
    render_json,
)
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
    assert kb.partition() == (tuple(table.objects), tuple(table.block_ids), table.block_sizes)
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


def _uniform_csv(rows: int, attributes: int, values: int) -> bytes:
    """`rows` rows of uniform random attribute values and decisions."""
    rng = random.Random(0)
    header = ",".join(["id", *(f"a{k}" for k in range(attributes)), "d"])
    lines = [header] + [
        ",".join([f"r{i}", *(f"v{rng.randrange(values)}" for _ in range(attributes)),
                  rng.choice("10?")])
        for i in range(rows)
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


# 65,536 rows in 12^3 = 1,728 blocks.  Measured with Python 3.11: rendering
# its 5.4 MB of JSON peaks at 0.24 MB, and `load_table` at 7.2 MB; as one
# string the JSON peaked at 14.5 MB, and decoding the input whole at 12 MB.
UNIFORM = (1 << 16, 3, 12)
RENDER_PEAK_BOUND_MB = 1
LOAD_PEAK_BOUND_MB = 9


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_rendering_json_holds_no_report_string():
    table = load_table("t.csv", TableConfig(), _uniform_csv(*UNIFORM))
    report = build_classification_report(table, None, "0" * 64, {})
    assert len(table.block_sizes) == 12**3
    _, peak = _traced_peak(render_json, report, _Discard())
    assert peak < RENDER_PEAK_BOUND_MB * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_load_table_decodes_no_whole_file_copy():
    data = _uniform_csv(*UNIFORM)
    table, peak = _traced_peak(load_table, "t.csv", TableConfig(), data)
    assert len(table.objects) == 1 << 16 and len(table.block_sizes) == 12**3
    assert peak < LOAD_PEAK_BOUND_MB * 2**20, f"peak {peak / 2**20:.1f} MB"


def _loaded(data: bytes, piece: int):
    """`load_table` of `data` decoded in pieces of at least `piece` bytes:
    the Table, or the type and text of the error."""
    saved, table_module.DECODE_PIECE = table_module.DECODE_PIECE, piece
    try:
        return load_table("t.csv", TableConfig(), data)
    except (DataError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    finally:
        table_module.DECODE_PIECE = saved


CELLS = st.sampled_from(["p", "q", "p\r\nq", "p\rq", "p\nq", "\r", "\n", "é", "✓",
                         "\U0001f600", "\x1c", "\x85", "\u2028", '"', ",", " p "])


@st.composite
def raw_tables(draw) -> bytes:
    """A table with quoted cells holding line breaks, any of the three line
    ends, maybe a BOM, and maybe a duplicate id, a ragged row or an
    unmapped token."""
    rows = [["id", "a", "d"]]
    for i in range(draw(st.integers(0, 8))):
        rows.append([draw(st.sampled_from(["o{}", "o0", ""])).format(i), draw(CELLS),
                     draw(st.sampled_from(["1", "0", "?", "maybe"]))])
        if draw(st.integers(0, 9)) == 0:
            rows[-1].pop()
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows(rows)
    return (draw(st.sampled_from(["", "\ufeff"])) + out.getvalue()).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=raw_tables(), piece=st.integers(1, 7))
def test_small_decode_pieces_parse_as_one_piece(data, piece):
    assert _loaded(data, piece) == _loaded(data, len(data) + 1)


@pytest.mark.parametrize("piece", [1, 7, 1 << 16])
def test_a_decode_error_counts_from_the_start_of_the_file(piece):
    data = _uniform_csv(10_000, 1, 4)
    assert len(data) > 70_000
    with pytest.raises(UnicodeDecodeError) as whole:
        (data[:70_000] + b"\xff" + data[70_000:]).decode("utf-8")
    assert str(whole.value) == (
        "'utf-8' codec can't decode byte 0xff in position 70000: invalid start byte"
    )
    bad = data[:70_000] + b"\xff" + data[70_000:]
    assert _loaded(bad, piece) == (UnicodeDecodeError, str(whole.value))
    # a data error before the bad byte does not hide it
    bad = bad.replace(b"\nr5,", b"\nr4,", 1)
    good_part = bad[:bad.rindex(b"\n", 0, 70_000) + 1]
    assert _loaded(good_part, piece) == (DataError, "t.csv:7: duplicate object id 'r4'")
    assert _loaded(bad, piece) == (UnicodeDecodeError, str(whole.value))


@pytest.mark.parametrize("piece", [1, 1 << 16])
def test_unicode_line_separators_stay_inside_a_cell(piece):
    """csv.reader breaks lines only at \\r and \\n, not where `str.splitlines`
    does."""
    data = "id,a,d\nx,p\x1cq,1\ny,p\x85q,0\nz,p\u2028q,?\n".encode("utf-8")
    table = _loaded(data, piece)
    assert table.objects == ["x", "y", "z"] and table.block_sizes == [1, 1, 1]


@given(st.text(alphabet="/.a", max_size=8))
def test_read_bytes_opens_the_path_pathlib_opens(path):
    assert table_module._pathlib_str(path) == str(PurePosixPath(path))
