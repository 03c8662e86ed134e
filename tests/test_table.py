"""`table.Table` against the mask engine: block ids, sizes and flag-derived
values must be what `KnowledgeBase.from_attributes` and `block_values`
give, and a logic that is not a partition must fail on the same object."""

import csv
import io
import random
import tracemalloc
from pathlib import PurePosixPath

import pytest
from hypothesis import example, given, settings
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
from pbzlogic.report import render_classification_text
from pbzlogic.sweep import all_partitions

from .oracle import oracle_table

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
                block_values(kb, pair)[kb.block_index[table.block_ids.index(b)]]
                for b in range(len(table.block_sizes))
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


def test_report_objects_answer_sequence_methods_as_their_list(demo_csv):
    reports = [build_classification_report(load_table(demo_csv), None, "0" * 64, {})
               for _ in range(2)]
    objects = reports[0]["objects"]
    entries = list(objects)
    assert reports[0] == reports[1]
    for entry in (objects[2], {"id": "o9", "seven": "T", "derived": "T"}):
        assert (entry in objects) == (entry in entries)
        assert objects.count(entry) == entries.count(entry)
    assert objects.index(objects[2]) == entries.index(objects[2]) == 2
    assert list(reversed(objects)) == entries[::-1]


def test_a_lift_matches_a_per_object_reference():
    # On every block of every set partition of 1 to 5 objects, the lift of
    # a type list equals masks built one object at a time from each
    # object's state: the block's first objects take the types, the rest
    # the first type, and every other object is negative.
    rng = random.Random(0)
    for size in range(1, 6):
        for partition in all_partitions(size):
            for block in range(len(partition.block_sizes)):
                rows = partition.rows(block)
                for _ in range(6):
                    arity = rng.randint(1, 3)
                    types = [tuple(rng.randrange(4) for _ in range(arity))
                             for _ in range(rng.randint(1, len(rows)))]
                    state_of = dict(zip(rows, types + types[:1] * len(rows)))
                    expected = tuple(
                        (sum(1 << i for i, s in state_of.items() if s[var] & 1),
                         sum(1 << i for i in range(size)
                             if i not in state_of or state_of[i][var] & 2))
                        for var in range(arity))
                    assert partition.lift(rows, types) == expected, (partition, types)


# Measured with Python 3.11: a 3.0 MB peak for 16,384 rows in 16,384 blocks,
# against 5.4 MB when the ingest kept a tuple key per block and a set of the
# ids beside its block dict.  A |U|-bit mask per block, as the mask layer
# builds them, takes 28 MB here.
PEAK_BOUND_MB = 4


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
# its 5.4 MB of JSON peaks at 0.11 MB (0.24 MB with a fragment per block),
# the text at 0.05 MB, and `load_table` at 4.8 MB; as one string the JSON
# peaked at 14.5 MB, decoding the input whole at 12 MB, and with a set of
# the ids the ingest peaked at 7.0 MB.
UNIFORM = (1 << 16, 3, 12)
# 65,536 rows in as many one-row blocks.  Measured with Python 3.11: the
# JSON render peaks at 0.10 MB and the text at 0.05 MB, where a label, a
# fragment pair and a text suffix per block took them to 8.95 and 4.21 MB.
KEYED_ROWS = 1 << 16
RENDER_PEAK_BOUND_MB = 1
LOAD_PEAK_BOUND_MB = 6


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
    """Both renderers, on few large blocks and on one block per row."""
    rng = random.Random(0)
    keyed = _csv([(f"r{i}", (f"k{i}",), rng.choice("10?")) for i in range(KEYED_ROWS)])
    for data, blocks in ((_uniform_csv(*UNIFORM), 12**3), (keyed, KEYED_ROWS)):
        table = load_table("t.csv", TableConfig(), data)
        report = build_classification_report(table, None, "0" * 64, {})
        assert len(table.block_sizes) == blocks
        for render in (render_json, render_classification_text):
            _, peak = _traced_peak(render, report, _Discard())
            assert peak < RENDER_PEAK_BOUND_MB * 2**20, (
                f"{render.__name__}, {blocks} blocks: peak {peak / 2**20:.2f} MB")


def test_load_table_decodes_no_whole_file_copy():
    data = _uniform_csv(*UNIFORM)
    table, peak = _traced_peak(load_table, "t.csv", TableConfig(), data)
    assert len(table.objects) == 1 << 16 and len(table.block_sizes) == 12**3
    assert peak < LOAD_PEAK_BOUND_MB * 2**20, f"peak {peak / 2**20:.1f} MB"


def _read_by(read, data: bytes, config: TableConfig):
    """The Table that `read` makes of `data`, or the type and text of its error."""
    try:
        return read("t.csv", config, data)
    except (DataError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def _loaded(data: bytes, piece: int):
    """`load_table` of `data` decoded in pieces of at least `piece` bytes:
    the Table, or the type and text of the error."""
    saved, table_module.DECODE_PIECE = table_module.DECODE_PIECE, piece
    try:
        return _read_by(load_table, data, TableConfig())
    finally:
        table_module.DECODE_PIECE = saved


# Cells with line breaks, non-ASCII and outer spaces, and short cells of
# "p", NUL and the unit separator, which a join of several cells into one
# key must not confuse: ("p\0", "") and ("p", "\0") join at a NUL to the
# same string, as ("p\x1fp", "p") and ("p", "p\x1fp") do at a \x1f (which
# str.strip takes for a space, so only a separator inside a cell counts).
CELLS = st.one_of(
    st.sampled_from(["p", "q", "p\r\nq", "p\rq", "p\nq", "\r", "\n", "é", "✓", "\U0001f600",
                     "\x1c", "\x85", "\u2028", '"', ",", " p ", "p ", ""]),
    st.text(alphabet="p\0\x1f", max_size=3),
)
# mostly good ids and tokens, so that most tables have rows enough to
# share blocks
IDS = st.sampled_from(["o{}", "o{}", "o{}", " o{} ", "o0", ""])
TOKENS = st.sampled_from(["1", "0", "?", "1", "0", "?", " 1 ", "maybe"])
FAULTS = ("ragged", "empty", "duplicate", "unmapped", "wide")
WIDE_CELL = "x" * (csv.field_size_limit() + 1)


def _fault(row: list[str], fault: str) -> None:
    """Make the data row faulty: a cell too many, an empty or repeated id,
    an unmapped token, or a cell over the csv module's field size limit."""
    if fault == "ragged":
        row.append("p")
    elif fault == "empty":
        row[0] = ""
    elif fault == "duplicate":
        row[0] = "o0"
    elif fault == "unmapped":
        row[-1] = "maybe"
    else:
        row[1] = WIDE_CELL


@st.composite
def raw_tables(draw) -> bytes:
    """A table of 1-3 attributes with quoted cells holding line breaks,
    spaces, NULs or separators, any of the three line ends, maybe a BOM,
    maybe a bad UTF-8 byte, and maybe a duplicate id, a ragged row or an
    unmapped token.  Sometimes two rows' cells join to one string, and
    sometimes two faults are placed in one file."""
    arity = draw(st.integers(1, 3))
    rows = [["id", *"abc"[:arity], "d"]]
    for i in range(draw(st.integers(0, 8))):
        rows.append([draw(IDS).format(i), *(draw(CELLS) for _ in range(arity)),
                     draw(TOKENS)])
        if draw(st.integers(0, 19)) == 0:
            rows[-1].pop()
    if arity > 1 and draw(st.booleans()):
        # two rows whose cells join at the separator to one string
        a, x, b = (draw(st.sampled_from(["p", "q", ""])) for _ in range(3))
        sep = draw(st.sampled_from(["\0", "\x1f"]))
        rest = [draw(CELLS) for _ in range(arity - 2)]
        for k, cells in enumerate([[a + sep + x, b], [a, x + sep + b]]):
            rows.insert(draw(st.integers(1, len(rows))), [f"t{k}", *cells, *rest, draw(TOKENS)])
    if len(rows) > 2 and draw(st.integers(0, 3)) == 0:
        for _ in range(2):
            _fault(rows[draw(st.integers(2, len(rows) - 1))], draw(st.sampled_from(FAULTS)))
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows(rows)
    data = (draw(st.sampled_from(["", "\ufeff"])) + out.getvalue()).encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


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


CONFIGS = st.tuples(
    st.sampled_from([None, ("a",), (" a",), ("a", "b"), ("d",), ("id",), ("nope",)]),
    st.sampled_from([None, "d", "a", "id", "nope"]),
).map(lambda fields: TableConfig(*fields))


@settings(max_examples=400, deadline=None)
@given(data=raw_tables(), config=st.one_of(st.just(TableConfig()), CONFIGS))
# a repeated id, then a cell over the field size limit two rows on
@example(data=f"id,a,d\no1,p,1\no1,q,0\no2,p,1\no3,{WIDE_CELL},1\n".encode(),
         config=TableConfig())
# keys that a plain join at NUL or at \x1f would confuse
@example(data="id,a,b,d\no1,p\0,,1\no2,p,\0,0\no3,p\x1fp,p,1\no4,p,p\x1fp,0\n".encode(),
         config=TableConfig())
def test_load_table_matches_the_reference_reader(data, config):
    assert _read_by(load_table, data, config) == _read_by(oracle_table, data, config)
