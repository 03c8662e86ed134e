"""The table path of `verify` and `validate-logic` against the KnowledgeBase
path: on every set partition of 1-5 objects, written as a table with its
rows shuffled, the block-size engines must report exactly what
`check_all`, `run_mutation` and `validate_logic` report on the same rows
partitioned by the mask layer, witnesses included."""

import json
import random

import pytest

from pbzlogic import (
    MUTATIONS,
    KnowledgeBase,
    LogicSpec,
    Universe,
    ValueDef,
    builtin_logic,
    builtin_logics,
    check_all,
    run_mutation,
    set_partitions,
    validate_logic,
)
from pbzlogic.axioms import check_blocks
from pbzlogic.cli import Partition, load_table, main
from pbzlogic.logics import validate_blocks

SIZES = [1, 2, 3, 4, 5]

# Two specs that are not partitions: Belnap with K_B narrowed to fK (K has
# no label), and one in which T has two labels.
INVALID_SPECS = (
    LogicSpec("no-K", (
        *builtin_logic("belnap").values[:2],
        ValueDef("fK_B", up=("fK",), down=("fK",)),
        builtin_logic("belnap").values[3],
    )),
    LogicSpec("overlap", (ValueDef("a", up=("sT",)), ValueDef("b", up=("U",)),
                          ValueDef("c", down=("sF",)))),
)
SPECS = builtin_logics() + INVALID_SPECS


def _tables(size: int):
    """Each set partition of `size` objects as the bytes of a table whose
    rows are shuffled, and the knowledge base that `from_attributes` builds
    from the same rows in the same order."""
    rng = random.Random(size)
    for blocks in set_partitions([f"o{i + 1}" for i in range(size)]):
        rows = [(oid, f"b{k}") for k, block in enumerate(blocks) for oid in block]
        rng.shuffle(rows)
        data = "id,a,d\n" + "".join(
            f"{oid},{value},{rng.choice('10?')}\n" for oid, value in rows)
        universe = Universe(tuple(oid for oid, _ in rows))
        kb = KnowledgeBase.from_attributes(universe, {oid: (v,) for oid, v in rows})
        yield data.encode("ascii"), kb


def _reports(kb, mutation):
    """The KnowledgeBase path."""
    return check_all(kb) if mutation is None else run_mutation(kb, mutation)


@pytest.mark.parametrize("size", SIZES)
def test_verify_table_matches_knowledge_base(tmp_path, capsys, size):
    path = tmp_path / "table.csv"
    statuses = set()
    for data, kb in _tables(size):
        path.write_bytes(data)
        table = load_table(path)
        partition = Partition(*table[:3])
        # the objects in the same order, so equal witness masks name equal objects
        assert tuple(table.objects) == kb.universe.objects
        for mutation in (None, *MUTATIONS):
            expected = _reports(kb, mutation)
            got = check_blocks(partition, mutation)
            assert [r[:4] for r in got] == [r[:4] for r in expected], (data, mutation)
            statuses |= {r.status for r in got}
            # the command itself
            mutate = ["--mutate", mutation] if mutation else []
            code = main(["verify", "--input", str(path), "--format", "json", *mutate])
            (run,) = json.loads(capsys.readouterr().out)["runs"]
            assert run["axioms"] == [r.to_dict() for r in expected]
            assert (code == 0) == run["certified"]
    assert statuses == {"holds", "counterexample"}


@pytest.mark.parametrize("size", SIZES)
def test_validate_logic_table_matches_knowledge_base(tmp_path, capsys, size):
    path = tmp_path / "table.csv"
    statuses = set()
    for data, kb in _tables(size):
        path.write_bytes(data)
        table = load_table(path)
        for spec in SPECS:
            labels_of = spec.value_table()
            expected = validate_logic(kb, spec)
            got = validate_blocks(spec, labels_of, Partition(*table[:3]))
            assert got.to_dict() == expected.to_dict(), (data, spec.name)
            statuses.add(got.status)
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(spec.to_json())
            code = main(["validate-logic", "--logic", str(spec_path), "--input", str(path),
                         "--format", "json"])
            (result,) = json.loads(capsys.readouterr().out)["results"]
            assert result == validate_logic(kb, spec).to_dict()
            assert (code == 0) == (result["status"] == "valid")
    assert statuses == {"valid", "invalid"}
