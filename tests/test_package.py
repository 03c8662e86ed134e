"""The package's public names resolve on first use, from their modules."""

import ast
import json
import re
from pathlib import Path

import pytest

import pbzlogic

PUBLIC = [
    "AXIOMS", "MUTATIONS", "AxiomReport", "FORMULATIONS", "KnowledgeBase",
    "LatticeOps", "LogicAssignment", "LogicSpec", "LogicValidation", "ObjectSet",
    "Orthopair", "SevenPartition", "TermError", "TruthValue", "Universe",
    "UniverseMismatchError", "ValueDef", "all_knowledge_bases", "all_orthopair_masks",
    "all_orthopairs", "belnap_from_arguments", "block_values", "bottom", "brouwer",
    "builtin_logic", "builtin_logics", "certified", "check_all", "check_axiom",
    "classify", "default_universe", "downward_part", "eval_term", "evaluate_logic",
    "join", "kleene", "leq", "meet", "mutated_ops", "part", "pawlak", "run_mutation",
    "set_partitions", "seven_partition", "standard_ops", "top", "truth_leq",
    "upward_part", "validate_logic",
]


def test_all_is_unchanged_and_every_name_resolves():
    assert pbzlogic.__all__ == PUBLIC
    namespace: dict = {}
    exec("from pbzlogic import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC) <= set(dir(pbzlogic))


def test_submodule_import_still_works():
    from pbzlogic import brute

    assert pbzlogic.check_axiom is brute.check_axiom


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        pbzlogic.nope  # noqa: B018


def test_the_readme_library_example_gives_the_values_its_comments_state():
    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    demo = (root / "tests" / "data" / "demo.csv").as_posix()
    block = block.replace('"table.csv"', repr(demo))
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values['classify(kb, p, "o3")'] is pbzlogic.TruthValue.CONTRADICTORY
    assert values["seven_partition(kb, p).counts()"] == {
        "T": 2, "sT": 0, "U": 0, "K": 2, "fK": 0, "sF": 2, "F": 0,
    }
    triage = values['evaluate_logic(kb, p, builtin_logic("triage")).counts()']
    assert list(triage) == ["hospitalize", "expert", "discharge"]
    assert sum(triage.values()) == 6
    assert values["certified(check_all(kb))"] is True
    assert values['validate_logic(kb, builtin_logic("belnap")).status'] == "valid"
    report = json.loads(values["json.dumps(report, default=list)"])
    assert [entry["id"] for entry in report["objects"]] == [
        line.split(",")[0] for line in Path(demo).read_text().splitlines()[1:]
    ]
