"""The package's public names resolve on first use, from their modules."""

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
