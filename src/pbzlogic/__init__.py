"""Seven-valued rough-set classification over the Pawlak-Brouwer-Zadeh lattice.

The public names below are loaded from their modules on first use (PEP 562),
so `import pbzlogic` alone loads none of its submodules, and a command that
never touches the axiom engine never imports it.
"""

from __future__ import annotations

import importlib

# public name -> the module that defines it; the keys, in order, are __all__
_MODULE_OF = {
    "AXIOMS": "axioms",
    "MUTATIONS": "axioms",
    "AxiomReport": "axioms",
    "FORMULATIONS": "sevenvalued",
    "KnowledgeBase": "universe",
    "LatticeOps": "terms",
    "LogicAssignment": "logics",
    "LogicSpec": "values",
    "LogicValidation": "logics",
    "ObjectSet": "universe",
    "Orthopair": "orthopair",
    "SevenPartition": "sevenvalued",
    "TermError": "terms",
    "TruthValue": "values",
    "Universe": "universe",
    "UniverseMismatchError": "universe",
    "ValueDef": "values",
    "all_knowledge_bases": "sweep",
    "all_orthopair_masks": "sweep",
    "all_orthopairs": "sweep",
    "belnap_from_arguments": "logics",
    "block_values": "sevenvalued",
    "bottom": "orthopair",
    "brouwer": "orthopair",
    "builtin_logic": "values",
    "builtin_logics": "values",
    "certified": "axioms",
    "check_all": "brute",
    "check_axiom": "brute",
    "classify": "sevenvalued",
    "default_universe": "sweep",
    "downward_part": "sevenvalued",
    "eval_term": "orthopair",
    "evaluate_logic": "logics",
    "join": "orthopair",
    "kleene": "orthopair",
    "leq": "orthopair",
    "meet": "orthopair",
    "mutated_ops": "brute",
    "part": "sevenvalued",
    "pawlak": "orthopair",
    "run_mutation": "brute",
    "set_partitions": "sweep",
    "seven_partition": "sevenvalued",
    "standard_ops": "terms",
    "top": "orthopair",
    "truth_leq": "values",
    "upward_part": "sevenvalued",
    "validate_logic": "logics",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
