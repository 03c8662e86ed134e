"""Derived n-valued logics built by aggregating the seven base truth values.

A logic assigns each object one of n derived values.  Each derived value is
defined by a union of upward aggregations, a union of downward
aggregations, or the intersection of one union of each kind.  Validation
checks that the derived values partition the universe for every concept.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ._record import FrozenRecord
from .sevenvalued import (
    DOWNWARD_MEMBERS,
    UPWARD_MEMBERS,
    TruthValue,
    downward_part,
    upward_part,
)

if TYPE_CHECKING:  # the mask layer is imported where it is used
    from .orthopair import Orthopair
    from .universe import KnowledgeBase, ObjectSet

BASE_SYMBOLS = tuple(v.symbol for v in TruthValue)

# Exhaustive validation is attempted while 3^|U| stays below this many
# orthopairs; beyond it a randomized search for counterexamples runs.
EXHAUSTIVE_LIMIT = 3**12
SAMPLE_BUDGET = 100_000


class ValueDef(FrozenRecord):
    """One derived truth value.

    `up` names base values whose upward aggregations are unioned; `down`
    likewise for downward aggregations.  With both present the two unions
    are intersected.
    """

    __slots__ = ("label", "up", "down")

    def __init__(
        self, label: str, up: tuple[str, ...] = (), down: tuple[str, ...] = ()
    ) -> None:
        if not label:
            raise ValueError("derived value needs a label")
        if not up and not down:
            raise ValueError(f"derived value {label!r} has an empty definition")
        for symbol in (*up, *down):
            if symbol not in BASE_SYMBOLS:
                raise ValueError(
                    f"unknown base truth value {symbol!r} in {label!r}"
                )
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    def evaluate(self, kb: KnowledgeBase, p: Orthopair) -> ObjectSet:
        result = None
        if self.up:
            acc = kb.universe.empty()
            for symbol in self.up:
                acc = acc | upward_part(kb, p, TruthValue(symbol))
            result = acc
        if self.down:
            acc = kb.universe.empty()
            for symbol in self.down:
                acc = acc | downward_part(kb, p, TruthValue(symbol))
            result = acc if result is None else result & acc
        return result

    def members(self) -> frozenset[TruthValue]:
        """The base values whose objects this derived value holds.

        An object lies in the upward (downward) part of u exactly when its
        base value is in UPWARD_MEMBERS[u] (DOWNWARD_MEMBERS[u]).
        """
        held = [
            {m for symbol in symbols for m in table[TruthValue(symbol)]}
            for symbols, table in ((self.up, UPWARD_MEMBERS), (self.down, DOWNWARD_MEMBERS))
            if symbols
        ]
        return frozenset(set.intersection(*held))


class LogicSpec(FrozenRecord):
    """A named logic: an ordered tuple of derived value definitions."""

    __slots__ = ("name", "values")

    def __init__(self, name: str, values: tuple[ValueDef, ...]) -> None:
        if not values:
            raise ValueError("a logic needs at least one derived value")
        labels = [v.label for v in values]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate derived value labels in logic {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", values)

    def labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.values)

    def value_table(self) -> dict[TruthValue, tuple[str, ...]]:
        """Labels of the derived values holding each base value, in label order.

        An object's derived values depend only on its base value, so these
        seven entries are the whole logic; `evaluate_logic` computes the
        same sets from rough approximations.
        """
        held = [(v.label, v.members()) for v in self.values]
        return {t: tuple(label for label, m in held if t in m) for t in TruthValue}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "values": [
                {"label": v.label, "up": list(v.up), "down": list(v.down)}
                for v in self.values
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogicSpec":
        values = tuple(
            ValueDef(
                label=entry["label"],
                up=tuple(entry.get("up", ())),
                down=tuple(entry.get("down", ())),
            )
            for entry in data["values"]
        )
        return cls(name=data["name"], values=values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LogicSpec":
        return cls.from_dict(json.loads(text))


class LogicAssignment(FrozenRecord):
    """Evaluated derived-value sets of one concept under one logic."""

    __slots__ = ("logic", "parts")

    def __init__(self, logic: LogicSpec, parts: dict[str, ObjectSet]) -> None:
        object.__setattr__(self, "logic", logic)
        object.__setattr__(self, "parts", parts)

    def __getitem__(self, label: str) -> ObjectSet:
        return self.parts[label]

    def labels_of(self, name: str) -> tuple[str, ...]:
        return tuple(label for label in self.logic.labels() if name in self.parts[label])

    def value_of(self, name: str) -> str:
        return single_label(name, self.labels_of(name))

    def counts(self) -> dict[str, int]:
        return {label: len(self.parts[label]) for label in self.logic.labels()}


def single_label(name: str, labels: tuple[str, ...]) -> str:
    """The one derived value of the named object; ValueError for none or several."""
    if len(labels) != 1:
        raise ValueError(
            f"object {name!r} falls in {len(labels)} derived values; "
            "the logic is not a partition on this concept"
        )
    return labels[0]


def evaluate_logic(kb: KnowledgeBase, p: Orthopair, spec: LogicSpec) -> LogicAssignment:
    return LogicAssignment(spec, {v.label: v.evaluate(kb, p) for v in spec.values})


class LogicValidation(NamedTuple):
    """Outcome of checking disjointness and coverage over all concepts."""

    logic: str
    status: str  # "valid" | "invalid" | "undecided"
    checked: int
    exhaustive: bool
    witness: Orthopair | None = None
    overlap: tuple[str, str, ObjectSet] | None = None
    uncovered: ObjectSet | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "logic": self.logic,
            "status": self.status,
            "checked": self.checked,
            "exhaustive": self.exhaustive,
        }
        if self.witness is not None:
            out["witness"] = {
                "positive": list(self.witness.positive),
                "negative": list(self.witness.negative),
            }
        if self.overlap is not None:
            out["overlap"] = [self.overlap[0], self.overlap[1], list(self.overlap[2])]
        if self.uncovered is not None:
            out["uncovered"] = list(self.uncovered)
        return out


def _sampled_orthopairs(kb: KnowledgeBase, budget: int, seed: int) -> Iterator[Orthopair]:
    import random

    from .orthopair import Orthopair
    from .universe import ObjectSet

    rng = random.Random(seed)
    universe = kb.universe
    for _ in range(budget):
        a = b = 0
        for i in range(universe.size):
            roll = rng.randrange(3)
            if roll == 1:
                a |= 1 << i
            elif roll == 2:
                b |= 1 << i
        yield Orthopair(ObjectSet(universe, a), ObjectSet(universe, b))


def validate_logic(
    kb: KnowledgeBase,
    spec: LogicSpec,
    budget: int | None = None,
    seed: int = 0,
) -> LogicValidation:
    """Check that the logic partitions U for every orthopair over kb.

    Exhaustive while 3^|U| fits in the budget; otherwise a randomized
    search that can only answer "invalid" or "undecided".  A budget below 1
    is a ValueError.
    """
    from .sweep import all_orthopairs

    if budget is not None and budget < 1:
        raise ValueError(f"the budget must be at least 1, got {budget}")
    total = 3**kb.universe.size
    limit = budget if budget is not None else max(EXHAUSTIVE_LIMIT, SAMPLE_BUDGET)
    exhaustive = total <= limit
    if exhaustive:
        candidates: Iterator[Orthopair] = all_orthopairs(kb.universe)
        planned = total
    else:
        planned = min(limit, SAMPLE_BUDGET) if budget is None else budget
        candidates = _sampled_orthopairs(kb, planned, seed)

    checked = 0
    for p in candidates:
        checked += 1
        assignment = evaluate_logic(kb, p, spec)
        covered = kb.universe.empty()
        for i, vdef in enumerate(spec.values):
            s = assignment[vdef.label]
            clash = covered & s
            if clash.bits:
                for other in spec.values[:i]:
                    shared = assignment[other.label] & s
                    if shared.bits:
                        return LogicValidation(
                            spec.name, "invalid", checked, exhaustive,
                            witness=p, overlap=(other.label, vdef.label, shared),
                        )
            covered = covered | s
        if covered.bits != kb.universe.full_mask:
            return LogicValidation(
                spec.name, "invalid", checked, exhaustive,
                witness=p, uncovered=~covered,
            )
    status = "valid" if exhaustive else "undecided"
    return LogicValidation(spec.name, status, checked, exhaustive)


def builtin_logics() -> tuple[LogicSpec, ...]:
    """The four built-in logics: treatment, triage, diagnosis, Belnap."""
    treatment = LogicSpec(
        "treatment",
        (
            ValueDef("treat", up=("sT",)),
            ValueDef("wait", down=("U", "K", "fK")),
        ),
    )
    triage = LogicSpec(
        "triage",
        (
            ValueDef("hospitalize", up=("sT",)),
            ValueDef("expert", up=("U", "K", "fK"), down=("U", "K", "fK")),
            ValueDef("discharge", down=("sF",)),
        ),
    )
    diagnosis = LogicSpec(
        "diagnosis",
        (
            ValueDef("disease", up=("sT",)),
            ValueDef("more-tests", up=("U",), down=("U",)),
            ValueDef("expert", up=("K", "fK"), down=("K", "fK")),
            ValueDef("no-disease", down=("sF",)),
        ),
    )
    belnap = LogicSpec(
        "belnap",
        (
            ValueDef("T_B", up=("sT",)),
            ValueDef("U_B", up=("U",), down=("U",)),
            ValueDef("K_B", up=("K", "fK"), down=("K", "fK")),
            ValueDef("F_B", down=("sF",)),
        ),
    )
    return (treatment, triage, diagnosis, belnap)


def builtin_logic(name: str) -> LogicSpec:
    for spec in builtin_logics():
        if spec.name == name:
            return spec
    raise KeyError(f"unknown built-in logic {name!r}")


_BELNAP_FROM_ARGUMENTS = {
    (True, False): "T_B",
    (False, False): "U_B",
    (True, True): "K_B",
    (False, True): "F_B",
}


def belnap_from_arguments(kb: KnowledgeBase, p: Orthopair, name: str) -> str:
    """Belnap value of one object from its arguments for truth and falsehood.

    Membership of the object's class in the upper approximation of the
    positive region argues for truth, of the negative region for falsehood.
    """
    i = kb.universe.index(name)
    for_truth = bool(kb.upper_mask(p.positive.bits) >> i & 1)
    for_false = bool(kb.upper_mask(p.negative.bits) >> i & 1)
    return _BELNAP_FROM_ARGUMENTS[(for_truth, for_false)]
