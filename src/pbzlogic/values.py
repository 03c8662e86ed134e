"""The seven truth values, and each logic as a map from them to labels.

A concept (orthopair) splits the universe into three regions: the positive
region A, the negative region B and the boundary.  A block of
indiscernible objects meets at least one of them, so its value is one of
the 2^3 - 1 = 7 nonempty sets of regions: the paper's "magical number
seven".  Each `TruthValue` carries that set as its 3-bit region `flag`,
and everything else about the values (the mirror, the member masks) is
derived from the flag.  The abstract's correspondence with the Jaina
reasoning system plausibly reads its seven predications as these seven
combinations of three.

A set of base values is a 7-bit member mask, with bit `w.flag` set for
each member w.  The upward (downward) aggregation of v holds every value
at least (at most) v in the truth order (`UPWARD_MEMBERS`,
`DOWNWARD_MEMBERS`), and a derived value of a logic holds a union of
aggregations of one kind, or the intersection of one union of each
(`ValueDef.members`).  So a logic is its seven-entry `value_table`, from
each base value to the labels of the derived values that hold it; Belnap's
four values are the built-in `belnap` logic.

This module is what `classify` runs.  Computing the parts of a concept
over a knowledge base, by three cross-checked formulations, is
`sevenvalued`; evaluating a logic on the mask layer and deciding whether
it partitions every concept is `logics`.
"""

from __future__ import annotations

from enum import Enum

from ._record import FrozenRecord
from .regions import BOUNDARY, NEGATIVE, POSITIVE


class TruthValue(Enum):
    """A base truth value: its symbol, and the flag of the regions met by a
    block that takes it."""

    TRUE = "T", POSITIVE
    SOMETIMES_TRUE = "sT", POSITIVE | BOUNDARY
    UNKNOWN = "U", BOUNDARY
    CONTRADICTORY = "K", POSITIVE | NEGATIVE
    FULLY_CONTRADICTORY = "fK", POSITIVE | NEGATIVE | BOUNDARY
    SOMETIMES_FALSE = "sF", NEGATIVE | BOUNDARY
    FALSE = "F", NEGATIVE

    def __new__(cls, symbol: str, flag: int) -> "TruthValue":
        member = object.__new__(cls)
        member._value_ = symbol
        member.flag = flag
        return member

    @property
    def symbol(self) -> str:
        return self.value

    def mirror(self) -> "TruthValue":
        """Swap true-side and false-side values (the A and B bits); U, K,
        fK are self-mirrored."""
        flag = self.flag
        return BY_FLAG[flag & BOUNDARY | (flag & POSITIVE) << 1 | (flag & NEGATIVE) >> 1]


# The value of each flag: the one nonempty set of regions it names.
BY_FLAG: dict[int, TruthValue] = {v.flag: v for v in TruthValue}

_V = TruthValue

# Rank in the truth-value order; U, K and fK share a rank and are
# pairwise incomparable.  Only the order needed by the aggregations is
# committed to.
_RANK = {
    _V.FALSE: 0,
    _V.SOMETIMES_FALSE: 1,
    _V.UNKNOWN: 2,
    _V.CONTRADICTORY: 2,
    _V.FULLY_CONTRADICTORY: 2,
    _V.SOMETIMES_TRUE: 3,
    _V.TRUE: 4,
}


def truth_leq(v: TruthValue, w: TruthValue) -> bool:
    """Partial order on truth values, false-most at the bottom."""
    return v == w or _RANK[v] < _RANK[w]


# Member masks: the upward (downward) aggregation of v holds every value
# at least (at most) v.
UPWARD_MEMBERS: dict[TruthValue, int] = {
    v: sum(1 << w.flag for w in _V if truth_leq(v, w)) for v in _V
}

DOWNWARD_MEMBERS: dict[TruthValue, int] = {
    v: sum(1 << w.flag for w in _V if truth_leq(w, v)) for v in _V
}

BASE_SYMBOLS = tuple(v.symbol for v in TruthValue)


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

    def members(self) -> int:
        """The member mask of the base values whose objects this derived
        value holds: an int with bit `w.flag` set for each such value w.

        An object lies in the upward (downward) part of u exactly when its
        base value is in the mask UPWARD_MEMBERS[u] (DOWNWARD_MEMBERS[u]),
        so the mask is the OR of those of `up`, AND the OR of those of
        `down`.
        """
        held = ~0  # every value, until a union narrows it; one always does
        for symbols, table in ((self.up, UPWARD_MEMBERS), (self.down, DOWNWARD_MEMBERS)):
            if symbols:
                union = 0
                for symbol in symbols:
                    union |= table[TruthValue(symbol)]
                held &= union
        return held


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
        seven entries are the whole logic; `logics.evaluate_logic` computes
        the same sets from rough approximations.
        """
        held = [(v.label, v.members()) for v in self.values]
        return {t: tuple(label for label, m in held if m >> t.flag & 1) for t in TruthValue}

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
        """The spec that `to_dict` describes.  Any other shape of JSON
        value is a ValueError, or a KeyError for a missing key."""
        _expect(data, dict, "a logic spec")
        values = []
        for entry in _expect(data["values"], list, "'values'"):
            _expect(entry, dict, "a derived value")
            values.append(ValueDef(
                label=_expect(entry["label"], str, "a label"),
                up=tuple(_expect(entry.get("up", []), list, "'up'")),
                down=tuple(_expect(entry.get("down", []), list, "'down'")),
            ))
        return cls(name=_expect(data["name"], str, "a name"), values=tuple(values))

    def to_json(self) -> str:
        import json  # here and below: a command loads it only to read a spec file

        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LogicSpec":
        import json

        return cls.from_dict(json.loads(text))


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _expect(value, kind: type, what: str):
    """`value` if it is a `kind`, else a ValueError saying what it must be."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    return value


def single_label(name: str, labels: tuple[str, ...]) -> str:
    """The one derived value of the named object; ValueError for none or several."""
    if len(labels) != 1:
        raise ValueError(
            f"object {name!r} falls in {len(labels)} derived values; "
            "the logic is not a partition on this concept"
        )
    return labels[0]


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
