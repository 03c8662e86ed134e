"""Output checks that share no code with pbzlogic.

The expected seven-valued classification is derived straight from the
generated rows: an object's value depends only on which decisions its
group of identical attribute vectors holds.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from workloads import VERIFY_KBS, Table

# Decisions present in a block -> seven value ("1" positive, "0" negative,
# "?" unknown), then the triage label of that value.
SEVEN_OF_DECISIONS = {
    frozenset("1"): "T",
    frozenset("1?"): "sT",
    frozenset("?"): "U",
    frozenset("10"): "K",
    frozenset("10?"): "fK",
    frozenset("0?"): "sF",
    frozenset("0"): "F",
}
SEVEN_ORDER = ("T", "sT", "U", "K", "fK", "sF", "F")
TRIAGE = {
    "T": "hospitalize", "sT": "hospitalize",
    "U": "expert", "K": "expert", "fK": "expert",
    "sF": "discharge", "F": "discharge",
}
TRIAGE_ORDER = ("hospitalize", "expert", "discharge")

VERIFY_AXIOMS = frozenset({
    "bounds", "distributivity", "K1", "K2", "K3", "B1", "B2", "B3", "in", "s-in",
    "B2a", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9",
})


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one command; `decided` of `verdicts` were exact."""

    ok: bool
    reason: str = ""
    decided: int = 0
    verdicts: int = 0


class Rejected(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise Rejected(reason)


def expected_classification(table: Table) -> list[tuple[str, str, str]]:
    """(id, seven value, triage label) for every row, in row order."""
    held: dict[tuple[str, ...], set[str]] = defaultdict(set)
    for _, vector, decision in table.rows:
        held[vector].add(decision)
    out = []
    for oid, vector, _ in table.rows:
        seven = SEVEN_OF_DECISIONS[frozenset(held[vector])]
        out.append((oid, seven, TRIAGE[seven]))
    return out


def _check_classify(report: dict, table: Table) -> Verdict:
    _require(report.get("logic") == "triage", "logic is not triage")
    _require(
        report.get("provenance", {}).get("input_sha256") == table.sha256,
        "input_sha256 does not match the generated table",
    )
    expected = expected_classification(table)
    objects = report.get("objects")
    _require(isinstance(objects, list) and len(objects) == len(expected),
             "object count differs from the table")
    for entry, (oid, seven, derived) in zip(objects, expected):
        got = (entry.get("id"), entry.get("seven"), entry.get("derived"))
        _require(got == (oid, seven, derived),
                 f"object {oid}: got {got[1:]}, expected {(seven, derived)}")
    sevens = [seven for _, seven, _ in expected]
    derived = [label for _, _, label in expected]
    summary = report.get("summary", {})
    _require(summary.get("seven") == {v: sevens.count(v) for v in SEVEN_ORDER},
             "seven-value summary tallies are wrong")
    _require(summary.get("derived") == {d: derived.count(d) for d in TRIAGE_ORDER},
             "derived summary tallies are wrong")
    return Verdict(True, decided=len(expected), verdicts=len(expected))


def _check_verify(report: dict, kbs: int) -> Verdict:
    runs = report.get("runs")
    _require(isinstance(runs, list) and len(runs) == kbs, f"expected {kbs} knowledge bases")
    decided = verdicts = 0
    for run in runs:
        axioms = run.get("axioms", [])
        names = {a.get("axiom") for a in axioms}
        _require(VERIFY_AXIOMS <= names, f"{run.get('kb')}: axioms missing")
        for axiom in axioms:
            verdicts += 1
            decided += axiom.get("status") != "undecided"
            _require(axiom.get("status") == "holds" and axiom.get("exhaustive") is True,
                     f"{run.get('kb')}: {axiom.get('axiom')} is not an exhaustive hold")
        _require(run.get("certified") is True, f"{run.get('kb')} is not certified")
    return Verdict(True, decided=decided, verdicts=verdicts)


def _check_validate(report: dict, exit_code: int) -> Verdict:
    results = report.get("results")
    _require(isinstance(results, list) and len(results) == 1,
             "expected one validation result")
    status = results[0].get("status")
    # Exact answers and honest "undecided" are both correct; a built-in
    # logic is never invalid.
    _require((status, exit_code) in {("valid", 0), ("undecided", 2)},
             f"status {status!r} with exit code {exit_code}")
    return Verdict(True, decided=int(status == "valid"), verdicts=1)


def check(kind: str, table: Table | None, exit_code: int, stdout: bytes,
          stderr: bytes) -> Verdict:
    """Judge one command's exit code and output; never raises."""
    try:
        _require(b"Traceback" not in stderr, "traceback on stderr")
        _require(exit_code in (0, 2) if kind == "validate" else exit_code == 0,
                 f"exit code {exit_code}")
        try:
            report = json.loads(stdout)
        except ValueError:
            raise Rejected("stdout is not JSON") from None
        _require(isinstance(report, dict), "stdout is not a JSON object")
        if kind == "classify":
            return _check_classify(report, table)
        if kind == "verify":
            # A table is one knowledge base; without one, the default sweep.
            return _check_verify(report, VERIFY_KBS if table is None else 1)
        return _check_validate(report, exit_code)
    except Rejected as exc:
        return Verdict(False, str(exc))
    except (AttributeError, TypeError) as exc:
        return Verdict(False, f"malformed report: {exc}")
