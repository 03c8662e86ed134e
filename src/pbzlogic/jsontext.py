"""`json.dumps(value, indent=2, sort_keys=True)` without loading `json`.

Every JSON report of the CLI is written through `dumps`: `cli.render_json`
for `classify`, and `verdicts` for `verify` and `validate-logic`.  It sits
in its own module because `cli` runs as `__main__` under `python -m
pbzlogic.cli`, so a module that imported it from `cli` would load and
compile `cli` a second time.
"""

from __future__ import annotations

from _json import encode_basestring_ascii


def dumps(value: object, indent: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` of a value nested at
    `indent`, for the values that reports hold: dicts with str keys, lists,
    tuples, strings, ints, bools and None.

    Strings and keys are escaped by the C `encode_basestring_ascii` and ints
    written by `int.__repr__`, as `json.dumps` does; any other value is a
    TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{\n" + ",\n".join([
            f"{inner}{encode_basestring_ascii(key)}: {dumps(item, inner)}"
            for key, item in sorted(value.items())
        ]) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + ",\n".join([inner + dumps(item, inner) for item in value]) + (
            f"\n{indent}]"
        )
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
