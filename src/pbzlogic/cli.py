"""Command-line front end: the commands and their dispatch.

Subcommands:

* ``classify``       seven-valued (plus derived-logic) classification of a CSV
                     decision table
* ``verify``         run the axiom suite against a table or synthetic sweeps
* ``validate-logic`` check a logic spec for disjointness and coverage
* ``list-logics``    show the built-in logics

A table is read by `table.load_table`; `classify` builds its report in
`report`, from the seven values and the logics' value tables (`values`).
`verify` and `validate-logic` take every knowledge base, a table or a set
partition of a synthetic sweep, as a `partition.Partition` and build no
mask layer, and write their reports through `verdicts`.  Every JSON report is
written as `json.dumps(report, indent=2, sort_keys=True)` would write it,
without loading `json` (`jsontext.dumps`).

Each command imports the modules it uses inside it, and only those whose
code it runs, because a run without cached bytecode compiles every line
it imports, and the largest module it compiles sets its peak RSS.  No
module imports this one: under `python -m pbzlogic.cli` it runs as
`__main__`, and an import would compile it a second time.

The options of every subcommand, and the two parsers that read them, are
in `options`; `RUN` maps each subcommand's name to its command.  So
`argparse` loads only for help and usage errors, and `pathlib` only where
`--logic` names a spec file.  `--sizes` and `--size` name a synthetic
sweep, so either one given with `--input` is a data error.

`run` is the process entry, of `python -m pbzlogic.cli` and of the
installed `pbzlogic` script: it calls `main`, flushes stdout and stderr and
ends with `os._exit`, so a process skips the interpreter's teardown once
its output is written.  `main` is the library and test entry and returns
the exit code.

Exit status: 0 on success, 1 on data and usage errors and on an output
that cannot be written, 2 when an axiom or logic check fails.  Every
verdict of both commands is exact: neither takes a budget.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence, TextIO

from .options import MAX_SYNTHETIC_SIZE, build_parser, parse_exact
from .table import (  # the ingest; these names stay importable from here
    DEFAULT_NEGATIVE,
    DEFAULT_POSITIVE,
    DEFAULT_UNKNOWN,
    SCHEMA_VERSION,
    DataError,
    Table,
    TableConfig,
    load_table,
    read_bytes,
    sha256_hex,
)

if TYPE_CHECKING:  # each command imports the modules it uses
    from argparse import Namespace
    from types import SimpleNamespace

    from .axioms import AxiomReport
    from .logics import LogicValidation
    from .partition import Partition
    from .values import LogicSpec, TruthValue

    Args = Namespace | SimpleNamespace  # what `build_parser` or `parse_exact` parsed

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CHECK_FAILED = 2


# The commands call `load_table` and the four functions below through this
# module's globals, so that the traced runs can wrap them here.


def all_knowledge_bases(size: int) -> Iterator[Partition]:
    """`sweep.all_partitions`, imported on first call so that `classify`
    never loads the sweep.  The name stays until the tracer patches `sweep`
    itself (ROADMAP.md, item 2)."""
    from .sweep import all_partitions

    return all_partitions(size)


def validate_logic(spec: LogicSpec, labels_of: dict[TruthValue, tuple[str, ...]],
                   partition: Partition) -> LogicValidation:
    """`logics.validate_blocks`, imported on first call so that `verify`
    never loads the logics.  The name stays until the tracer patches
    `logics` itself (ROADMAP.md, item 2)."""
    from .logics import validate_blocks

    return validate_blocks(spec, labels_of, partition)


def build_classification_report(
    table: Table, spec: LogicSpec | None, input_sha256: str, config_echo: dict
) -> dict:
    """`report.build_classification_report`, imported on first call so
    that `verify` never loads the classification report."""
    from .report import build_classification_report

    return build_classification_report(table, spec, input_sha256, config_echo)


def render_json(report: dict, out: TextIO) -> None:
    """Write `json.dumps(report, indent=2, sort_keys=True, default=list)`
    and a newline.

    The `objects` of a classification report (an `ObjectRows`) write
    themselves, a chunk at a time, where the rest of the report, rendered
    with an empty list, holds `"objects": []`; no string value can hold
    that line, since strings are written with their line breaks escaped.
    """
    from .jsontext import dumps  # here, so that only JSON output loads the writer

    rows = report.get("objects")
    if not (rows and hasattr(rows, "write_json")):
        out.write(dumps(report) + "\n")
        return
    head, tail = dumps({**report, "objects": []}).split('\n  "objects": []')
    out.write(f'{head}\n  "objects": [\n')
    rows.write_json(out)
    out.write(f"\n  ]{tail}\n")


def _parse_size(text: str, option: str, limit: int) -> int:
    """A synthetic universe size from 1 to `limit`, else a DataError."""
    try:
        size = int(text)
    except ValueError:
        size = 0
    if not 1 <= size <= limit:
        raise DataError(f"{option} takes sizes from 1 to {limit}, got {text!r}")
    return size


def _resolve_logic(name_or_path: str) -> LogicSpec | None:
    """A built-in name, a spec file path, or None for the bare seven values."""
    if name_or_path == "seven":
        return None
    from .values import LogicSpec, builtin_logic

    try:
        return builtin_logic(name_or_path)
    except KeyError:
        pass
    from pathlib import Path  # here, so that only a spec file loads pathlib

    path = Path(name_or_path)
    if not path.exists() or path.is_dir():  # Path("") is ".", a directory
        raise DataError(
            f"unknown logic {name_or_path!r}: not a built-in and not a file"
        )
    try:
        return LogicSpec.from_json(path.read_text(encoding="utf-8"))
    except (KeyError, ValueError, RecursionError) as exc:  # RecursionError: JSON too deep
        raise DataError(f"{path}: bad logic spec: {exc}") from exc


def _table_config(args: Args) -> TableConfig:
    def tokens(value: str | None, default: tuple[str, ...] | None) -> tuple[str, ...] | None:
        if value is None:
            return default
        return tuple(t.strip() for t in value.split(","))

    return TableConfig(
        attributes=tokens(args.attributes, None),
        decision_column=args.decision_column,
        positive_tokens=tokens(args.positive_tokens, DEFAULT_POSITIVE),
        negative_tokens=tokens(args.negative_tokens, DEFAULT_NEGATIVE),
        unknown_tokens=tokens(args.unknown_tokens, DEFAULT_UNKNOWN),
    )


def cmd_classify(args: Args) -> int:
    config = _table_config(args)
    data = read_bytes(args.input)
    table = load_table(args.input, config, data)
    input_sha256 = sha256_hex(data)
    del data  # not held while rendering
    spec = _resolve_logic(args.logic)
    report = build_classification_report(table, spec, input_sha256, config.echo())
    if args.format == "json":
        render_json(report, sys.stdout)
    else:
        from .report import render_classification_text

        render_classification_text(report, sys.stdout)
    return EXIT_OK


def cmd_verify(args: Args) -> int:
    from . import axioms, verdicts  # here, so that the other commands never load them

    failed = False

    def runs() -> Iterator[tuple[str, bool, list[AxiomReport]]]:
        nonlocal failed
        for label, partition in _partitions(args, args.sizes, "--sizes", "1,2,3,4"):
            reports = axioms.check_blocks(partition, args.mutate)
            ok = axioms.certified(reports)
            failed = failed or not ok
            yield label, ok, reports

    verdicts.write_runs(runs(), args.format, sys.stdout)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _partitions(args: Args, sizes: str | int | None, option: str,
                default: str) -> Iterator[tuple[str, Partition]]:
    """The label and partition of each knowledge base that `verify` and
    `validate-logic` check, one at a time: the `--input` table, else every
    set partition of each size in the comma-separated `sizes` of `option`
    (`default` where it is not given).  A size given with `--input` is a
    DataError, raised before any knowledge base is checked."""
    if args.input is not None:
        if sizes is not None:
            raise DataError(f"{option} sizes a synthetic sweep: it cannot be given with --input")
        from .partition import Partition  # here, so that `classify` never loads it

        table = load_table(args.input, _table_config(args))
        yield f"table {args.input}", Partition(*table[:3])
        return
    sizes = default if sizes is None else str(sizes)
    for size in [_parse_size(s, option, MAX_SYNTHETIC_SIZE) for s in sizes.split(",")]:
        for i, partition in enumerate(all_knowledge_bases(size)):
            yield f"size {size} partition {i}", partition


def cmd_validate_logic(args: Args) -> int:
    from . import verdicts

    spec = _resolve_logic(args.logic)
    if spec is None:
        raise DataError("the base seven-valued assignment needs no validation")
    labels_of = spec.value_table()  # once per command
    failed = False

    def results() -> Iterator[LogicValidation]:
        nonlocal failed
        for _, partition in _partitions(args, args.size, "--size", "4"):
            result = validate_logic(spec, labels_of, partition)
            failed = failed or result.status != "valid"
            yield result

    verdicts.write_results(results(), args.format, sys.stdout)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_list_logics(args: Args) -> int:
    from .values import builtin_logics

    for spec in builtin_logics():
        labels = ", ".join(spec.labels())
        sys.stdout.write(f"{spec.name}: {labels}\n")
    sys.stdout.write("seven: the unaggregated seven-valued classification\n")
    return EXIT_OK


# The function that runs each subcommand of `options.COMMANDS`.
RUN: dict[str, Callable[[Args], int]] = {
    "classify": cmd_classify,
    "verify": cmd_verify,
    "validate-logic": cmd_validate_logic,
    "list-logics": cmd_list_logics,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_exact(argv)
        if args is None:  # a help that cannot be written raises an OSError
            args = build_parser().parse_args(argv)
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        code = RUN[args.command](args)
        sys.stdout.flush()
        return code
    except (OSError, ValueError) as exc:  # DataError is a ValueError
        if sys.stderr is not None:
            sys.stderr.write(f"error: {exc}\n")
        if sys.stdout is not None:
            try:
                sys.stdout.flush()
            except OSError:
                # stdout cannot take its bytes (its reader is gone, or its
                # device is full): point it at /dev/null, so that the flush
                # at exit cannot fail too.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DATA_ERROR


def run() -> NoReturn:
    """The process entry: `main`, a flush of stdout and stderr, then
    `os._exit` with `main`'s code, which skips the interpreter's teardown.
    A `SystemExit` (help, usage errors) or an uncaught exception leaves
    `main` and ends the process the usual way."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                # `main` has flushed stdout, or pointed it at /dev/null, so
                # this is stderr, on a full device, say: its code stands.
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
