"""The command line's options: one table, `COMMANDS`, and its two parsers.

`parse_exact` reads a well-formed command line, a subcommand followed by
`--option value` pairs, straight off the table; any other goes to the
argparse parser that `build_parser` builds from it.  So `argparse` loads
only for help and usage errors.  Both parsers give the subcommand's name
as `command`, and `cli` maps that name to the function that runs it: no
module imports `cli`, which runs as `__main__` under `python -m
pbzlogic.cli`.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, NoReturn, Sequence, TextIO

if TYPE_CHECKING:
    from argparse import ArgumentParser

# Synthetic sweeps check one knowledge base per set partition of their
# objects: Bell(8) = 4,140 of them.
MAX_SYNTHETIC_SIZE = 8

# The help of an option that the help leaves out: argparse.SUPPRESS, which
# argparse tests by identity.
SUPPRESS = "==SUPPRESS=="


class Option(NamedTuple):
    """One option of a subcommand, as both parsers read it.  `check` is the
    tuple of its choices, `int` for an integer, or None for any string."""

    flag: str
    help: str | None = None
    default: str | int | None = None
    check: tuple[str, ...] | type[int] | None = None
    required: bool = False

    @property
    def dest(self) -> str:
        """The attribute that holds the value, named as argparse names it."""
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    """A subcommand: its help and its options in the order of its help."""

    help: str
    options: tuple[Option, ...]


def _table_options(required: bool) -> tuple[Option, ...]:
    return (
        Option("--input", "CSV decision table", required=required),
        Option("--attributes", "comma-separated condition attributes (default: all)"),
        Option("--decision-column", "decision column name (default: last)"),
        Option("--positive-tokens", "comma-separated positive decision tokens"),
        Option("--negative-tokens", "comma-separated negative decision tokens"),
        Option("--unknown-tokens", "comma-separated unknown decision tokens"),
    )


FORMAT = Option("--format", default="text", check=("text", "json"))

# `--sizes` and `--size` default to None, so that `cli` can tell one given
# with `--input` from one left out; the sweep's defaults are in `cli`.
COMMANDS: dict[str, Command] = {
    "classify": Command("classify every object of a decision table", (
        *_table_options(required=True),
        Option("--logic", "built-in logic name, spec file path, or 'seven'", "seven"),
        FORMAT,
    )),
    "verify": Command("run the lattice axiom suite", (
        *_table_options(required=False),
        Option("--sizes", f"synthetic universe sizes from 1 to {MAX_SYNTHETIC_SIZE},"
               " e.g. 3,4 (default 1,2,3,4)"),
        FORMAT,
        Option("--mutate", SUPPRESS),  # test harness only
    )),
    "validate-logic": Command("check a logic spec for partition laws", (
        *_table_options(required=False),
        Option("--logic", "built-in logic name or spec file path", required=True),
        Option("--size", f"synthetic universe size from 1 to {MAX_SYNTHETIC_SIZE}"
               " when no input table is given: every set partition of it", check=int),
        FORMAT,
    )),
    "list-logics": Command("list the built-in logics", ()),
}


def parse_exact(argv: Sequence[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` gives, attribute for attribute,
    when `argv` is a subcommand followed by `--option value` pairs: each
    option spelt in full, no value starting with "-", each value one that
    argparse takes, and every required option given.  Of repeated values
    the last wins, as in argparse.  None for any other `argv`, which `main`
    leaves to argparse: help, abbreviations, `--option=value`, `--` and
    every usage error."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    options = {option.flag: option for option in command.options}
    values = {option.dest: option.default for option in command.options}
    flags = argv[1::2]
    for flag, value in zip(flags, argv[2::2]):
        option = options.get(flag)
        if option is None or value.startswith("-"):
            return None
        if option.check is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif option.check is not None and value not in option.check:
            return None
        values[option.dest] = value
    if any(option.required and option.flag not in flags for option in command.options):
        return None
    return SimpleNamespace(command=argv[0], **values)


def build_parser() -> ArgumentParser:
    """The argparse parser of `COMMANDS`, for help and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Exits 1 on a usage error, as on a data error: argparse's own 2 is
        the code of a failed check.  Subparsers inherit the class."""

        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

        def print_help(self, file: TextIO | None = None) -> None:
            """Write and flush the help, raising the OSError of a failed
            write for `main` to report: argparse's own would swallow it,
            and write to stderr when stdout is closed."""
            file = sys.stdout if file is None else file
            if file is None:
                raise OSError("stdout is closed")
            file.write(self.format_help())
            file.flush()

    parser = _Parser(
        prog="pbzlogic",
        description="Seven-valued rough-set classification of decision tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in command.options:
            check = "choices" if isinstance(option.check, tuple) else "type"
            p.add_argument(
                option.flag, default=option.default, required=option.required,
                help=argparse.SUPPRESS if option.help == SUPPRESS else option.help,
                **{check: option.check})
    return parser
