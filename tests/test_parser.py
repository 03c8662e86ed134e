"""The exact parser against argparse, both read off `cli.COMMANDS`.

`parse_exact` takes only a subcommand and `--option value` pairs; on
every other command line it returns None and `main` hands the line to
`build_parser()`.  Where it returns a result, the result must be the one
argparse gives, and it must decline every line that argparse rejects.
"""

import contextlib
import io

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pbzlogic.cli import COMMANDS, build_parser, main, parse_exact

FLAGS = sorted({option.flag for command in COMMANDS.values() for option in command.options})
# empty values, negative numbers, choice misses, non-ints and ints that
# `int` reads but a human might not
VALUES = ["", "-1", "0", "4", " 3 ", "3_0", "٣", "x", "1,2", "text", "json", "xml",
          "seven", "triage", "demo.csv", "-", "--"]
JUNK = ["--", "-h", "--help", "--format=json", "--form", "--inp", "--size", "-x",
        "classify", "verify", "x", ""]


def _argparse(argv: list[str]) -> dict | None:
    """`vars()` of what argparse parses from `argv`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand (or junk), its required options, and pairs of a flag
    and a value: mostly its own flags with values they take, but also other
    commands' flags, odd values and junk tokens."""
    name = draw(st.sampled_from([*COMMANDS, *COMMANDS, "frobnicate", "--help", ""]))
    own = COMMANDS[name].options if name in COMMANDS else ()
    argv = [name]
    pairs = [o for o in own if o.required and draw(st.integers(0, 9))]
    pairs += draw(st.lists(st.sampled_from(own), max_size=5)) if own else []
    for option in draw(st.permutations(pairs)):
        if isinstance(option.check, tuple):
            takes = option.check
        elif option.check is int:
            takes = ("1", "3", "20")
        else:
            takes = ("t.csv", "a,b", "seven")
        argv += [option.flag, draw(st.sampled_from(takes))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            argv.append(draw(st.sampled_from(JUNK)))
        else:
            value = st.sampled_from(VALUES) if kind == 1 else st.text(max_size=3)
            argv += [draw(st.sampled_from(FLAGS)), draw(value)]
    return argv


@settings(max_examples=600, deadline=None)
@given(argv=argvs())
def test_the_exact_parser_agrees_with_argparse(argv):
    exact = parse_exact(argv)
    expected = _argparse(argv)
    event("exact" if exact is not None else "argparse only" if expected else "usage error")
    if exact is not None:
        assert vars(exact) == expected


@pytest.mark.parametrize("argv", [
    ["classify", "--input", "t.csv"],
    ["classify", "--input", "t.csv", "--logic", "triage", "--format", "json",
     "--attributes", "", "--decision-column", "d"],
    ["verify", "--sizes", "3,4", "--mutate", "kleene-identity"],
    ["verify", "--input", "t.csv", "--format", "json", "--format", "text"],
    ["validate-logic", "--logic", "belnap", "--size", "3"],
    ["list-logics"],
], ids=["classify", "classify-all", "verify-sweep", "verify-repeated", "validate-logic",
        "list-logics"])
def test_well_formed_commands_take_the_exact_route(argv):
    exact = parse_exact(argv)
    assert exact is not None
    assert vars(exact) == _argparse(argv)


@pytest.mark.parametrize("argv", [
    ["classify", "--input", "t.csv", "--format=json"],
    ["classify", "--input", "t.csv", "--form", "json"],
    ["validate-logic", "--logic", "belnap", "--size", "-3"],
    ["verify", "--", "--sizes", "2"],
    ["classify", "--input", "t.csv", "--help"],
], ids=["equals", "abbreviation", "negative-value", "double-dash", "help"])
def test_other_spellings_are_left_to_argparse(argv):
    assert parse_exact(argv) is None


def test_the_help_hides_the_mutations(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert "--sizes SIZES" in out
    assert "--mutate" not in out
