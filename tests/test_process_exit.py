"""The process entry `cli.run`: `main`, a flush of both streams, `os._exit`.

A process launched as `python -m pbzlogic.cli` skips the interpreter's
teardown once its output is flushed, so it must write every byte, and
exit with every code, that `main` gives in-process, and nothing that
pbzlogic loads may rely on the teardown (an exit handler or a thread).
"""

import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import pbzlogic
from pbzlogic import cli

DEMO = str(Path(__file__).parent / "data" / "demo.csv")
SRC = str(Path(pbzlogic.__file__).parents[1])
MODULE = [sys.executable, "-m", "pbzlogic.cli"]

# One command line of each of the four commands.
COMMANDS = {
    "classify": ["classify", "--input", DEMO, "--logic", "triage", "--format", "json"],
    "verify": ["verify", "--input", DEMO],
    "validate-logic": ["validate-logic", "--logic", "triage", "--input", DEMO],
    "list-logics": ["list-logics"],
}
# The help: argparse's own `print_help` swallows a failed write, and
# writes to stderr when stdout is closed.
HELPS = {"help": ["--help"], "verify-help": ["verify", "--help"]}


def in_process(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `main(argv)`, a usage error's
    `SystemExit` included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def environment(unbuffered: bool = False) -> dict[str, str]:
    """This process's environment with this checkout's pbzlogic on the
    path, and stdout buffered, as by default, unless `unbuffered`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def launched(argv: list[str], unbuffered: bool = False, **streams) -> subprocess.CompletedProcess:
    """`python -m pbzlogic.cli argv`."""
    return subprocess.run([*MODULE, *argv], env=environment(unbuffered), timeout=60,
                          **streams)


@pytest.mark.parametrize("argv, code", [
    (["verify", "--input", DEMO], 0),
    (["classify", "--input", DEMO, "--logic", "nosuch"], 1),
    (["verify", "--sizes", "2", "--mutate", "kleene-identity"], 2),
    (["verify", "--sizes", "2", "--mutate", "kleene-identity", "--format", "json"], 2),
    (["frobnicate"], 1),
    (["verify", "--help"], 0),
], ids=["ok", "data-error", "check-failed", "check-failed-json", "usage-error", "help"])
def test_a_launched_command_writes_what_main_returns(capsys, monkeypatch, argv, code):
    """The fast exit after a return, and argparse's `SystemExit`, which
    ends the process the usual way.  argparse wraps its text to the
    terminal's width, so both runs get the same."""
    monkeypatch.setenv("COLUMNS", "80")
    expected = in_process(capsys, argv)
    assert expected[0] == code
    done = launched(argv, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == expected


@pytest.fixture(scope="module")
def large_table(tmp_path_factory) -> str:
    """50,000 rows in 6,790 blocks."""
    path = tmp_path_factory.mktemp("large") / "table.csv"
    path.write_text("id,a,b,d\n" + "".join(
        f"o{i},v{i % 70},w{i % 97},{'01?'[i * 7 % 3]}\n" for i in range(50_000)))
    return str(path)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("sink", ["file", "pipe"])
def test_a_large_report_loses_no_byte(capsys, tmp_path, large_table, sink, unbuffered):
    argv = ["classify", "--input", large_table, "--logic", "belnap", "--format", "json"]
    code, out, err = in_process(capsys, argv)
    assert (code, err) == (0, "")
    assert len(out) > 3_000_000
    if sink == "file":
        path = tmp_path / "out.json"
        with open(path, "wb") as stdout:
            done = launched(argv, unbuffered, stdout=stdout, stderr=subprocess.PIPE)
        written = path.read_bytes()
    else:
        done = launched(argv, unbuffered, capture_output=True)
        written = done.stdout
    assert (done.returncode, done.stderr) == (0, b"")
    assert written == out.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", [*sorted(COMMANDS), *HELPS])
def test_a_full_device_exits_1_with_one_line(command, unbuffered):
    """Buffered, the write error comes from `main`'s flush, or the help's,
    and the flush in `run` fails again on the bytes still held: it prints
    nothing more."""
    argv = {**COMMANDS, **HELPS}[command]
    with open("/dev/full", "wb") as full:
        done = launched(argv, unbuffered, stdout=full, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (1, b"error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_in_process_main_on_a_full_device_exits_1_with_one_line(unbuffered):
    """`main` called by a library, which ends the usual way: `main` points
    a stdout that cannot take its bytes at /dev/null, so the flush at exit
    does not fail on the bytes that the full device refused."""
    script = "import sys; from pbzlogic.cli import main; sys.exit(main(['list-logics']))"
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-c", script], stdout=full,
                              stderr=subprocess.PIPE, env=environment(unbuffered), timeout=60)
    assert (done.returncode, done.stderr) == (1, b"error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("close_stderr", [False, True])
@pytest.mark.parametrize("command", [*sorted(COMMANDS), *HELPS])
def test_a_closed_stdout_exits_1_with_one_line(command, close_stderr):
    """Started with fd 1 closed, as `... >&-`, where `sys.stdout` is None:
    one error line, or none with fd 2 closed as well, and exit 1."""
    argv = {**COMMANDS, **HELPS}[command]
    line = f"{shlex.join([*MODULE, *argv])} >&-{' 2>&-' * close_stderr}"
    done = subprocess.run(["/bin/sh", "-c", line], capture_output=True, env=environment(),
                          timeout=60)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == (b"" if close_stderr else b"error: stdout is closed\n")


# The other routes through the commands: text output, synthetic sweeps
# and a spec file, which loads `pathlib` and `json`; the spec is no
# partition, so the last command exits 2.
GAP_SPEC = '{"name": "gap", "values": [{"label": "t", "up": ["sT"]}]}'
OTHER_ROUTES = [
    ["classify", "--input", DEMO, "--logic", "belnap"],
    ["verify", "--sizes", "3", "--format", "json"],
    ["validate-logic", "--logic", "diagnosis", "--size", "3", "--format", "json"],
]


def test_no_command_registers_an_exit_handler(tmp_path):
    """`os._exit` skips `atexit` handlers and the join of non-daemon
    threads: nothing that the commands load may register either.  A module
    that comes to do so fails here, where its handler would be skipped in
    silence."""
    spec = tmp_path / "gap.json"
    spec.write_text(GAP_SPEC)
    commands = [*COMMANDS.values(), *OTHER_ROUTES,
                ["validate-logic", "--logic", str(spec), "--size", "2"]]
    done = subprocess.run([sys.executable, "-S", "-c", (
        "import atexit, sys\n"
        "registered = []\n"
        "atexit.register = lambda func, *args, **kwargs: registered.append(repr(func))\n"
        "from pbzlogic.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "threading = sys.modules.get('threading')\n"
        "threads = threading.active_count() if threading else 1\n"
        "sys.stderr.write(repr((codes, registered, atexit._ncallbacks(), threads)))\n"
    )], capture_output=True, text=True, env=environment(), timeout=60)
    assert ast.literal_eval(done.stderr) == ([0] * 7 + [2], [], 0, 1)


class Exited(Exception):
    """What the stand-in for `os._exit` raises, with the code."""


@pytest.fixture
def exits(monkeypatch):
    def _exit(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", _exit)


class FailingStream:
    def __init__(self):
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        raise BrokenPipeError(32, "Broken pipe")


def test_run_flushes_no_missing_stream_and_reports_no_failed_flush(monkeypatch, exits):
    """A stream that is None is skipped; a failed flush of what a failed
    command left keeps its code 1 and prints nothing."""
    stderr = FailingStream()
    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", stderr)
    with pytest.raises(Exited) as exited:
        cli.run()
    assert (exited.value.args, stderr.flushes) == ((1,), 1)


def test_run_leaves_a_system_exit_to_the_interpreter(monkeypatch, capsys, exits):
    monkeypatch.setattr(sys, "argv", ["pbzlogic", "frobnicate"])
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == 1
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
