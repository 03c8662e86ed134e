"""Seeded end-to-end and per-layer benchmark of the pbzlogic CLI.

    python3 perfbench/run.py --workload classify-fine --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

One client runs the workload's command in a closed loop, each time as a
fresh process (`python3 -m pbzlogic.cli` on this checkout's src/, forked
by perfbench/launch.py), and checks every output independently of the
program (perfbench/checker.py).  Commands start while the next one is
predicted to finish within --seconds; at least one runs.  With --trace 1
one more command then runs in-process under spans (perfbench/traced.py)
for the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
A results file with the environment, input descriptors, every command
and every metric goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from checker import check
from workloads import WORKLOADS, Table, Workload, sweep_descriptors

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"

SETUP_REPEATS = 9
PROBE = (
    "import json, sys, importlib.metadata as md, pbzlogic.cli as cli; "
    "print(json.dumps({'pbzlogic': cli.__file__, 'python': sys.version.split()[0], "
    "'numpy': md.version('numpy')}))"
)
HIST_BUCKETS = (1, 2, 4, 8, 64, 4096)

# name -> unit, in the order printed; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "cmd_s.p50": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SPAN_TIMES = {
    "sevenvalued.classify_s": "sevenvalued.classify",
    "universe.upper_mask_s": "universe.upper_mask",
    "universe.lower_mask_s": "universe.lower_mask",
    "cli.load_table_s": "cli.load_table",
    "universe.from_attributes_s": "universe.from_attributes",
    "orthopair.from_names_s": "orthopair.from_names",
    "cli.render_json_s": "cli.render_json",
    "sevenvalued.seven_partition_s": "sevenvalued.seven_partition",
    "cli.build_report_s": "cli.build_report",
    "logics.evaluate_logic_s": "logics.evaluate_logic",
    "logics.validate_logic_s": "logics.validate_logic",
    "axioms.distributivity_s": "axioms.distributivity",
    "axioms.binary_s": "axioms.binary",
    "axioms.unary_s": "axioms.unary",
    "axioms.standard_ops_s": "axioms.standard_ops",
    "sweep.all_knowledge_bases_s": "sweep.all_knowledge_bases",
    "sweep.all_orthopair_masks_s": "sweep.all_orthopair_masks",
}
SPAN_CALLS = {
    "sevenvalued.classify.calls": "sevenvalued.classify",
    "universe.upper_mask.calls": "universe.upper_mask",
    "universe.lower_mask.calls": "universe.lower_mask",
    "logics.evaluate_logic.calls": "logics.evaluate_logic",
}
TRACE_COUNTS = (
    "logics.concepts_checked",
    "axioms.cases.distributivity",
    "axioms.cases.binary",
    "axioms.cases.unary",
    "sweep.kbs",
)
LAYERS = ("cli", "universe", "orthopair", "sevenvalued", "logics", "sweep", "axioms")
PER_LAYER = {
    **{name: "s" for name in SPAN_TIMES},
    **{name: "count" for name in SPAN_CALLS},
    **{name: "count" for name in TRACE_COUNTS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.input_bytes": "bytes",
    "cli.output_bytes": "bytes",
    "universe.rows": "count",
    "universe.blocks": "count",
    "universe.block_size_max": "count",
    **{f"universe.block_hist.le{b}": "count" for b in HIST_BUCKETS},
    f"universe.block_hist.gt{HIST_BUCKETS[-1]}": "count",
    "trace.cmd_s": "s",
    "trace.startup_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
    "decided_share": "ratio",
}
# Where the sized shape says one span should carry most of a traced command.
EXPECTED_SHAPE = {
    "classify-fine": ("sevenvalued.classify_s", 0.8),
    "verify-default": ("axioms.distributivity_s", 0.8),
    "verify-table": ("axioms.distributivity_s", 0.8),
    "validate-table": ("logics.evaluate_logic_s", 0.8),
}


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no program source)."""


@dataclass
class Command:
    wall_s: float
    rss_mb: float
    exit_code: int
    ok: bool
    reason: str
    decided: int
    verdicts: int
    stdout_bytes: int

    def record(self) -> dict:
        return asdict(self)


def command_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int, wait_s: float = 0.0) -> None:
    """SIGKILL a process group, then wait up to wait_s for it to be gone."""
    deadline = time.monotonic() + wait_s
    try:
        os.killpg(pid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.02)
            os.killpg(pid, 0)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], stdout: Path, stderr: Path, ceiling_s: float):
    """Run argv to completion; return (wall seconds, peak RSS in MB, exit code).

    The command is forked by perfbench/launch.py, which times it and reads
    its peak RSS.  A command still running after ceiling_s is killed with
    its launcher and reported with the time waited and exit code -9.
    """
    report = stdout.with_name(stdout.name + ".launch.json")
    report.unlink(missing_ok=True)
    launcher = [sys.executable, "-S", str(BENCH_DIR / "launch.py"), str(report), "--", *argv]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(launcher, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=command_env(), cwd=ROOT, start_new_session=True)
        timer = threading.Timer(ceiling_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        waited = time.perf_counter() - t0
    if not report.is_file():
        _kill_group(proc.pid, wait_s=10)
        return waited, 0.0, -signal.SIGKILL
    launched = json.loads(report.read_text(encoding="utf-8"))
    return launched["wall_s"], launched["maxrss_kb"] / 1024, launched["exit_code"]


def probe_import() -> dict:
    """Import the program in a fresh process, as every command does."""
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env=command_env(), cwd=ROOT, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"cannot import pbzlogic from {SRC}:\n{out.stderr}")
    found = json.loads(out.stdout)
    if Path(found["pbzlogic"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"pbzlogic imported from {found['pbzlogic']}, not {SRC}")
    return found


def git_commit() -> str:
    """HEAD of this checkout read from .git without running git, if any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload: Workload, seed: int, work: Path):
    """Probe the import and generate the inputs, SETUP_REPEATS times.

    Returns the median set-up time, the environment and the table (or None).
    """
    times, tables = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        found = probe_import()
        table = workload.make_table(seed) if workload.make_table else None
        if table is not None:
            (work / "input.csv").write_bytes(table.csv)
            tables.append(table.csv)
        times.append(time.perf_counter() - t0)
    if len(set(tables)) > 1:
        raise BenchError("the table generator is not deterministic")
    env = {**found, "nproc": os.cpu_count(), "git_commit": git_commit(),
           "executable": sys.executable}
    return statistics.median(times), env, table


def run_one(workload: Workload, table: Table | None, work: Path, reference: list,
            runner: tuple[str, ...] = ("-m", "pbzlogic.cli"), ceiling_s: float = 0) -> Command:
    """Run the workload's command once through `runner` and check its output.

    The first accepted stdout becomes the reference every later command
    must reproduce byte for byte.
    """
    csv = str(work / "input.csv") if table is not None else None
    ceiling_s = ceiling_s or workload.ceiling_s
    stdout, stderr = work / "stdout", work / "stderr"
    wall, rss, code = spawn([sys.executable, *runner, *workload.argv(csv)], stdout, stderr,
                            ceiling_s)
    out = stdout.read_bytes()
    verdict = check(workload.kind, table, code, out, stderr.read_bytes())
    ok, reason = verdict.ok, verdict.reason
    if wall >= ceiling_s:
        ok, reason = False, f"killed after the {ceiling_s:.0f} s ceiling"
    elif ok and reference and out != reference[0]:
        ok, reason = False, "stdout differs from the first command's"
    if ok and not reference:
        reference.append(out)
    return Command(wall, rss, code, ok, reason, verdict.decided, verdict.verdicts, len(out))


def measure(workload: Workload, table: Table | None, work: Path, seconds: float,
            reference: list) -> list[Command]:
    """Closed loop, one client: start while the next command should end in time."""
    done: list[Command] = []
    start = time.perf_counter()
    while True:
        done.append(run_one(workload, table, work, reference))
        typical = statistics.median(c.wall_s for c in done)
        if time.perf_counter() - start + typical > seconds:
            return done


def end_to_end(workload: Workload, table: Table | None, setup_s: float,
               commands: list[Command]) -> dict:
    units = workload.work_units or len(table.rows)
    busy = sum(c.wall_s for c in commands)
    verdicts = sum(c.verdicts for c in commands)
    return {
        "setup_s": setup_s,
        "cmd_s.p50": statistics.median(c.wall_s for c in commands),
        "work_per_s": units * sum(c.ok for c in commands) / busy,
        "peak_rss_mb": max(c.rss_mb for c in commands),
        "error_rate": sum(not c.ok for c in commands) / len(commands),
        "decided_share": sum(c.decided for c in commands) / verdicts if verdicts else 0.0,
    }


def traced(workload: Workload, table: Table | None, work: Path, reference: list,
           spans: Path):
    """One command in-process under spans; returns (Command, traced seconds, trace).

    The traced seconds leave out the time the harness spent writing spans.
    """
    runner = (str(BENCH_DIR / "traced.py"), "--spans", str(spans), "--")
    command = run_one(workload, table, work, reference, runner, 2 * workload.ceiling_s)
    if not spans.is_file():
        return command, command.wall_s, None
    trace_line, tail_line = spans.read_text(encoding="utf-8").splitlines()
    return command, command.wall_s - json.loads(tail_line)["write_s"], json.loads(trace_line)


def per_layer(desc: dict, e2e: dict, trace: dict, traced_s: float, input_bytes: int,
              output_bytes: int) -> dict:
    by_name = trace["summary"]["by_name"]
    layer_self = trace["summary"]["layer_self_s"]
    counts = trace["counts"]
    sizes = [int(size) for size, n in desc["block_size_histogram"].items() for _ in range(n)]
    bounds = (0, *HIST_BUCKETS)
    metrics = {
        **{m: by_name.get(n, {}).get("busy_s", 0.0) for m, n in SPAN_TIMES.items()},
        **{m: by_name.get(n, {}).get("calls", 0) for m, n in SPAN_CALLS.items()},
        **{name: counts.get(name, 0) for name in TRACE_COUNTS},
        **{f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS},
        "cli.input_bytes": input_bytes,
        "cli.output_bytes": output_bytes,
        "universe.rows": desc["rows"],
        "universe.blocks": desc["blocks"],
        "universe.block_size_max": desc["block_size_max"],
        **{f"universe.block_hist.le{hi}": sum(lo < s <= hi for s in sizes)
           for lo, hi in zip(bounds, bounds[1:])},
        f"universe.block_hist.gt{HIST_BUCKETS[-1]}": sum(s > HIST_BUCKETS[-1] for s in sizes),
        "trace.cmd_s": traced_s,
        "trace.startup_s": traced_s - by_name["cli.main"]["busy_s"],
        "trace.overhead_s": traced_s - e2e["cmd_s.p50"],
        "error_rate": e2e["error_rate"],
        "decided_share": e2e["decided_share"],
    }
    for name in (*SPAN_CALLS, *TRACE_COUNTS):
        metrics[name] = int(metrics[name])
    return metrics


def shape_note(workload: Workload, metrics: dict) -> str | None:
    """A warning when the traced time does not have the sized shape."""
    if workload.name not in EXPECTED_SHAPE:
        return None
    name, least = EXPECTED_SHAPE[workload.name]
    share = metrics[name] / metrics["trace.cmd_s"]
    if share < least:
        return f"{name} is {share:.0%} of the traced command, expected at least {least:.0%}"
    return None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "pbzlogic" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    setup_s, env, table = setup(workload, seed, work)
    reference: list[bytes] = []
    commands = measure(workload, table, work, seconds, reference)
    e2e = end_to_end(workload, table, setup_s, commands)
    desc = table.descriptors() if table is not None else sweep_descriptors()
    result = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": trace, "environment": env, "inputs": desc,
        "commands": [c.record() for c in commands],
        "metrics": {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END.items()},
        "guards": {"error_rate": e2e["error_rate"], "decided_share": e2e["decided_share"]},
    }
    attempted = len(commands)
    failed = sum(not c.ok for c in commands)
    if trace:
        spans = RESULTS / f"spans_{workload.name}_seed{seed}.json"
        spans.unlink(missing_ok=True)
        command, traced_s, spans_data = traced(workload, table, work, reference, spans)
        result["traced_command"] = command.record()
        attempted += 1
        failed += not command.ok or spans_data is None
        if spans_data is None:
            result["trace_error"] = "the traced command wrote no spans"
        else:
            input_bytes = len(table.csv) if table is not None else 0
            layer = per_layer(desc, e2e, spans_data, traced_s, input_bytes,
                              commands[0].stdout_bytes)
            result["per_layer"] = {m: {"value": layer[m], "unit": u}
                                   for m, u in PER_LAYER.items()}
            result["trace_summary"] = spans_data["summary"]
            result["spans_file"] = str(spans.relative_to(ROOT))
            result["shape_warning"] = shape_note(workload, layer)
    result["attempted"], result["failed"] = attempted, failed
    path = RESULTS / f"BENCH_{workload.name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def print_metrics(result: dict) -> None:
    name = result["workload"]
    n = len(result["commands"])
    for metric, m in (*result["metrics"].items(), *result.get("per_layer", {}).items()):
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        suffix = f"  (n={n})" if metric == "cmd_s.p50" else ""
        print(f"{name}  {metric} = {value} {m['unit']}{suffix}")
    if "per_layer" not in result:
        for guard, value in result["guards"].items():
            print(f"{name}  {guard} = {value:.6g} ratio")
    for c in result["commands"]:
        if not c["ok"]:
            print(f"{name}  FAILED command: {c['reason']}", file=sys.stderr)
    if result.get("trace_error"):
        print(f"{name}  FAILED trace: {result['trace_error']}", file=sys.stderr)
    if result.get("shape_warning"):
        print(f"{name}  shape mismatch: {result['shape_warning']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pbzlogic benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_metrics(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.workload == "all":
        metrics = {f"{r['workload']}/{m}": v for r in results
                   for m, v in (*r["metrics"].items(), *r.get("per_layer", {}).items())}
    else:
        key = "per_layer" if args.trace else "metrics"
        metrics = results[0].get(key, {})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # Turn a termination request into an exception, so that spawn() kills
    # the command it is waiting for before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
