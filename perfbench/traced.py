"""Run one pbzlogic CLI command in this process with spans around its layers.

    python3 perfbench/traced.py --spans OUT.json -- classify --input t.csv

The wrappers are installed from outside, on the module attributes the
CLI looks up at call time; a name the program no longer has is skipped
and simply reports zero.  Stdout and the exit code are the command's own.
Spans stay in memory until the command returns, then go to OUT.json with
the time spent writing them, which the caller subtracts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracing import Tracer, summarize

AXIOM_GROUPS = {3: "distributivity", 2: "binary", 1: "unary", 0: "unary"}


def install(tracer: Tracer) -> None:
    from pbzlogic import axioms, cli, logics, sweep
    from pbzlogic.orthopair import Orthopair
    from pbzlogic.universe import KnowledgeBase

    def patch(owners, attr, wrapped):
        originals = [getattr(o, attr) for o in owners if hasattr(o, attr)]
        if originals:
            replacement = wrapped(originals[0])
            for owner in owners:
                if hasattr(owner, attr):
                    setattr(owner, attr, replacement)

    def span(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    def classmethod_span(name):
        return lambda method: classmethod(tracer.wrap(name, method.__func__))

    def add(counter, amount):
        tracer.counts[counter] += amount

    def axiom_group(ident):
        return AXIOM_GROUPS[axioms.AXIOMS[ident].arity]

    patch([cli], "load_table", span("cli.load_table"))
    patch([cli], "build_classification_report", span("cli.build_report"))
    patch([cli], "render_json", span("cli.render_json"))
    patch([KnowledgeBase], "from_attributes", classmethod_span("universe.from_attributes"))
    patch([Orthopair], "from_names", classmethod_span("orthopair.from_names"))
    patch([cli], "classify", span("sevenvalued.classify"))
    patch([cli], "seven_partition", span("sevenvalued.seven_partition"))
    patch([cli, logics], "evaluate_logic", span("logics.evaluate_logic"))
    patch([cli], "validate_logic", span(
        "logics.validate_logic", lambda r: add("logics.concepts_checked", r.checked)))
    patch([cli], "all_knowledge_bases", lambda fn: tracer.wrap_generator(
        "sweep.all_knowledge_bases", fn, counter="sweep.kbs"))
    patch([axioms, sweep], "all_orthopair_masks", lambda fn: tracer.wrap_generator(
        "sweep.all_orthopair_masks", fn))
    patch([axioms], "standard_ops", span("axioms.standard_ops"))
    patch([axioms], "check_axiom", lambda fn: tracer.wrap(
        lambda kb, *a, **k: f"axioms.{axiom_group(a[0] if a else k['axiom_id'])}", fn,
        lambda r: add(f"axioms.cases.{axiom_group(r.axiom)}", r.cases_checked)))
    for leaf in ("upper_mask", "lower_mask"):
        patch([KnowledgeBase], leaf, lambda fn, n=leaf: tracer.wrap_counted(f"universe.{n}", fn))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- <pbzlogic args>")
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    t0 = tracer.clock()
    from pbzlogic import cli

    import_s = tracer.clock() - t0
    install(tracer)
    code = tracer.call("cli.main", cli.main, argv)
    sys.stdout.flush()

    done = time.perf_counter()
    with open(args.spans, "w", encoding="utf-8") as out:
        json.dump({
            "exit_code": code,
            "import_s": import_s,
            "summary": summarize(tracer.spans, tracer.counts, tracer.times),
            "counts": tracer.counts,
            "spans": tracer.spans,
        }, out)
        out.write("\n")
        json.dump({"write_s": time.perf_counter() - done}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
