"""In-memory spans around calls into pbzlogic, installed from outside.

A span is [id, parent id, name, start, end, busy, child]: `busy` is the
time spent inside the call (for a generator, summed over its resumptions)
and `child` the part of it covered by nested spans and counted calls, so
self time is busy - child.  Hot leaf methods get no span of their own;
they only add to a call count, a time total and their caller's `child`.
Nothing here is imported by the program.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

ID, PARENT, NAME, START, END, BUSY, CHILD = range(7)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.times: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else -1
        span = [len(self.spans), parent, name, 0.0, 0.0, 0.0, 0.0]
        self.spans.append(span)
        return span

    def _charge_caller(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][CHILD] += seconds

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called `name`."""
        span = self._open(name)
        self._stack.append(span)
        span[START] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = self.clock()
            self._stack.pop()
            span[BUSY] = span[END] - span[START]
            self._charge_caller(span[BUSY])

    def wrap(self, name: str | Callable[..., str], fn: Callable,
             after: Callable | None = None) -> Callable:
        """fn with a span per call; `name` may be computed from the arguments,
        and `after(result)` may add counts once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            result = self.call(label, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable, counter: str | None = None) -> Callable:
        """A generator function whose resumptions share one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    self._stack.append(span)
                    t0 = self.clock()
                    if not span[START]:
                        span[START] = t0
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[END] = self.clock()
                        self._stack.pop()
                        span[BUSY] += span[END] - t0
                        self._charge_caller(span[END] - t0)
                    if counter:
                        self.counts[counter] += 1
                    yield item

            return resumed()

        return traced

    def wrap_counted(self, name: str, fn: Callable) -> Callable:
        """A leaf function that gets a call count and a time total, no spans."""
        clock, counts, times = self.clock, self.counts, self.times

        @functools.wraps(fn)
        def counted(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                counts[name] += 1
                times[name] += dt
                self._charge_caller(dt)

        return counted


def summarize(spans: list[list], counts: dict[str, float],
              times: dict[str, float]) -> dict:
    """Per-name busy time, self time and call count, and per-layer self time.

    A name's layer is the part before its first dot.  Counted leaves are
    charged to their own layer, and already excluded from their callers'
    self time through `child`.
    """
    by_name: dict[str, dict] = {}
    layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        entry = by_name.setdefault(span[NAME], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        own = span[BUSY] - span[CHILD]
        entry["busy_s"] += span[BUSY]
        entry["self_s"] += own
        entry["calls"] += 1
        layer_self[span[NAME].split(".", 1)[0]] += own
    for name, seconds in times.items():
        by_name[name] = {"busy_s": seconds, "self_s": seconds, "calls": int(counts[name])}
        layer_self[name.split(".", 1)[0]] += seconds
    return {"by_name": by_name, "layer_self_s": dict(layer_self)}
