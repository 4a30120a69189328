"""Outside-in span tracer for the protofed benchmark.

Functions are wrapped where the program looks them up (module attributes of
``protofed.federation`` and ``protofed.cli``), so nothing under ``src/``
knows it is traced. Every call becomes a span ``[name, start, end, parent,
run]`` kept in memory; each thread has its own span list, stack and counters,
so the ablate thread pool needs no locking on the hot path. Self time is
computed once, after the run: a span's duration minus the durations of its
direct children.

Spans are timed with the thread's own CPU clock (``time.thread_time``), not
wall time. With one thread the two agree closely; under the ablate thread
pool, wall-clock spans would also count the time a thread waits for the
interpreter lock, so a layer's self time would show where the contention
fell instead of what the layer costs.

A wrapped name that the program no longer defines is recorded as absent
instead of failing, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.absent: list[str] = []
        self.count_errors: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[list, list, defaultdict]] = []
        self._runs = 0

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [], defaultdict(int))  # spans, open stack, counts
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self, name: str, new_run: bool = False) -> list:
        spans, stack, _ = self._state()
        parent = stack[-1] if stack else None
        if new_run:
            with self._lock:
                self._runs += 1
                run = self._runs
        else:
            run = parent[4] if parent is not None else 0
        span = [name, self.clock(), None, parent, run]
        spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = self.clock()
        stack = self._state()[1]
        if stack[-1] is not span:
            raise RuntimeError(f"span {span[0]} closed out of order")
        stack.pop()

    def add(self, key: str, n: int) -> None:
        self._state()[2][key] += n

    def wrap(self, name: str, fn, count=None, new_run: bool = False):
        """Return fn wrapped in a span. ``count`` is (fn, keys): fn(args,
        result) returns one int per key, added to ``f"{name}.{key}"``."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name, new_run)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if count is not None:
                try:
                    counted = count[0](args, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.count_errors.setdefault(name, repr(exc))
                else:
                    for key, n in zip(count[1], counted):
                        self.add(f"{name}.{key}", n)
            return result

        return traced

    def install(self, module, attr: str, name: str, count=None, new_run=False) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return
        setattr(module, attr, self.wrap(name, fn, count, new_run))

    def spans(self) -> list[list]:
        out = []
        for spans, _, _ in self._threads:
            out.extend(spans)
        return out

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for _, _, counts in self._threads:
            for key, n in counts.items():
                total[key] += n
        return dict(total)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s} over every finished span."""
        spans = self.spans()
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent is not None and end is not None:
                child_time[id(parent)] += end - start
        out: dict[str, dict[str, float]] = {}
        for span in spans:
            name, start, end = span[0], span[1], span[2]
            if end is None:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(id(span), 0.0)
        return out

    def write_spans(self, path) -> None:
        """Write every span as one TSV line: index, name, start, end,
        parent index (-1 for a root), run id, thread index."""
        index: dict[int, int] = {}
        rows = []
        for thread, (spans, _, _) in enumerate(self._threads):
            for span in spans:
                index[id(span)] = len(rows)
                rows.append((span, thread))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun\tthread\n")
            for i, (span, thread) in enumerate(rows):
                name, start, end, parent, run = span
                parent_idx = -1 if parent is None else index[id(parent)]
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent_idx}\t{run}\t{thread}\n")


def self_test() -> list[str]:
    """Check the self-time arithmetic on nested spans with a scripted clock.

    Spans: outer [0, 10] holds a [1, 5] and b [6, 8]; a holds c [2, 3].
    Expected self times: outer 10-4-2 = 4, a 4-1 = 3, b 2, c 1. A second
    outer call through a wrapped function adds a new run id. Returns a list
    of failure messages (empty when the tracer is right).
    """
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0, 20.0, 21.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer", new_run=True)
    a = tracer.begin("a")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(outer)

    class Namespace:
        @staticmethod
        def leaf(x):
            return [x, x]

    tracer.install(Namespace, "leaf", "leaf", count=(lambda args, res: (len(res),), ("items",)))
    tracer.install(Namespace, "missing", "missing")
    Namespace.leaf(1)

    failures = []
    expected = {"outer": 4.0, "a": 3.0, "b": 2.0, "c": 1.0, "leaf": 1.0}
    totals = tracer.layer_totals()
    for name, want in expected.items():
        got = totals.get(name, {}).get("self_s")
        if got != want:
            failures.append(f"tracer self-test: self time of {name} is {got}, expected {want}")
    if [s[4] for s in tracer.spans()] != [1, 1, 1, 1, 0]:
        failures.append("tracer self-test: run ids not inherited from the parent span")
    if tracer.counts() != {"leaf.items": 2}:
        failures.append(f"tracer self-test: counts {tracer.counts()}")
    if tracer.absent != ["missing"]:
        failures.append(f"tracer self-test: absent {tracer.absent}")
    return failures
