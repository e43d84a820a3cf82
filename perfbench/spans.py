"""Spans around the benchmark's calls into the ``dispersal`` layers.

A layer is a package module (``game``, ``solvers``, ``ess``,
``montecarlo``, ``cli``); a span name is ``<layer>.<function>``. Every
task of a pass runs inside a task span, and each call the task makes into
a layer is a child span of it, so a layer's self time is its spans'
duration minus the part their children cover. Spans are kept in memory
and written out once, when the run ends.

``Untraced`` has the same interface and only calls through, so the
untraced passes that give the end-to-end metrics carry no tracing cost.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from contextlib import contextmanager

LAYERS = ("game", "solvers", "ess", "montecarlo", "cli")


class Untraced:
    """Calls through without recording anything."""

    def call(self, name, fn, *args, counts=None, memory=False, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def task(self, task_id, label):
        yield

    def record_max(self, name, value) -> None:
        pass


class Tracer:
    """Records one span per layer call and per task.

    A span is ``[name, start, end, parent, task_id, counts, error]``:
    ``parent`` is the index of the enclosing task span (None for a task
    span), ``counts`` holds work counts measured at the call (such as
    terms = M * k for a kernel call), and ``error`` the exception type a
    call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.maxima: dict[str, float] = {}
        self._task: tuple[int, int] | None = None  # (span index, task id)

    def call(self, name, fn, *args, counts=None, memory=False, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``counts`` is a dict of work counts, or a callable that derives
        them from the result. With ``memory`` the span also records the
        peak bytes traced by ``tracemalloc`` during the call.
        """
        parent, task_id = self._task if self._task else (None, None)
        span = [name, 0.0, 0.0, parent, task_id, {}, None]
        self.spans.append(span)
        if memory:
            tracemalloc.start()
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[6] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            if memory:
                span[5]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        span[5].update(counts(result) if callable(counts) else counts or {})
        return result

    @contextmanager
    def task(self, task_id, label):
        span = [f"task.{label}", 0.0, 0.0, None, task_id, {}, None]
        self.spans.append(span)
        self._task = (len(self.spans) - 1, task_id)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._task = None

    def record_max(self, name, value) -> None:
        """Keep the largest finite ``value`` seen under ``name``."""
        if math.isfinite(value):
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        fields = ("name", "start", "end", "parent", "task", "counts", "error")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span[1]
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span[2] - span[1] - covered)
    return result
