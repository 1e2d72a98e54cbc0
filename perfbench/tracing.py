"""Spans recorded around the benchmark's calls into the library.

Only the benchmark's own code is instrumented: every call into a library
module goes through ``tracer.call(name, fn, *args)``.  With tracing off the
``NullTracer`` just makes the call.  The ``SpanTracer`` keeps every span in
memory (name, start, end, parent, op id, error flag) and writes them out
once, when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def begin_op(self, op_id, name):
        pass

    def end_op(self, error=False):
        pass


class SpanTracer:
    """Tracing on: one span per call, parented to the op being run."""

    enabled = True

    def __init__(self):
        # Each span: [name, start_ns, end_ns, parent_index, op_id, error]
        self.spans = []
        self._stack = []
        self._op_id = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, self._op_id, False])
        self._stack.append(index)
        return index

    def _close(self, index, error):
        span = self.spans[index]
        span[2] = perf_counter_ns()
        span[5] = error
        self._stack.pop()

    def call(self, name, fn, *args):
        index = self._open(name)
        try:
            result = fn(*args)
        except BaseException:
            self._close(index, True)
            raise
        self._close(index, False)
        return result

    def begin_op(self, op_id, name):
        self._op_id = op_id
        self._open(name)

    def end_op(self, error=False):
        self._close(self._stack[-1], error)
        self._op_id = None

    def write(self, path):
        """Write the spans as JSON lines (times in ns from the first span)."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op_id, error) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start_ns": start - base,
                    "end_ns": end - base,
                    "parent": parent,
                    "op": op_id,
                    "error": error,
                }
                handle.write(json.dumps(record) + "\n")


def self_times(spans):
    """Self time of each span in seconds: its duration minus its children's.

    The run is single-threaded, so the children of a span never overlap and
    their durations can simply be subtracted.
    """
    own = [(end - start) for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return [t / 1e9 for t in own]


def layer_totals(spans):
    """Per span name: (calls, busy seconds as summed self time, errors)."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        calls, busy, errors = totals.get(span[0], (0, 0.0, 0))
        totals[span[0]] = (calls + 1, busy + own, errors + (1 if span[5] else 0))
    return totals
