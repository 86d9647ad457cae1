"""In-memory span tracer that wraps functions at the attribute callers look up.

The tracer replaces ``owner.attr`` with a wrapper that records a span (name,
parent, start, end) around each call, and puts every attribute back when the
``with`` block ends.  Patching is done where the caller looks the function up:
``deepkt.harness`` imports ``backward`` by name, so ``deepkt.harness.backward``
has to be patched as well as ``deepkt.autodiff.backward``.

Self time is a span's duration minus the time covered by its child spans.
Spans are kept in flat integer arrays while tracing and written out once, at
the end, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import tracemalloc
from array import array
from contextlib import contextmanager

_MISSING = object()


class SpanStats:
    """Aggregates for one span name over the current phase."""

    __slots__ = ("calls", "busy_ns", "self_ns", "counted", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.counted = 0      # growth of the span's counter (e.g. tensors created)
        self.peak_bytes = 0   # tracemalloc peak, for names in Tracer.alloc_names


class Tracer:
    """Context manager that patches functions and records nested spans."""

    def __init__(self, alloc_names=()):
        self.alloc_names = frozenset(alloc_names)
        self.paused = False
        self.stats = {}
        self._patches = []
        self._names = []
        self._name_ids = {}
        # one entry per open span: [name, span index, start ns, child ns]
        self._stack = []
        self._span_name = array("q")
        self._span_parent = array("q")
        self._span_start = array("q")
        self._span_end = array("q")

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        original = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, label=None, counter=None):
        """Record a span named ``name`` (plus ``.label(*args)``) per call.

        ``counter``, a function of no arguments, is read on entry and exit;
        the span's stats sum the difference in ``counted``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            before = counter() if counter else 0
            tracer._enter(full)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(counter() - before if counter else 0)

        self._patch(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def untraced(self):
        """Let the wrappers call straight through inside the block."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        if name in self.alloc_names:
            tracemalloc.start()
        parent = self._stack[-1][1] if self._stack else -1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self._span_name)
        self._span_name.append(name_id)
        self._span_parent.append(parent)
        self._span_end.append(0)
        start = time.perf_counter_ns()
        self._span_start.append(start)
        self._stack.append([name, index, start, 0])

    def _exit(self, counted):
        end = time.perf_counter_ns()
        name, index, start, child_ns = self._stack.pop()
        self._span_end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.busy_ns += duration
        st.self_ns += duration - child_ns
        st.counted += counted
        if name in self.alloc_names:
            st.peak_bytes = max(st.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def take(self):
        """Return the aggregates gathered since the last call and reset them."""
        stats, self.stats = self.stats, {}
        return stats

    def write(self, path, meta):
        """Write ``meta`` and every recorded span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "names": self._names}) + "\n")
            for i in range(len(self._span_name)):
                fh.write(f"[{self._span_name[i]},{self._span_parent[i]},"
                         f"{self._span_start[i]},{self._span_end[i]}]\n")

    @property
    def span_count(self):
        return len(self._span_name)


def total(stats, prefix, field="busy_ns"):
    """Sum ``field`` over span names equal to ``prefix`` or below ``prefix.``."""
    return sum(getattr(st, field) for name, st in stats.items()
               if name == prefix or name.startswith(prefix + "."))
