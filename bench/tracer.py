"""Span recorder that wraps callables from the outside.

A :class:`Tracer` keeps every span in memory: its kind, start and end on
``perf_counter``, the span that caused it, and an optional amount (samples,
n**3, nnz) attached by the probe.  Each thread has its own span stack.  Work
handed to a thread pool is attached to the span that submitted it through
:meth:`Tracer.executor_class`, so spans opened in pool workers hang under the
caller, not under nothing.

Self time of a span is its duration minus the length of the union of its
children's intervals (clipped to the span), so children that overlap because
they ran on different threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    kind: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    amount: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class Tracer:
    """In-memory span recorder; thread-safe for spans opened in pool workers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, kind: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(kind, parent, time.perf_counter())
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(self, kind: str, fn, amount=None):
        """Return ``fn`` wrapped in a span of ``kind``.

        ``amount(args, kwargs, result)``, if given, sets the span's amount
        after the call; it runs outside the timed interval.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if amount is not None:
                span.amount = float(amount(args, kwargs, result))
            return result

        return traced

    def executor_class(self, base):
        """Subclass of a ``ThreadPoolExecutor`` whose tasks become child spans
        of the span that submitted them."""
        tracer = self

        class TracingExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    saved = getattr(tracer._local, "stack", None)
                    tracer._local.stack = []
                    span = tracer.open("pool.task", parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.close(span)
                        tracer._local.stack = saved

                return super().submit(task, *args, **kwargs)

        return TracingExecutor


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_map(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(id(span.parent), []).append(span)
    return out


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """Duration minus the union of the child intervals clipped to the span."""
    clipped = [(max(c.start, span.start), min(c.end, span.end))
               for c in children.get(id(span), ())]
    return span.duration - union_length((a, b) for a, b in clipped if b > a)


def outermost(spans, kinds) -> list[Span]:
    """Spans of the given kinds that have no ancestor of those kinds.

    Summing their durations counts nested calls of the same layer once.
    """
    kinds = set(kinds)
    return [s for s in spans if s.kind in kinds
            and not any(a.kind in kinds for a in s.ancestors())]
