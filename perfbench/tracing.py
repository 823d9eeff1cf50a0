"""Spans around the calls into each layer of mmwcluster, recorded from outside.

A wrapper is installed at the module attribute the caller looks up (for
example ``mmwcluster.analytical.marcum_q1``, which is what the analytical
engine calls), so the program itself is unchanged.  Each span records its
name, start, end, parent and a few tags.  Spans are kept in memory; the
worker writes them out once, after the traced body has finished.

Parents are tracked per thread.  A span opened on a pool thread whose own
stack is empty takes the innermost open span of the thread that installed
the tracer as its parent: the sweep pool is started from inside
``run_sweep`` on that thread, so its rows become children of ``run_sweep``.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    tags: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install wrappers, collect spans, restore the original attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self) -> tuple[int, int | None]:
        """Push a new span id on this thread's stack; return it and its parent."""
        with self._lock:
            stack = self._stacks.setdefault(threading.get_ident(), [])
            home = self._stacks.get(self._home)
            parent = stack[-1] if stack else (home[-1] if home else None)
            sid = next(self._ids)
            stack.append(sid)
        return sid, parent

    def _leave(self, span: Span):
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            self.spans.append(span)

    def wrap(self, module, attr: str, name: str, tag_fn=None):
        """Replace ``module.attr`` by a span-recording wrapper."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tags = tag_fn(args, kwargs) if tag_fn is not None else {}
            sid, parent = tracer._enter()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._leave(Span(sid, name, start, end, parent, tags))

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self._children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self._children.setdefault(span.parent, []).append(span)

    def named(self, name: str, **tags) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.tags.get(k) == v for k, v in tags.items())]

    def children(self, span: Span) -> list[Span]:
        return self._children.get(span.id, [])

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that direct child spans cover."""
        kids = [(c.start, c.end) for c in self.children(span)]
        return span.duration - _covered(kids, span.start, span.end)

    def total(self, spans: list[Span]) -> float:
        return math.fsum(s.duration for s in spans)

    def total_self(self, spans: list[Span]) -> float:
        return math.fsum(self.self_time(s) for s in spans)
