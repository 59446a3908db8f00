"""Out-of-band tracer: spans and counts recorded around the package's public
functions, from outside the package.

``Tracer.wrap`` replaces a module attribute or class method with a wrapper.
The package looks these names up at call time (``agents`` calls
``gaen.match_observations``, ``scenario`` calls ``radio.broadcast_step``,
and a module's own functions call each other through its globals), so no
file of the package changes.  ``Tracer.close`` puts every original back.

Each wrapper keeps a span (id, name, start, end, charged end, parent id) in
memory and, after the call returns, lets a count hook record work done at
the same boundary.  The hook runs after ``end`` and before ``charged_end``:
its time is charged to the wrapped call's interval as seen by the parent,
so it never inflates the caller's self time.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

CountHook = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    charged_end: float
    parent: int | None


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.sets: defaultdict[str, set] = defaultdict(set)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str, count: CountHook | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            start = perf_counter()
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            self.spans.append(Span(span_id, name, start, end, perf_counter(), parent))
            return result

        self._patch(owner, attr, traced)

    def count_calls(self, owner: object, attr: str, key: str, under: str | None = None) -> None:
        """Count calls of ``owner.attr``, or only those made while span
        ``under`` is innermost.  No span is kept: this is for functions
        called too often to trace.
        """
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            if under is None or self.current() == under:
                counts[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_stats(spans: list[Span]) -> dict[str, SpanStats]:
    """Per-name calls, inclusive time, and self time.

    A span's self time is its duration minus the charged intervals of its
    direct children.  Children run strictly inside their parent on the same
    thread, so their intervals never overlap each other.
    """
    child_time: defaultdict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.charged_end - s.start
    stats: defaultdict[str, SpanStats] = defaultdict(SpanStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += s.end - s.start - child_time[s.id]
    return dict(stats)


def child_total(spans: list[Span], name: str, parent_name: str) -> float:
    """Inclusive time of ``name`` spans whose direct parent is a ``parent_name`` span."""
    parents = {s.id for s in spans if s.name == parent_name}
    return sum(s.end - s.start for s in spans if s.name == name and s.parent in parents)
