"""Span tracing around the program's layer entry points, from outside.

A :class:`Tracer` replaces a function or method with a wrapper that opens a
span for each call: name, start, end, the span that caused it (its parent)
and a request id shared by every span of one request.  Parents are tracked
in a :class:`contextvars.ContextVar`, so spans nest correctly inside asyncio
tasks as well as in plain call stacks.

Spans live in memory and are written out once, by :meth:`Tracer.dump`, when
the run ends.  Wrappers registered with ``aggregate=True`` (per-event hot
paths such as simulator process steps) fold each call into per-name totals
instead of keeping a span record, so a million-event run stays small.

Self time is a span's duration minus the time its child spans cover.  The
children of one span never run concurrently in the wrapped code (a request
handler calls decode, cache probe, codec and encode one after another), so
the covered time is the sum of the children's durations, which each span
accumulates as its children close.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One open or closed span (see module doc)."""

    __slots__ = ("id", "parent", "name", "start", "end", "rid", "child_ns")

    def __init__(self, span_id: int, parent: Optional["Span"], name: str,
                 rid: Optional[str]) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.rid = rid if rid is not None else (parent.rid if parent else None)
        self.start = time.perf_counter_ns()
        self.end = 0
        self.child_ns = 0


class Tracer:
    """Records spans and per-name totals for wrapped callables."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._ids = itertools.count(1)
        #: closed, non-aggregated spans: (id, parent id, name, start, end, rid)
        self.spans: List[tuple] = []
        #: name -> [calls, total ns, self ns]
        self.totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        #: free-form counters filled by wrapper hooks
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, rid: Optional[str] = None) -> tuple:
        span = Span(next(self._ids), self._current.get(), name, rid)
        return span, self._current.set(span)

    def close(self, span: Span, token: Any, *, keep: bool = True) -> int:
        span.end = time.perf_counter_ns()
        self._current.reset(token)
        duration = span.end - span.start
        total = self.totals[span.name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - span.child_ns
        if span.parent is not None:
            span.parent.child_ns += duration
        if keep:
            self.spans.append((
                span.id,
                span.parent.id if span.parent is not None else 0,
                span.name, span.start, span.end, span.rid,
            ))
        return duration

    def span(self, name: str, rid: Optional[str] = None) -> "_SpanContext":
        """``with tracer.span("op", rid="7"):`` — a root or nested span."""
        return _SpanContext(self, name, rid)

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        hook: Optional[Callable[["Tracer", Span, tuple, Any], None]] = None,
        aggregate: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper (undone by :meth:`unwrap`).

        ``hook(tracer, span, args, result)`` runs after each successful call,
        inside the span's context, to record counts taken from arguments or
        results.
        """
        original = inspect.getattr_static(owner, attr)
        binder = type(original) if isinstance(
            original, (staticmethod, classmethod)) else None
        func = original.__func__ if binder is not None else original
        keep = not aggregate
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = tracer.open(name)
                try:
                    result = await func(*args, **kwargs)
                    if hook is not None:
                        hook(tracer, span, args, result)
                    return result
                finally:
                    tracer.close(span, token, keep=keep)
        else:
            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = tracer.open(name)
                try:
                    result = func(*args, **kwargs)
                    if hook is not None:
                        hook(tracer, span, args, result)
                    return result
                finally:
                    tracer.close(span, token, keep=keep)

        setattr(owner, attr, binder(wrapper) if binder is not None else wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_ms(self, name: str) -> float:
        return self.totals[name][1] / 1e6 if name in self.totals else 0.0

    def self_ms(self, name: str) -> float:
        return self.totals[name][2] / 1e6 if name in self.totals else 0.0

    def dump(self, path: Path) -> Path:
        """Write spans and totals as JSON (called once, at the end of a run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "rid"],
            "spans": self.spans,
            "totals": {k: list(v) for k, v in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(payload))
        return path


    @classmethod
    def load(cls, path: Path) -> "Tracer":
        """A tracer holding the spans, totals and counts :meth:`dump` wrote."""
        data = json.loads(Path(path).read_text())
        tracer = cls()
        tracer.spans = [tuple(span) for span in data["spans"]]
        for name, total in data["totals"].items():
            tracer.totals[name] = list(total)
        tracer.counts.update(data["counts"])
        return tracer

    def select(self, keep: Callable[[tuple], bool]) -> "Tracer":
        """A tracer whose totals cover only the recorded spans ``keep`` accepts.

        Self times are recomputed from the span records: each kept span's
        duration minus the durations of all its recorded children.
        """
        child_ns: Dict[int, int] = defaultdict(int)
        for span_id, parent, _, start, end, _ in self.spans:
            child_ns[parent] += end - start
        subset = Tracer()
        for span in self.spans:
            if not keep(span):
                continue
            span_id, _, name, start, end, _ = span
            subset.spans.append(span)
            total = subset.totals[name]
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - child_ns[span_id]
        return subset


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, rid: Optional[str]) -> None:
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self) -> Span:
        self.span, self.token = self.tracer.open(self.name, self.rid)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.close(self.span, self.token)
