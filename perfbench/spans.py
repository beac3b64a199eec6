"""In-memory span recorder for the benchmark's traced runs.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and
``parent`` the enclosing span (or ``None``).  The enclosing span is kept
in a :class:`contextvars.ContextVar`, so spans nest per thread and per
asyncio task: a request handled on the event loop never becomes the
parent of another task's work.  Spans stay in memory until the run ends
and :meth:`Tracer.summary` folds them into per-name totals.

Every span is recorded from outside the program, by wrapping a public
function or method with :meth:`Tracer.wrap` / :meth:`Tracer.wrap_async`
before the workload starts.
"""

from __future__ import annotations

import contextvars
import functools
import time
from typing import Any, Callable, Dict, List, Optional

Span = List[Any]  # [name, start, end, parent]


class Tracer:
    """Collects spans and plain counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """*fn* with every call recorded as a span named *name*."""
        current = self._current
        spans = self.spans

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            span: Span = [name, time.perf_counter(), 0.0, current.get()]
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                current.reset(token)
                spans.append(span)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def wrap_async(
        self, name_of: Callable[..., str], fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """Coroutine-function twin of :meth:`wrap`; the span name is
        ``name_of(*args)`` so one wrapper can label each request verb."""
        current = self._current
        spans = self.spans

        @functools.wraps(fn)
        async def timed(*args: Any, **kwargs: Any) -> Any:
            span: Span = [name_of(*args), time.perf_counter(), 0.0, current.get()]
            token = current.set(span)
            try:
                return await fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                current.reset(token)
                spans.append(span)

        return timed

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (summed duration) and
        ``self_s`` (duration minus the time its child spans cover)."""
        children: Dict[int, float] = {}
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                children[id(parent)] = children.get(id(parent), 0.0) + (
                    span[2] - span[1]
                )
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = span[2] - span[1]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - children.get(id(span), 0.0)
        return out

    def nesting_errors(self) -> List[str]:
        """Spans that do not lie inside their parent's interval."""
        bad = []
        for span in self.spans:
            parent = span[3]
            if parent is not None and not (
                parent[1] <= span[1] and span[2] <= parent[2]
            ):
                bad.append(f"{span[0]} escapes its parent {parent[0]}")
        return bad
