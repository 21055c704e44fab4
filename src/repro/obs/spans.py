"""Lightweight nesting span timers.

``with span("runner.phase"):`` times a block and records the duration in
the active registry's ``span.<name>_seconds`` histogram; when an event
sink is installed it also emits a ``span`` event carrying the nesting
context (depth and enclosing span name).  Nesting is tracked on a
per-thread stack (two threads with open spans never see each other's
names), but deliberately *not* encoded into the metric name: a unit of
work timed inside a pool worker (no enclosing span) and the same unit
timed inside the serial loop (under ``engine.execute``) must land in
the same histogram, so serial and parallel runs report a
structurally identical metrics document.

When observability is disabled, :func:`span` returns a shared do-nothing
context manager — the warm path pays one boolean check and no clock
reads, which is what keeps instrumented runs within noise of bare ones.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from . import metrics
from .events import emit_event, get_event_sink


class _SpanStack(threading.local):
    """The names of this thread's open spans, innermost last."""

    def __init__(self) -> None:
        self.names: List[str] = []


_SPAN_STACK = _SpanStack()


class Span:
    """One timed block; use via :func:`span`, not directly."""

    __slots__ = ("name", "fields", "_start")

    def __init__(self, name: str, fields: Dict[str, Any]):
        self.name = name
        self.fields = fields
        self._start = 0.0

    def __enter__(self) -> "Span":
        _SPAN_STACK.names.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        stack = _SPAN_STACK.names
        stack.pop()
        metrics.observe(f"span.{self.name}_seconds", elapsed)
        if get_event_sink() is not None:
            emit_event(
                "span",
                name=self.name,
                seconds=elapsed,
                depth=len(stack),
                parent=stack[-1] if stack else None,
                **self.fields,
            )


class _NullSpan:
    """The disabled-path span: enter/exit do nothing at all."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str, **fields: Any):
    """A context manager timing a named block (no-op when disabled).

    ``fields`` are attached to the emitted event only, never to the
    metric name, so label cardinality cannot explode the registry.
    """
    if not metrics.enabled():
        return _NULL_SPAN
    return Span(name, fields)


def current_span() -> Optional[str]:
    """Name of this thread's innermost open span, if any (used by tests)."""
    stack = _SPAN_STACK.names
    return stack[-1] if stack else None
