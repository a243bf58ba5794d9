"""Hierarchical span tracing for the Barracuda pipeline.

A :class:`Tracer` records a tree of timed **spans** (context-manager API)
and point-in-time **events** across the whole flow — DSL parse, OCTOPI
variant generation, the TCR decision algorithm, space enumeration, search
batches, and the evaluator stack.  Spans carry free-form attribute
dictionaries (the same counters :class:`~repro.surf.telemetry.SearchTelemetry`
aggregates), a monotonic start offset relative to the tracer's epoch, and
thread/process ids so traces from worker threads interleave correctly.

Design rules:

* **Zero overhead when off.**  The ambient tracer defaults to
  :data:`NULL_TRACER`, whose ``span()`` returns one shared no-op handle —
  no ``Span`` objects, no clock reads, no list growth.  Hot call sites
  additionally guard attribute *computation* behind ``tracer.enabled``.
* **Determinism-neutral.**  Tracing only reads pipeline state; span ids and
  timestamps never feed a fingerprint, a checkpoint, or an rng stream, so
  tier-1 results are bitwise identical with tracing on or off.
* **Thread/process safety.**  Span ids come from a lock-protected counter;
  the open-span stack is thread-local (parentage follows each thread's own
  nesting); every span records ``os.getpid()``/``threading.get_ident()``.

The ambient tracer is installed with :func:`use_tracer` (a context manager
that restores the previous tracer on exit) and read with
:func:`get_tracer`; library code never needs a tracer argument threaded
through its signatures.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "use_tracer",
]


@dataclass
class Span:
    """One finished span (or instant event) of a trace.

    ``start_s`` is seconds since the owning tracer's epoch; ``duration_s``
    is ``None`` for instant events.  ``attributes`` holds whatever the
    instrumented code attached (batch counters, sizes, names).
    """

    name: str
    category: str = ""
    span_id: int = 0
    parent_id: int | None = None
    pid: int = 0
    tid: int = 0
    start_s: float = 0.0
    duration_s: float | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def is_event(self) -> bool:
        return self.duration_s is None

    def set(self, **attributes) -> None:
        """Attach attributes to the span (inside its ``with`` block)."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict:
        return asdict(self)


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_category", "_attributes", "span")

    def __init__(
        self, tracer: "Tracer", name: str, category: str, attributes: dict
    ):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attributes = attributes
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer._begin(
            self._name, self._category, self._attributes
        )
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._end(self.span, failed=exc_type is not None)
        return False


class Tracer:
    """Collects spans/events for one run.

    Parameters
    ----------
    clock:
        Monotonic time source (seconds).  Injectable for deterministic
        golden-file tests; defaults to :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._next_id = 1
        self._finished: list[Span] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _begin(self, name: str, category: str, attributes: dict) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            category=category,
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            pid=os.getpid(),
            tid=threading.get_ident(),
            start_s=self._now(),
            duration_s=None,
            attributes=dict(attributes),
        )
        stack.append(span)
        return span

    def _end(self, span: Span, failed: bool = False) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exit — still unwind correctly
            stack.remove(span)
        if failed:
            span.attributes.setdefault("error", True)
        span.duration_s = max(0.0, self._now() - span.start_s)
        with self._lock:
            self._finished.append(span)

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "", **attributes) -> _SpanContext:
        """Open a timed span: ``with tracer.span("search.run") as sp: ...``"""
        return _SpanContext(self, name, category, attributes)

    def event(self, name: str, category: str = "", **attributes) -> Span:
        """Record an instant event under the current open span (if any)."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            category=category,
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            pid=os.getpid(),
            tid=threading.get_ident(),
            start_s=self._now(),
            duration_s=None,
            attributes=dict(attributes),
        )
        with self._lock:
            self._finished.append(span)
        return span

    def add_attributes(self, **attributes) -> None:
        """Attach attributes to this thread's innermost open span."""
        stack = self._stack()
        if stack:
            stack[-1].attributes.update(attributes)

    def finished(self) -> tuple[Span, ...]:
        """All recorded spans/events (completion order; events immediate)."""
        with self._lock:
            return tuple(self._finished)


class _NullSpan:
    """The shared no-op span handle: context manager and attribute sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op, nothing is allocated.

    ``span()`` always returns the same module-level handle, so tracing an
    untraced run costs one attribute lookup and one call per instrumented
    site.  Call sites with non-trivial attribute computation should guard
    it behind ``if tracer.enabled``.
    """

    enabled = False

    def span(self, name: str, category: str = "", **attributes) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, category: str = "", **attributes) -> None:
        return None

    def add_attributes(self, **attributes) -> None:
        pass

    def finished(self) -> tuple[Span, ...]:
        return ()


NULL_TRACER = NullTracer()

_ambient: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The ambient tracer (the :data:`NULL_TRACER` no-op by default)."""
    return _ambient


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Install ``tracer`` as the ambient tracer for the dynamic extent."""
    global _ambient
    previous = _ambient
    _ambient = tracer
    try:
        yield tracer
    finally:
        _ambient = previous
