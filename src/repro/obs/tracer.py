"""Deterministic span tracing with logical clocks.

Every engine in this repository is deterministic: same job, same seed,
same fault plan — same bytes out.  Wall-clock timestamps would destroy
that property the moment they entered a trace, so spans here are placed
on a **logical clock**: a counter that advances by one tick when a span
opens and by the span's declared *cost* (records processed, or a byte
proxy) when it closes.  The resulting timeline is a pure function of the
work performed, which is what makes traces byte-comparable across the
Serial/Thread/MP executors.  Wall-clock durations are still captured,
but only as *advisory* span attributes (:attr:`Span.wall_s`) that
exporters keep clearly separated from the logical schedule.

Parallel execution and determinism are reconciled the same way the
counters are: kernels running in worker processes record spans on their
own task-local :class:`Tracer` (clock starting at zero), ship the
picklable export back with the task result, and the coordinator
:meth:`Tracer.absorb`\\ s each export *in task order* — rebasing the
local ticks onto the global clock.  The merged trace is therefore
identical whether the kernels ran inline, on threads, or on a fork pool.

The default tracer everywhere is :data:`NULL_TRACER`, whose methods are
no-ops returning a shared null span; instrumentation sites pay one
attribute lookup and one call at *task/phase* granularity (never inside
per-record loops), keeping the subsystem zero-overhead when off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Span",
    "TraceEvent",
    "TraceExport",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "byte_cost",
    "task_tracer",
]

#: Approximate framed bytes per record; converts byte-denominated work
#: (spill/merge/shuffle traffic) into the record-denominated tick unit.
_BYTES_PER_TICK = 64


def byte_cost(nbytes: int) -> int:
    """Logical cost of moving ``nbytes`` (>= 1 tick)."""
    return max(1, int(nbytes) // _BYTES_PER_TICK)


@dataclass(slots=True)
class Span:
    """One closed interval of attributed work on the logical clock."""

    name: str
    cat: str
    t0: int
    t1: int
    node: str = ""
    task: str = ""
    #: Advisory wall-clock duration (seconds); never part of determinism
    #: comparisons and exported separately from the logical schedule.
    wall_s: float = 0.0
    args: dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True)
class TraceEvent:
    """One instantaneous occurrence (retry, crash, spill threshold, ...)."""

    name: str
    cat: str
    ts: int
    node: str = ""
    task: str = ""
    args: dict[str, Any] = field(default_factory=dict)


#: The picklable wire form a worker-side tracer ships to the coordinator:
#: ``(spans, events, clock)``.
TraceExport = tuple[list[Span], list[TraceEvent], int]


class _SpanHandle:
    """Context manager recording one span on its tracer."""

    __slots__ = ("_tracer", "_span", "_cost", "_wall0")

    def __init__(self, tracer: "Tracer", span: Span, cost: int) -> None:
        self._tracer = tracer
        self._span = span
        self._cost = cost

    def set_cost(self, cost: int) -> None:
        """Declare the span's logical cost (clock advance at close)."""
        self._cost = max(1, int(cost))

    def set(self, **args: Any) -> None:
        """Attach deterministic attributes to the span."""
        self._span.args.update(args)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        tracer._clock += 1
        self._span.t0 = tracer._clock
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        span = self._span
        span.wall_s = time.perf_counter() - self._wall0
        tracer._clock += self._cost
        span.t1 = tracer._clock
        tracer.spans.append(span)


class _NullSpan:
    """Shared do-nothing span handle returned by :class:`NullTracer`."""

    __slots__ = ()

    def set_cost(self, cost: int) -> None:
        pass

    def set(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans and events on one logical clock."""

    __slots__ = ("spans", "events", "_clock")

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._clock = 0

    @property
    def clock(self) -> int:
        return self._clock

    def span(
        self,
        name: str,
        cat: str = "",
        *,
        node: str = "",
        task: str = "",
        cost: int = 1,
        **args: Any,
    ) -> _SpanHandle:
        """Open a span; use as ``with tracer.span(...) as sp``.

        ``cost`` (overridable via ``sp.set_cost``) is how far the logical
        clock advances when the span closes — records processed where
        known, :func:`byte_cost` of the bytes moved otherwise.
        """
        return _SpanHandle(
            self, Span(name, cat, 0, 0, node, task, 0.0, args), max(1, cost)
        )

    def event(
        self,
        name: str,
        cat: str = "",
        *,
        node: str = "",
        task: str = "",
        **args: Any,
    ) -> None:
        """Record an instantaneous event at the next clock tick."""
        self._clock += 1
        self.events.append(TraceEvent(name, cat, self._clock, node, task, args))

    def add_span(
        self,
        name: str,
        cat: str,
        t0: int,
        t1: int,
        *,
        node: str = "",
        task: str = "",
        wall_s: float = 0.0,
        **args: Any,
    ) -> None:
        """Append a span over an already-elapsed clock interval.

        Used for phase envelopes: the engine reads the clock at phase
        entry and exit and records the interval without advancing the
        clock itself.
        """
        self.spans.append(Span(name, cat, t0, max(t1, t0 + 1), node, task, wall_s, args))

    # -- composition ----------------------------------------------------------

    def export(self) -> TraceExport:
        """The picklable form: ``(spans, events, clock)``."""
        return (self.spans, self.events, self._clock)

    def absorb(self, trace: TraceExport | None, *, args: dict[str, Any] | None = None) -> None:
        """Splice a task-local export onto this clock, preserving order.

        The child's ticks (``1..clock``) are rebased to start at the
        current global clock; the global clock then advances by the
        child's total.  Called in deterministic task order by the
        coordinator, this yields identical merged traces across
        executors.  ``args`` (e.g. ``{"attempt": 2}``) is merged into
        every absorbed span and event.
        """
        if not trace:
            return
        spans, events, clock = trace
        base = self._clock
        for s in spans:
            s.t0 += base
            s.t1 += base
            if args:
                s.args.update(args)
            self.spans.append(s)
        for e in events:
            e.ts += base
            if args:
                e.args.update(args)
            self.events.append(e)
        self._clock = base + clock


class NullTracer:
    """The zero-overhead default: every operation is a no-op."""

    __slots__ = ()

    enabled = False
    spans: tuple = ()
    events: tuple = ()
    clock = 0

    def span(self, *args: Any, **kwargs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, *args: Any, **kwargs: Any) -> None:
        pass

    def add_span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def export(self) -> None:
        return None

    def absorb(self, trace: Any, *, args: Any = None) -> None:
        pass


NULL_TRACER = NullTracer()


def task_tracer(on: bool) -> Tracer | NullTracer:
    """A fresh task-local tracer when tracing is on, the null one otherwise.

    The kernel-side entry point: worker processes call this with the
    ``trace`` flag from the job context, record task spans locally, and
    return ``tracer.export()`` with the task result.
    """
    return Tracer() if on else NULL_TRACER
