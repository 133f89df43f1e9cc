"""Discrete-event simulation kernel.

A minimal, deterministic process-based kernel in the simpy style: the
event queue is a heap of ``(time, seq, callback)``; *processes* are Python
generators that yield request objects (:class:`Timeout`,
:class:`repro.simulator.resources.Use`, :class:`Gate` waits...), each of
which arranges for the process to be resumed.

Determinism matters for the benchmarks: identical specs must produce
identical timelines, so ties in time break on insertion sequence, never on
object identity.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Protocol

__all__ = ["Simulator", "Request", "Timeout", "Gate", "Mailbox"]

#: A process is a generator yielding Request objects; ``send`` receives the
#: request's completion value.
Process = Generator["Request", Any, None]


class Request(Protocol):
    """Anything a process may yield: arranges a future ``resume(value)``."""

    def start(self, sim: "Simulator", resume: Callable[[Any], None]) -> None: ...


class Simulator:
    """The event loop: a clock plus a deterministic pending-event heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    # -- scheduling ---------------------------------------------------------

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute ``time`` (>= now)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn))

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.at(self.now + delay, fn)

    # -- processes -----------------------------------------------------------

    def spawn(self, process: Process) -> None:
        """Start driving a process generator from the current time."""

        def step(value: Any = None) -> None:
            try:
                request = process.send(value)
            except StopIteration:
                return
            request.start(self, step)

        # First step runs via the event queue so spawn order, not call
        # stack depth, determines interleaving.
        self.after(0.0, step)

    # -- running ---------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains (or ``until``); returns now."""
        while self._heap:
            time, _seq, fn = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            fn()
        return self.now


class Timeout:
    """Resume the process after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def start(self, sim: Simulator, resume: Callable[[Any], None]) -> None:
        sim.after(self.delay, lambda: resume(None))


class Gate:
    """A one-shot broadcast condition (e.g. "all map tasks finished").

    Processes yield ``gate.wait()``; ``fire()`` releases every current and
    future waiter.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.fired = False
        self._waiters: list[Callable[[Any], None]] = []

    def fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(None)

    def wait(self) -> "Request":
        gate = self

        class _Wait:
            __slots__ = ()

            def start(self, sim: Simulator, resume: Callable[[Any], None]) -> None:
                if gate.fired:
                    sim.after(0.0, lambda: resume(None))
                else:
                    gate._waiters.append(resume)

        return _Wait()


class Mailbox:
    """An unbounded FIFO channel between processes.

    Producers call :meth:`put`; a consumer process yields :meth:`get` and
    receives the next item (waiting if empty).  One consumer at a time —
    enough for the shuffle queues that use it.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._items: list[Any] = []
        self._head = 0
        self._waiter: Callable[[Any], None] | None = None
        self.closed = False

    def __len__(self) -> int:
        return len(self._items) - self._head

    def put(self, item: Any) -> None:
        if self.closed:
            raise RuntimeError(f"mailbox {self.name!r} is closed")
        if self._waiter is not None:
            resume, self._waiter = self._waiter, None
            resume(item)
        else:
            self._items.append(item)

    def close(self) -> None:
        """No more puts; a blocked getter receives ``None``."""
        self.closed = True
        if self._waiter is not None:
            resume, self._waiter = self._waiter, None
            resume(None)

    def get(self) -> Request:
        box = self

        class _Get:
            __slots__ = ()

            def start(self, sim: Simulator, resume: Callable[[Any], None]) -> None:
                if box._head < len(box._items):
                    item = box._items[box._head]
                    box._head += 1
                    if box._head > 64 and box._head * 2 > len(box._items):
                        del box._items[: box._head]
                        box._head = 0
                    sim.after(0.0, lambda: resume(item))
                elif box.closed:
                    sim.after(0.0, lambda: resume(None))
                else:
                    if box._waiter is not None:
                        raise RuntimeError("mailbox already has a waiting consumer")
                    box._waiter = resume

        return _Get()

