"""The harness's own span log: layer boundaries timed from outside.

This PR may not edit ``src/``, so every layer is measured by wrapping the
calls *into* it: :meth:`SpanLog.patched` swaps a public method (on an
instance the harness built, or on a class for objects the engines build
themselves) for a wrapper that records one span per call, and restores it
afterwards.  Spans nest by call order in the single measuring thread; a
layer's *self time* is its spans' duration minus the part their direct
children cover, so a wrapped ``MultiPassMerger.add_run`` called from inside
a wrapped ``SortMergeReduceTask.accept_segment`` is charged to the merger,
not twice.

Spans stay in memory while a run measures and are written as JSON lines
when it ends (:meth:`SpanLog.write_jsonl`).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["HarnessSpan", "SpanLog"]


@dataclass(slots=True)
class HarnessSpan:
    id: int
    parent: int | None
    name: str
    cell: str
    start: float
    end: float = 0.0
    children_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class SpanLog:
    """An in-memory list of nested spans for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[HarnessSpan] = []
        self._stack: list[HarnessSpan] = []
        #: Workload/cell identifier stamped on every span opened from now on.
        self.cell = ""

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[HarnessSpan]:
        parent = self._stack[-1] if self._stack else None
        sp = HarnessSpan(
            id=len(self.spans),
            parent=parent.id if parent is not None else None,
            name=name,
            cell=self.cell,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_s += sp.duration

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with one span named ``name`` recorded around each call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self, targets: list[tuple[Any, str, str]]) -> Iterator[None]:
        """Record spans around public methods for the duration of the block.

        ``targets`` lists ``(owner, method name, span name)``; ``owner`` is
        an instance or a class.  Every patch is undone on exit, also when
        the block raises.
        """
        with ExitStack() as stack:
            for owner, method, name in targets:
                had_own = method in vars(owner)
                original = getattr(owner, method)
                setattr(owner, method, self.wrap(original, name))
                if had_own:
                    stack.callback(setattr, owner, method, original)
                else:
                    stack.callback(delattr, owner, method)
            yield

    # -- queries ------------------------------------------------------------

    def since(self, mark: int) -> list[HarnessSpan]:
        """Spans opened after ``mark = len(log.spans)`` was taken."""
        return self.spans[mark:]

    @staticmethod
    def self_time(spans: list[HarnessSpan], name: str) -> float:
        return sum(sp.self_s for sp in spans if sp.name == name)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                row = asdict(sp) | {"self_s": sp.self_s}
                fh.write(json.dumps(row, sort_keys=True) + "\n")
