"""Task-timeline recording: who ran what, when, in which phase.

The paper's Fig. 2(a) and Fig. 3 plot, against time, the number of running
tasks in each of the four operations of a sort-merge job: map, shuffle,
merge and reduce.  Pipelines record task spans into a :class:`TaskLog`;
:meth:`TaskLog.counts_series` bins them into those plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.series import bin_overlap, bucket_edges

__all__ = ["TaskSpan", "TaskLog", "PHASES"]

PHASES = ("map", "shuffle", "merge", "reduce")


@dataclass(frozen=True, slots=True)
class TaskSpan:
    """One task's (or operation's) lifetime."""

    phase: str
    start: float
    end: float
    node: str = ""
    task_id: int = -1


class TaskLog:
    """Accumulates task spans during a simulated run."""

    def __init__(self) -> None:
        self.spans: list[TaskSpan] = []
        self._open: dict[tuple[str, int, str], float] = {}

    # -- recording -----------------------------------------------------------

    def record(self, phase: str, start: float, end: float, *, node: str = "", task_id: int = -1) -> None:
        if end < start:
            raise ValueError("span ends before it starts")
        self.spans.append(TaskSpan(phase, start, end, node, task_id))

    def open(self, phase: str, task_id: int, node: str, now: float) -> None:
        self._open[(phase, task_id, node)] = now

    def close(self, phase: str, task_id: int, node: str, now: float) -> None:
        start = self._open.pop((phase, task_id, node))
        self.record(phase, start, now, node=node, task_id=task_id)

    # -- queries ---------------------------------------------------------------

    def phase_spans(self, phase: str) -> list[TaskSpan]:
        return [s for s in self.spans if s.phase == phase]

    def phase_window(self, phase: str) -> tuple[float, float]:
        """(first start, last end) over the phase's spans."""
        spans = self.phase_spans(phase)
        if not spans:
            raise ValueError(f"no spans for phase {phase!r}")
        return min(s.start for s in spans), max(s.end for s in spans)

    def makespan(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    def counts_series(
        self, bucket: float, phases: tuple[str, ...] = PHASES
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Bin running-task counts per phase.

        Returns ``(bucket_start_times, {phase: mean running tasks})``; a
        task contributes to a bucket proportionally to its overlap.
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        edges = bucket_edges(self.makespan(), bucket)
        series = {}
        for phase in phases:
            spans = self.phase_spans(phase)
            running = bin_overlap(edges, [s.start for s in spans], [s.end for s in spans])
            series[phase] = running / bucket
        return edges[:-1], series
