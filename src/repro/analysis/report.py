"""Experiment reports: paper-vs-measured records for EXPERIMENTS.md.

Each benchmark builds an :class:`ExperimentReport` carrying the paper's
claim, the measured value, and whether the qualitative shape held; the
harness prints them uniformly so `bench_output.txt` doubles as the raw
material of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.tables import format_table
from repro.mapreduce.counters import C, Counters

__all__ = ["Observation", "ExperimentReport", "recovery_summary"]


#: Counter names that make up the recovery story, in reporting order.
_RECOVERY_COUNTERS: tuple[tuple[str, str], ...] = (
    ("tasks_rerun", C.TASKS_RERUN),
    ("map_task_retries", C.MAP_TASK_RETRIES),
    ("reduce_task_retries", C.REDUCE_TASK_RETRIES),
    ("node_crashes", C.NODE_CRASHES),
    ("bytes_reshuffled", C.BYTES_RESHUFFLED),
    ("replayed_records", C.REPLAYED_RECORDS),
    ("log_bytes", C.LOG_BYTES),
    ("blocks_rereplicated", C.BLOCKS_REREPLICATED),
    ("bytes_rereplicated", C.BYTES_REREPLICATED),
    ("shuffle_fetch_failures", C.SHUFFLE_FETCH_FAILURES),
    ("shuffle_backoff_ms", C.SHUFFLE_BACKOFF_MS),
    ("speculative_launched", C.SPECULATIVE_LAUNCHED),
    ("speculative_wins", C.SPECULATIVE_WINS),
    ("speculative_wasted_ms", C.SPECULATIVE_WASTED_MS),
    ("checkpoints", C.CHECKPOINTS),
    ("checkpoint_bytes", C.CHECKPOINT_BYTES),
    ("checkpoint_restores", C.CHECKPOINT_RESTORES),
    ("recovery_time", C.T_RECOVERY),
)


def recovery_summary(counters: Counters) -> dict[str, float]:
    """The fault-tolerance story of one run as a flat dict.

    Zero-valued counters are included, so the dict's shape is stable
    across engines and fault plans — a clean run reports all-zeros rather
    than an empty dict, which keeps diffs and JSON reports comparable.
    """
    return {name: float(counters[key]) for name, key in _RECOVERY_COUNTERS}


@dataclass(frozen=True, slots=True)
class Observation:
    """One paper-vs-measured comparison line."""

    metric: str
    paper: str
    measured: str
    holds: bool

    def row(self) -> tuple[str, str, str, str]:
        return (self.metric, self.paper, self.measured, "yes" if self.holds else "NO")


@dataclass(slots=True)
class ExperimentReport:
    """A full experiment's record: id, setup and its observations."""

    experiment_id: str
    title: str
    setup: str
    observations: list[Observation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def observe(
        self, metric: str, paper: str, measured: Any, holds: bool
    ) -> Observation:
        obs = Observation(metric=metric, paper=paper, measured=str(measured), holds=holds)
        self.observations.append(obs)
        return obs

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def all_hold(self) -> bool:
        return all(o.holds for o in self.observations)

    def render(self) -> str:
        lines = [
            f"=== {self.experiment_id}: {self.title} ===",
            f"setup: {self.setup}",
            format_table(
                ("metric", "paper", "measured", "holds"),
                [o.row() for o in self.observations],
            ),
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"result: {'ALL SHAPES HOLD' if self.all_hold else 'SHAPE MISMATCH'}")
        return "\n".join(lines)
