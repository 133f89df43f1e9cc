"""Phase timelines derived from spans.

:func:`phase_table` is the span-derived successor to the ad-hoc
``time.*`` counter report: the same per-phase breakdown the paper's
Table II gives (map function vs. framework sorting vs. merge vs.
shuffle vs. reduce), but computed from the recorded spans so logical
cost and advisory wall-clock stay side by side.  :func:`recovery_timeline`
orders a fault run's crash/retry/speculation events on the logical
clock — *when* recovery happened, not just how much.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.analysis.tables import format_table
from repro.obs.tracer import Span, TraceEvent

__all__ = ["PHASE_ORDER", "phase_rank", "phase_totals", "phase_table", "recovery_timeline"]

#: Canonical presentation order; categories outside this list sort after,
#: alphabetically.  Mirrors the paper's Table II row order (map fn, sort,
#: combine, spill, merge, shuffle, reduce) plus this repo's extras.
PHASE_ORDER = (
    "map",
    "sort",
    "combine",
    "spill",
    "merge",
    "shuffle",
    "reduce",
    "cache",
    "snapshot",
    "checkpoint",
    "recovery",
    "phase",
)


def phase_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Aggregate spans by category: span count, logical ticks, wall seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"spans": 0, "ticks": 0, "wall_s": 0.0}
    )
    for span in spans:
        row = totals[span.cat or "other"]
        row["spans"] += 1
        row["ticks"] += span.t1 - span.t0
        row["wall_s"] += span.wall_s
    return dict(totals)


def phase_rank(cat: str) -> tuple[int, str]:
    """Sort key placing ``cat`` in :data:`PHASE_ORDER` (strangers last, by name)."""
    try:
        return (PHASE_ORDER.index(cat), cat)
    except ValueError:
        return (len(PHASE_ORDER), cat)


def phase_table(spans: Sequence[Span], *, title: str = "") -> str:
    """Render the per-phase breakdown as an aligned table."""
    totals = phase_totals(spans)
    grand_ticks = sum(row["ticks"] for row in totals.values()) or 1
    rows = []
    for cat in sorted(totals, key=phase_rank):
        row = totals[cat]
        rows.append(
            (
                cat,
                int(row["spans"]),
                int(row["ticks"]),
                f"{100.0 * row['ticks'] / grand_ticks:.1f}%",
                f"{row['wall_s'] * 1e3:.1f} ms",
            )
        )
    return format_table(
        ("phase", "spans", "ticks", "share", "wall (advisory)"), rows, title=title
    )


def recovery_timeline(events: Sequence[TraceEvent], *, title: str = "recovery timeline") -> str:
    """Render crash/retry/speculation events ordered on the logical clock.

    Returns ``""`` when the run had no recovery events (clean run).
    """
    rows = []
    for event in sorted(
        (e for e in events if e.cat == "recovery"), key=lambda e: e.ts
    ):
        detail = " ".join(f"{k}={v}" for k, v in sorted(event.args.items()))
        rows.append((event.ts, event.name, event.node or "-", event.task or "-", detail))
    if not rows:
        return ""
    return format_table(("tick", "event", "node", "task", "detail"), rows, title=title)
