"""Trace-diff with per-phase regression attribution.

Comparing two runs — clean vs faulty, sort-merge vs one-pass, current
vs a saved baseline report — reduces to the same primitive: two
``{key: value}`` maps and their deltas, sorted so the biggest
regression leads.  :func:`delta_rows` is that primitive;
:func:`diff_reports` applies it to two analyzer reports phase by phase,
so ``repro analyze --baseline`` names *which phase* regressed.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.analysis.tables import format_table
from repro.obs.tracer import Span

__all__ = [
    "phase_ticks",
    "delta_rows",
    "attribute_regression",
    "diff_reports",
    "render_delta_table",
]


def phase_ticks(spans: Sequence[Span]) -> dict[str, int]:
    """Logical ticks per span category (phase envelopes excluded)."""
    out: dict[str, int] = {}
    for s in spans:
        if s.cat == "phase":
            continue
        cat = s.cat or "other"
        out[cat] = out.get(cat, 0) + (s.t1 - s.t0)
    return dict(sorted(out.items()))


def delta_rows(
    base: Mapping[str, float], new: Mapping[str, float]
) -> list[dict[str, Any]]:
    """Per-key deltas between two numeric maps, biggest regression first.

    Each row: ``{"key", "base", "new", "delta", "ratio"}`` where ratio is
    ``new / base`` (0.0 when base is 0).  Rows sort by descending delta
    then key, so the dominant regression is row one and the ordering is
    deterministic.
    """
    rows = []
    for key in sorted(set(base) | set(new)):
        b = base.get(key, 0)
        n = new.get(key, 0)
        rows.append(
            {
                "key": key,
                "base": b,
                "new": n,
                "delta": round(n - b, 4),
                "ratio": round(n / b, 4) if b else 0.0,
            }
        )
    rows.sort(key=lambda r: (-r["delta"], r["key"]))
    return rows


def attribute_regression(
    base: Mapping[str, float], new: Mapping[str, float]
) -> str | None:
    """The key with the largest positive delta, or None if nothing grew."""
    rows = delta_rows(base, new)
    if rows and rows[0]["delta"] > 0:
        return rows[0]["key"]
    return None


def diff_reports(base: Mapping[str, Any], new: Mapping[str, Any]) -> dict[str, Any]:
    """Diff two analyzer reports (see ``report.analyze_model``).

    Phase ticks carry the attribution; headline scalars (makespan,
    critical-path length, barrier stall, sort-merge blocking) ride along
    so a regression in shape shows even when totals match.
    """
    base_phases = {k: v["ticks"] for k, v in base.get("phases", {}).items()}
    new_phases = {k: v["ticks"] for k, v in new.get("phases", {}).items()}
    headline_keys = (
        ("makespan", ("makespan",)),
        ("critical_path_ticks", ("critical_path", "total_ticks")),
        ("barrier_stall_ticks", ("barriers", "barrier_stall_ticks")),
        ("sort_merge_ticks", ("barriers", "sort_merge_ticks")),
    )

    def dig(report: Mapping[str, Any], path: tuple[str, ...]) -> float:
        cur: Any = report
        for key in path:
            cur = cur.get(key, {}) if isinstance(cur, Mapping) else {}
        return cur if isinstance(cur, (int, float)) else 0

    headlines = {
        name: {"base": dig(base, path), "new": dig(new, path)}
        for name, path in headline_keys
    }
    return {
        "schema": "repro.analyze.diff/v1",
        "base_job": base.get("job", ""),
        "new_job": new.get("job", ""),
        "phases": delta_rows(base_phases, new_phases),
        "headlines": headlines,
        "regressed_phase": attribute_regression(base_phases, new_phases),
    }


def render_delta_table(
    rows: Sequence[Mapping[str, Any]], *, title: str = "per-phase delta"
) -> str:
    """Render ``delta_rows`` output of phase ticks as an aligned terminal table."""
    def fmt(v: float) -> str:
        return f"{v:g}"

    table_rows = [
        (
            r["key"],
            fmt(r["base"]),
            fmt(r["new"]),
            ("+" if r["delta"] > 0 else "") + fmt(r["delta"]),
            f"{r['ratio']:.2f}x" if r["base"] else "new",
        )
        for r in rows
    ]
    return format_table(
        ("phase", "base (ticks)", "new (ticks)", "delta", "ratio"),
        table_rows,
        title=title,
    )
