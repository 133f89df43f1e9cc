"""Trace exporters: Chrome trace-event JSON, JSONL, and text summary.

The Chrome exporter targets the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
as loaded by ``chrome://tracing`` / Perfetto: one *process* row per
simulated node (plus one for the coordinator), complete ``"X"`` duration
events for spans and ``"i"`` instant events for point occurrences.
Because span placement comes from the deterministic logical clock, tick
values are emitted directly as microseconds — the x-axis is logical work,
not wall time; advisory wall durations ride along in ``args.wall_us``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.analysis.series import sparkline
from repro.obs.series import span_activity
from repro.obs.timeline import phase_table, recovery_timeline
from repro.obs.tracer import Span, TraceEvent

__all__ = [
    "chrome_trace",
    "validate_chrome",
    "to_jsonl",
    "summary_text",
    "write_trace",
    "TRACE_FORMATS",
]

TRACE_FORMATS = ("chrome", "jsonl", "summary")

#: pid reserved for coordinator-side spans (node == "").
_COORDINATOR_PID = 1
_COORDINATOR_NAME = "coordinator"


def _pid_map(spans: Sequence[Span], events: Sequence[TraceEvent]) -> dict[str, int]:
    """Stable node → pid assignment: coordinator first, then sorted nodes."""
    nodes = sorted({r.node for r in spans if r.node} | {r.node for r in events if r.node})
    pids = {"": _COORDINATOR_PID}
    for i, node in enumerate(nodes):
        pids[node] = _COORDINATOR_PID + 1 + i
    return pids


def _span_args(span: Span) -> dict[str, Any]:
    args: dict[str, Any] = {}
    if span.task:
        args["task"] = span.task
    args.update(span.args)
    # Advisory only: rounded wall-clock µs, kept out of the timeline axes.
    args["wall_us"] = int(span.wall_s * 1e6)
    return args


def chrome_trace(
    spans: Sequence[Span],
    events: Sequence[TraceEvent] = (),
    *,
    job_name: str = "",
) -> dict[str, Any]:
    """Render spans/events as a ``chrome://tracing``-loadable object."""
    pids = _pid_map(spans, events)
    trace_events: list[dict[str, Any]] = []
    for node, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": node or _COORDINATOR_NAME},
            }
        )
        trace_events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    for span in spans:
        trace_events.append(
            {
                "name": span.name,
                "cat": span.cat or "span",
                "ph": "X",
                "ts": span.t0,
                "dur": max(1, span.t1 - span.t0),
                "pid": pids[span.node],
                "tid": 1,
                "args": _span_args(span),
            }
        )
    for event in events:
        args: dict[str, Any] = {}
        if event.task:
            args["task"] = event.task
        args.update(event.args)
        trace_events.append(
            {
                "name": event.name,
                "cat": event.cat or "event",
                "ph": "i",
                "s": "p",
                "ts": event.ts,
                "pid": pids[event.node],
                "tid": 1,
                "args": args,
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "job": job_name,
            "clock": "logical (1 tick = 1 record-equivalent of work, shown as 1us)",
        },
    }


def validate_chrome(obj: Any) -> list[str]:
    """Structural checks for a Chrome trace object; returns error strings."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    trace_events = obj.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, ev in enumerate(trace_events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: missing 'name'")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            errors.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(ev.get("pid"), int):
            errors.append(f"{where}: missing integer 'pid'")
        if not isinstance(ev.get("tid"), int):
            errors.append(f"{where}: missing integer 'tid'")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: missing non-negative 'ts'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 1:
                errors.append(f"{where}: 'X' event needs 'dur' >= 1")
    return errors


def to_jsonl(
    spans: Sequence[Span],
    events: Sequence[TraceEvent] = (),
    *,
    job_name: str = "",
) -> str:
    """One JSON object per line, ordered by logical start tick.

    With ``job_name`` a leading ``meta`` record is emitted, so the file
    round-trips through ``repro analyze`` with the full report intact.
    """
    records: list[tuple[int, int, dict[str, Any]]] = []
    for i, s in enumerate(spans):
        records.append(
            (
                s.t0,
                i,
                {
                    "type": "span",
                    "name": s.name,
                    "cat": s.cat,
                    "t0": s.t0,
                    "t1": s.t1,
                    "node": s.node,
                    "task": s.task,
                    "wall_us": int(s.wall_s * 1e6),
                    "args": s.args,
                },
            )
        )
    for i, e in enumerate(events):
        records.append(
            (
                e.ts,
                len(spans) + i,
                {
                    "type": "event",
                    "name": e.name,
                    "cat": e.cat,
                    "ts": e.ts,
                    "node": e.node,
                    "task": e.task,
                    "args": e.args,
                },
            )
        )
    records.sort(key=lambda r: (r[0], r[1]))
    lines = [json.dumps(r[2], sort_keys=True) for r in records]
    if job_name:
        lines.insert(0, json.dumps({"type": "meta", "job": job_name}, sort_keys=True))
    return "\n".join(lines) + "\n"


def summary_text(
    spans: Sequence[Span],
    events: Sequence[TraceEvent] = (),
    *,
    job_name: str = "",
) -> str:
    """Human-oriented phase table + activity sparklines + recovery timeline."""
    lines: list[str] = []
    title = f"trace summary: {job_name}" if job_name else "trace summary"
    lines.append(phase_table(spans, title=title))
    cats = ("map", "sort", "spill", "merge", "shuffle", "reduce", "cache")
    active = [c for c in cats if any(s.cat == c for s in spans)]
    if active:
        lines.append("")
        lines.append("activity over logical time (fraction of ticks busy):")
        for cat in active:
            _centers, busy = span_activity(spans, cat=cat, bins=60)
            lines.append(f"  {cat:8s} {sparkline(busy, width=60)}")
    recovery = recovery_timeline(events)
    if recovery:
        lines.append("")
        lines.append(recovery)
    return "\n".join(lines) + "\n"


def write_trace(
    path: str,
    fmt: str,
    spans: Sequence[Span],
    events: Sequence[TraceEvent] = (),
    *,
    job_name: str = "",
) -> None:
    """Serialise a trace to ``path`` in the requested format."""
    if fmt == "chrome":
        text = json.dumps(chrome_trace(spans, events, job_name=job_name), sort_keys=True) + "\n"
    elif fmt == "jsonl":
        text = to_jsonl(spans, events, job_name=job_name)
    elif fmt == "summary":
        text = summary_text(spans, events, job_name=job_name)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; expected one of {TRACE_FORMATS}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
