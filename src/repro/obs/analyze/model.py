"""Loading traces into an analyzable form.

The analyzer consumes the same artifacts the exporters produce: a live
:class:`repro.obs.Tracer`, a JSONL trace file (``--trace-format jsonl``)
or a Chrome trace-event file (``--trace-format chrome``).  All three
reconstruct to the same :class:`TraceModel` — spans and events on the
logical clock, nothing else: every section of the report, the metrics
included, is derived from them — so ``repro analyze`` on a file produces
byte-identical reports to ``repro run --analyze`` on the live run that
wrote it, whichever command wrote it.

Wall-clock fields (``wall_s``/``wall_us``) are parsed but never used:
every analyzer quantity is logical-clock arithmetic, which is what makes
reports comparable across the Serial/Thread/MP executors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.tracer import Span, TraceEvent

__all__ = ["TraceModel", "load_trace", "model_from_tracer"]


@dataclass(slots=True)
class TraceModel:
    """One run's trace, normalised for analysis."""

    spans: list[Span] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    job_name: str = ""

    @property
    def makespan(self) -> int:
        """The logical span of the run: the largest tick any span reaches."""
        ends = [s.t1 for s in self.spans] + [e.ts for e in self.events]
        return max(ends) if ends else 0


def model_from_tracer(tracer: Any, *, job_name: str = "") -> TraceModel:
    """Wrap a live tracer (no copying; the tracer stays usable)."""
    return TraceModel(
        spans=list(tracer.spans),
        events=list(tracer.events),
        job_name=job_name,
    )


def _span_from_jsonl(obj: dict[str, Any]) -> Span:
    return Span(
        name=obj["name"],
        cat=obj.get("cat", ""),
        t0=int(obj["t0"]),
        t1=int(obj["t1"]),
        node=obj.get("node", ""),
        task=obj.get("task", ""),
        wall_s=float(obj.get("wall_us", 0)) / 1e6,
        args=dict(obj.get("args", {})),
    )


def _event_from_jsonl(obj: dict[str, Any]) -> TraceEvent:
    return TraceEvent(
        name=obj["name"],
        cat=obj.get("cat", ""),
        ts=int(obj["ts"]),
        node=obj.get("node", ""),
        task=obj.get("task", ""),
        args=dict(obj.get("args", {})),
    )


def _load_jsonl(text: str) -> TraceModel:
    model = TraceModel()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        kind = obj.get("type")
        if kind == "span":
            model.spans.append(_span_from_jsonl(obj))
        elif kind == "event":
            model.events.append(_event_from_jsonl(obj))
        elif kind == "meta":
            model.job_name = obj.get("job", "")
        elif kind != "metric":  # an older trace's stale copy of what its spans say
            raise ValueError(f"unknown jsonl record type {kind!r}")
    return model


def _load_chrome(obj: dict[str, Any]) -> TraceModel:
    events: Sequence[dict[str, Any]] = obj.get("traceEvents", ())
    # pid -> node name, from the process_name metadata rows.
    nodes: dict[int, str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            name = ev.get("args", {}).get("name", "")
            nodes[ev["pid"]] = "" if name == "coordinator" else name
    model = TraceModel(job_name=obj.get("otherData", {}).get("job", ""))
    for ev in events:
        ph = ev.get("ph")
        args = dict(ev.get("args", {}))
        task = args.pop("task", "")
        if ph == "X":
            wall_us = args.pop("wall_us", 0)
            t0 = int(ev["ts"])
            model.spans.append(
                Span(
                    name=ev["name"],
                    cat=ev.get("cat", ""),
                    t0=t0,
                    t1=t0 + int(ev.get("dur", 1)),
                    node=nodes.get(ev.get("pid"), ""),
                    task=task,
                    wall_s=float(wall_us) / 1e6,
                    args=args,
                )
            )
        elif ph == "i":
            model.events.append(
                TraceEvent(
                    name=ev["name"],
                    cat=ev.get("cat", ""),
                    ts=int(ev["ts"]),
                    node=nodes.get(ev.get("pid"), ""),
                    task=task,
                    args=args,
                )
            )
    return model


def load_trace(path: str) -> TraceModel:
    """Load a trace file written by ``write_trace`` (jsonl or chrome).

    The format is sniffed from the content: a JSON object with
    ``traceEvents`` is a Chrome trace, otherwise each line must be one
    JSONL span/event/meta record.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        first_line = stripped.splitlines()[0]
        obj: Any = None
        try:
            obj = json.loads(first_line)
        except json.JSONDecodeError:
            obj = json.loads(text)  # pretty-printed chrome trace
        if isinstance(obj, dict) and "traceEvents" in obj:
            return _load_chrome(obj)
        return _load_jsonl(text)
    raise ValueError(
        f"{path}: not a jsonl or chrome trace (write one with "
        "'repro run --trace PATH --trace-format jsonl|chrome')"
    )
