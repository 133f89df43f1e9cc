"""Assembling and rendering performance-analysis reports.

:func:`analyze_model` runs every analysis pass — phase attribution,
critical path, barrier/pipelining metrics, skew/straggler accounting,
the span-derived metrics view — over one
:class:`~repro.obs.analyze.model.TraceModel` and returns a single
plain-data report (schema ``repro.analyze/v1``).
:func:`analyze_journal` produces the journal counterpart (schema
``repro.analyze.journal/v1``) from a job journal's *converged* committed
state — the same report whether the journal came from an uninterrupted
run or a crash-and-resume, which is exactly the exactly-once guarantee
the chaos harness proves.

Renderers: :func:`render_json` (canonical — sorted keys, the form CI
validates with :func:`validate_report`), :func:`render_text` (terminal),
:func:`render_html` (self-contained static page, uploaded as a CI
artifact).  No renderer touches wall-clock fields, so every output is
byte-identical across the Serial/Thread/MP executors and under seeded
fault plans.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from html import escape
from typing import Any, Mapping, Sequence

from repro.analysis.tables import format_kv, format_table
from repro.obs.analyze.barriers import barrier_report
from repro.obs.analyze.critical_path import critical_path
from repro.obs.analyze.model import TraceModel, model_from_tracer
from repro.obs.analyze.skew import skew_report
from repro.obs.timeline import phase_rank, phase_totals
from repro.obs.tracer import Span, TraceEvent

__all__ = [
    "SCHEMA",
    "JOURNAL_SCHEMA",
    "REPORT_FORMATS",
    "DERIVED_METRICS",
    "derive_metrics",
    "analyze_model",
    "analyze_tracer",
    "analyze_journal",
    "render_json",
    "render_text",
    "render_html",
    "validate_report",
]

SCHEMA = "repro.analyze/v1"
JOURNAL_SCHEMA = "repro.analyze.journal/v1"
REPORT_FORMATS = ("terminal", "json", "html")

#: Rows of the terminal critical-path table (the JSON keeps the full chain).
_CHAIN_ROWS = 15


def _phases(model: TraceModel) -> dict[str, dict[str, Any]]:
    """Per-category span counts/ticks/shares: ``phase_totals`` minus wall time.

    Phase-envelope spans (``cat == "phase"``) cover the whole run and
    would dilute every share, so attribution is over work spans only and
    shares sum to 100%.
    """
    totals = phase_totals([s for s in model.spans if s.cat != "phase"])
    grand = sum(row["ticks"] for row in totals.values()) or 1
    return {
        cat: {
            "spans": totals[cat]["spans"],
            "ticks": totals[cat]["ticks"],
            "share": round(totals[cat]["ticks"] / grand, 4),
        }
        for cat in sorted(totals, key=phase_rank)
    }


#: Histogram bucket upper bounds (powers of four up to ~1G) plus an implicit
#: overflow bucket.  Fixed for the repository: a committed trace must bucket
#: the same way forever.
_BOUNDS: tuple[int, ...] = tuple(4**i for i in range(16))

#: The metrics view: name -> (type, record kind, record name, arg names).
#: A distribution or a sampled level is not emitted anywhere — it is a
#: reading of a number the spans and events already carry.  Each row selects
#: the records of one name that hold one of its args (a list arg is one
#: observation per element).  To add a metric, put the number on the span
#: or event beside it and add a row.
DERIVED_METRICS: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    # map-side buffer sort sizes (every engine that sorts)
    "map.sort.records": ("histogram", "span", "sort", ("records",)),
    # hadoop fetch segment sizes
    "shuffle.segment.bytes": ("histogram", "span", "fetch", ("bytes",)),
    # pushed chunk sizes: one span per chunk (one-pass) or per map (hop)
    "push.chunk.bytes": ("histogram", "span", "push", ("bytes", "chunk_bytes")),
    # one-pass incremental hash residency when the partition's reduce opens
    "hash.resident.keys": ("gauge", "span", "reduce", ("resident_keys",)),
    # partition-cache residency after each spill
    "cache.resident.bytes": ("gauge", "event", "cache.spill", ("resident_bytes",)),
}


def derive_metrics(
    spans: Sequence[Span], events: Sequence[TraceEvent] = ()
) -> dict[str, dict[str, Any]]:
    """The report's ``metrics`` section, folded from span and event args.

    Histograms report their non-empty buckets as ``{"le": bound-or-"inf",
    "n": count}`` rows.  Gauge samples are ``[tick, value]`` in trace order,
    the tick being the clock reading the level was current at: an event's
    ``ts``, or the tick before a span opened (``t0 - 1``; opening costs one).
    """
    out: dict[str, dict[str, Any]] = {}
    for name in sorted(DERIVED_METRICS):
        kind, source, record, arg_names = DERIVED_METRICS[name]
        samples: list[tuple[int, int]] = []
        for r in (r for r in (spans if source == "span" else events) if r.name == record):
            value = next((r.args[a] for a in arg_names if a in r.args), None)
            if value is None:
                continue
            tick = r.t0 - 1 if source == "span" else r.ts
            each = value if isinstance(value, (list, tuple)) else (value,)
            samples.extend((tick, int(v)) for v in each)
        if not samples:
            continue
        values = [v for _, v in samples]
        if kind == "histogram":
            counts = Counter(bisect_left(_BOUNDS, v) for v in values)
            out[name] = {
                "type": "histogram",
                "count": len(values),
                "total": sum(values),
                "buckets": [
                    {"le": _BOUNDS[i] if i < len(_BOUNDS) else "inf", "n": counts[i]}
                    for i in sorted(counts)
                ],
            }
        else:
            out[name] = {
                "type": "gauge",
                "count": len(values),
                "min": min(values),
                "max": max(values),
                "last": values[-1],
                "samples": [[t, v] for t, v in samples],
            }
    return out


def analyze_model(model: TraceModel) -> dict[str, Any]:
    """The full performance report for one run's trace."""
    return {
        "schema": SCHEMA,
        "job": model.job_name,
        "makespan": model.makespan,
        "spans": len(model.spans),
        "events": len(model.events),
        "phases": _phases(model),
        "critical_path": critical_path(model.spans),
        "barriers": barrier_report(model.spans),
        "skew": skew_report(model.spans, model.events),
        "metrics": derive_metrics(model.spans, model.events),
    }


def analyze_tracer(tracer: Any, *, job_name: str = "") -> dict[str, Any]:
    """Convenience: analyze a live tracer (``repro run --analyze``)."""
    return analyze_model(model_from_tracer(tracer, job_name=job_name))


def analyze_journal(journal_dir: str, *, detail: bool = False) -> dict[str, Any]:
    """Report a journal's committed state.

    Only *converged* quantities appear by default — the commits the
    exactly-once protocol guarantees identical between an uninterrupted
    run and any crash-and-resume of it.  ``detail=True`` adds the
    per-session log statistics (grants, checkpoints, truncated bytes),
    which legitimately differ between those histories.
    """
    from repro.mapreduce.journal import JobJournal

    journal = JobJournal(journal_dir)
    state = journal.resume_state()
    report: dict[str, Any] = {
        "schema": JOURNAL_SCHEMA,
        "engine": state.engine or "",
        "spec": state.spec or "",
        "run_config": state.run_config or {},
        "maps_committed": len(state.map_commits),
        "shuffles_committed": len(state.shuffle_commits),
        "reduce_commits": {
            f"{p:03d}": len(records)
            for p, records in sorted(state.reduce_commits.items())
        },
        "output": {
            "commits": state.output_commits,
            "records": sum(len(r) for r in state.reduce_commits.values()),
            "digest": state.output_digest or "",
        },
    }
    if detail:
        report["session"] = {
            "records": len(journal.records),
            "task_grants": len(state.task_grants),
            "checkpoints": len(state.checkpoints),
            "truncated_bytes": state.truncated_bytes,
        }
    return report


# -- rendering ----------------------------------------------------------------


def render_json(report: Mapping[str, Any]) -> str:
    """Canonical serialisation: sorted keys, two-space indent, newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _pct(ratio: Any) -> str:
    return f"{100.0 * float(ratio):.2f}%"


def _trace_sections(report: Mapping[str, Any]) -> list[tuple[str, Any]]:
    """(title, table-ish payload) sections shared by text and HTML output.

    Payloads are either ``(headers, rows)`` tuples or ``{k: v}`` blocks.
    """
    phases = report["phases"]
    cp = report["critical_path"]
    barriers = report["barriers"]
    skew = report["skew"]

    sections: list[tuple[str, Any]] = []
    sections.append(
        (
            f"phase attribution ({report['spans']} spans, makespan "
            f"{report['makespan']} ticks)",
            (
                ("phase", "spans", "ticks", "share"),
                [
                    (cat, row["spans"], row["ticks"], _pct(row["share"]))
                    for cat, row in phases.items()
                ],
            ),
        )
    )
    chain = cp["chain"]
    shown = chain[:_CHAIN_ROWS]
    title = (
        f"critical path: {cp['total_ticks']} ticks "
        f"({_pct(cp['share'])} of makespan, {cp['spans_on_path']} spans"
        + (f", top {len(shown)} shown" if len(chain) > len(shown) else "")
        + ")"
    )
    sections.append(
        (
            title,
            (
                ("t0", "t1", "ticks", "span", "cat", "task", "node"),
                [
                    (
                        s["t0"],
                        s["t1"],
                        s["ticks"],
                        s["name"],
                        s["cat"],
                        s["task"] or "-",
                        s["node"] or "-",
                    )
                    for s in sorted(
                        shown, key=lambda s: -s["ticks"]
                    )
                ],
            ),
        )
    )
    sections.append(
        (
            "barriers & pipelining",
            {
                "map window": f"[{barriers['map_window'][0]}, {barriers['map_window'][1]}]",
                "reduce window": (
                    f"[{barriers['reduce_window'][0]}, {barriers['reduce_window'][1]}]"
                ),
                "map/reduce overlap": _pct(barriers["map_reduce_overlap"]),
                "pipelining efficiency": _pct(barriers["pipelining_efficiency"]),
                "barrier stall (ticks)": barriers["barrier_stall_ticks"],
                "sort-merge blocking (ticks)": barriers["sort_merge_ticks"],
                "sort-merge share": _pct(barriers["sort_merge_share"]),
            },
        )
    )
    skew_block: dict[str, Any] = {
        "partition CoV": skew["partition_cov"],
        "partition max/mean": skew["partition_max_over_mean"],
        "node imbalance (max/mean)": skew["node_imbalance"],
        "stragglers": ", ".join(skew["stragglers"]) or "none",
        "speculation launched/won/lost": (
            f"{skew['speculation']['launched']}/"
            f"{skew['speculation']['wins']}/{skew['speculation']['losses']}"
        ),
    }
    for name, count in skew["recovery_events"].items():
        skew_block[f"recovery: {name}"] = count
    sections.append(("skew & stragglers", skew_block))
    if report["metrics"]:
        rows = []
        for name in sorted(report["metrics"]):
            m = report["metrics"][name]
            if m["type"] == "histogram":
                rows.append(
                    (name, "histogram", m["count"], m["total"], len(m["buckets"]))
                )
            else:
                rows.append((name, "gauge", m["count"], m["last"], m["max"]))
        sections.append(
            (
                "metrics",
                (("metric", "type", "count", "total/last", "buckets/max"), rows),
            )
        )
    return sections


def _journal_sections(report: Mapping[str, Any]) -> list[tuple[str, Any]]:
    block: dict[str, Any] = {
        "engine": report["engine"] or "-",
        "job spec": report["spec"] or "-",
        "maps committed": report["maps_committed"],
        "shuffles committed": report["shuffles_committed"],
        "reduce partitions committed": len(report["reduce_commits"]),
        "output commits": report["output"]["commits"],
        "output records": report["output"]["records"],
        "output digest": report["output"]["digest"] or "-",
    }
    session = report.get("session")
    if session:
        block["journal records (this history)"] = session["records"]
        block["task grants (this history)"] = session["task_grants"]
        block["checkpoints (this history)"] = session["checkpoints"]
        block["truncated bytes (this history)"] = session["truncated_bytes"]
    sections: list[tuple[str, Any]] = [("journal committed state", block)]
    if report["reduce_commits"]:
        sections.append(
            (
                "committed reduce partitions",
                (
                    ("partition", "records"),
                    [(p, n) for p, n in report["reduce_commits"].items()],
                ),
            )
        )
    return sections


def _sections(report: Mapping[str, Any]) -> list[tuple[str, Any]]:
    if report.get("schema") == JOURNAL_SCHEMA:
        return _journal_sections(report)
    return _trace_sections(report)


def render_text(report: Mapping[str, Any]) -> str:
    """Terminal rendering: aligned tables, one section per analysis."""
    head = "performance analysis"
    job = report.get("job") or report.get("engine")
    if job:
        head += f": {job}"
    parts = [head, "=" * len(head)]
    for title, payload in _sections(report):
        parts.append("")
        if isinstance(payload, tuple):
            headers, rows = payload
            parts.append(format_table(headers, rows, title=title))
        else:
            parts.append(format_kv(payload, title=title))
    return "\n".join(parts) + "\n"


_HTML_STYLE = (
    "body{font:14px/1.5 system-ui,sans-serif;margin:2rem;color:#1a2a33}"
    "h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.6rem}"
    "table{border-collapse:collapse;margin:.4rem 0}"
    "td,th{border:1px solid #c5d2d9;padding:.25rem .6rem;text-align:left}"
    "th{background:#eef4f7}tr:nth-child(even) td{background:#f7fafb}"
)


def render_html(report: Mapping[str, Any]) -> str:
    """A self-contained static HTML report (the CI artifact)."""
    job = report.get("job") or report.get("engine") or ""
    title = "performance analysis" + (f": {job}" if job else "")
    out = [
        "<!doctype html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{escape(title)}</h1>",
        f"<p>schema <code>{escape(str(report.get('schema', '')))}</code></p>",
    ]
    for section_title, payload in _sections(report):
        out.append(f"<h2>{escape(section_title)}</h2>")
        out.append("<table>")
        if isinstance(payload, tuple):
            headers, rows = payload
            out.append(
                "<tr>" + "".join(f"<th>{escape(str(h))}</th>" for h in headers) + "</tr>"
            )
            for row in rows:
                out.append(
                    "<tr>"
                    + "".join(f"<td>{escape(str(v))}</td>" for v in row)
                    + "</tr>"
                )
        else:
            out.append("<tr><th>metric</th><th>value</th></tr>")
            for k, v in payload.items():
                out.append(
                    f"<tr><td>{escape(str(k))}</td><td>{escape(str(v))}</td></tr>"
                )
        out.append("</table>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


# -- validation (CI checks every JSON report against this) --------------------


def _expect(obj: Mapping[str, Any], key: str, types: tuple, errors: list[str], where: str) -> Any:
    value = obj.get(key)
    if not isinstance(value, types):
        expected = "/".join(t.__name__ for t in types)
        errors.append(f"{where}.{key}: expected {expected}, got {type(value).__name__}")
        return None
    return value


def validate_report(obj: Any) -> list[str]:
    """Structural checks for an analyzer report; returns error strings."""
    errors: list[str] = []
    if not isinstance(obj, Mapping):
        return [f"top level must be an object, got {type(obj).__name__}"]
    schema = obj.get("schema")
    if schema == JOURNAL_SCHEMA:
        for key, types in (
            ("engine", (str,)),
            ("maps_committed", (int,)),
            ("reduce_commits", (Mapping,)),
            ("output", (Mapping,)),
        ):
            _expect(obj, key, types, errors, "report")
        output = obj.get("output")
        if isinstance(output, Mapping):
            for key in ("commits", "records"):
                _expect(output, key, (int,), errors, "output")
        return errors
    if schema != SCHEMA:
        return [f"unknown schema {schema!r} (expected {SCHEMA} or {JOURNAL_SCHEMA})"]
    for key, types in (
        ("job", (str,)),
        ("makespan", (int,)),
        ("spans", (int,)),
        ("events", (int,)),
        ("phases", (Mapping,)),
        ("critical_path", (Mapping,)),
        ("barriers", (Mapping,)),
        ("skew", (Mapping,)),
        ("metrics", (Mapping,)),
    ):
        _expect(obj, key, types, errors, "report")
    phases = obj.get("phases")
    if isinstance(phases, Mapping):
        for cat, row in phases.items():
            if not isinstance(row, Mapping):
                errors.append(f"phases[{cat!r}]: not an object")
                continue
            for key in ("spans", "ticks"):
                _expect(row, key, (int,), errors, f"phases[{cat!r}]")
            _expect(row, "share", (int, float), errors, f"phases[{cat!r}]")
    cp = obj.get("critical_path")
    if isinstance(cp, Mapping):
        for key in ("total_ticks", "makespan", "spans_on_path"):
            _expect(cp, key, (int,), errors, "critical_path")
        chain = _expect(cp, "chain", (list,), errors, "critical_path")
        if chain is not None:
            for i, step in enumerate(chain):
                if not isinstance(step, Mapping):
                    errors.append(f"critical_path.chain[{i}]: not an object")
                    continue
                for key in ("t0", "t1", "ticks"):
                    _expect(step, key, (int,), errors, f"chain[{i}]")
                _expect(step, "name", (str,), errors, f"chain[{i}]")
    barriers = obj.get("barriers")
    if isinstance(barriers, Mapping):
        for key in (
            "window_overlap_ticks",
            "pipelined_reduce_ticks",
            "barrier_stall_ticks",
            "sort_merge_ticks",
            "work_ticks",
        ):
            _expect(barriers, key, (int,), errors, "barriers")
        for key in ("map_reduce_overlap", "pipelining_efficiency", "sort_merge_share"):
            _expect(barriers, key, (int, float), errors, "barriers")
    skew = obj.get("skew")
    if isinstance(skew, Mapping):
        _expect(skew, "partitions", (Mapping,), errors, "skew")
        _expect(skew, "stragglers", (list,), errors, "skew")
        _expect(skew, "speculation", (Mapping,), errors, "skew")
        _expect(skew, "partition_cov", (int, float), errors, "skew")
    return errors
