"""Trace-derived performance analysis (``repro analyze``).

Deterministic interpretation of the PR 3 tracer's output: critical-path
extraction over the span dependency DAG, barrier-stall and pipelining
metrics (the paper's Fig. 4 as a computed report), skew and straggler
attribution, the metrics view derived from span args, and trace-diff with
per-phase regression attribution.  See the "Performance analysis"
section of ``docs/OBSERVABILITY.md``.
"""

from repro.obs.analyze.barriers import barrier_report, interval_union, union_length
from repro.obs.analyze.critical_path import critical_path
from repro.obs.analyze.diff import (
    attribute_regression,
    delta_rows,
    diff_reports,
    phase_ticks,
    render_delta_table,
)
from repro.obs.analyze.model import TraceModel, load_trace, model_from_tracer
from repro.obs.analyze.report import (
    JOURNAL_SCHEMA,
    REPORT_FORMATS,
    SCHEMA,
    analyze_journal,
    analyze_model,
    analyze_tracer,
    derive_metrics,
    render_html,
    render_json,
    render_text,
    validate_report,
)
from repro.obs.analyze.skew import skew_report

__all__ = [
    "SCHEMA",
    "JOURNAL_SCHEMA",
    "REPORT_FORMATS",
    "TraceModel",
    "load_trace",
    "model_from_tracer",
    "analyze_model",
    "analyze_tracer",
    "analyze_journal",
    "derive_metrics",
    "critical_path",
    "barrier_report",
    "interval_union",
    "union_length",
    "skew_report",
    "phase_ticks",
    "delta_rows",
    "attribute_regression",
    "diff_reports",
    "render_delta_table",
    "render_json",
    "render_text",
    "render_html",
    "validate_report",
]
