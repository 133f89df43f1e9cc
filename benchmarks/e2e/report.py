"""Printing results and comparing two results files."""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.tables import format_table

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER

__all__ = ["print_end_to_end", "print_layers", "contract_line", "compare"]


def _num(value: float, unit: str = "s") -> str:
    if unit in ("count", "bytes"):
        return f"{value:.0f}"
    return f"{value:.4f}" if abs(value) < 1000 else f"{value:.0f}"


def print_end_to_end(result: dict[str, Any]) -> None:
    """Every end-to-end metric by name and unit, with its spread and sample count."""
    m = result["manifest"]
    print(
        f"\n== {result['workload']} end-to-end: seed {m['seed']}, {m['rounds']} rounds, "
        f"{result['input_records']} input records, tracing off; times rescaled to the "
        f"reference machine speed (plain seconds under 'raw median')"
        f"{' [NOISY: calibration spread %.0f%%]' % (100 * result['calibration']['spread']) if result['noisy'] else ''}"
    )
    rows = []
    for metric in END_TO_END:
        s = result["metrics"].get(metric.name)
        if s is None:
            continue
        rate = ""
        if metric.name.endswith(".wall_s"):
            rate = f"{result['input_records'] / s['raw']:.0f} rec/s"
        rows.append(
            (metric.name, metric.unit, _num(s["value"]), _num(s["q1"]), _num(s["q3"]),
             _num(s["min"]), s["n"], _num(s["raw"]) if "raw" in s else "",
             f"{metric.bound:.0%}", "yes" if metric.gated else "no", rate)
        )  # fmt: skip
    header = ("metric", "unit", "median", "q1", "q3", "min", "n", "raw median", "bound", "gated",
              "rate")  # fmt: skip
    print(format_table(header, rows))
    print(f"ops_attempted = {result['ops_attempted']}  ops_failed = {result['ops_failed']}")
    for failure in result["failures"]:
        print(
            f"FAILED {failure['workload']} / {failure['cell']} / round {failure['round']}: "
            f"{failure['error'].strip().splitlines()[-1]}"
        )


def print_layers(result: dict[str, Any]) -> None:
    """Per-engine layer tables summing to the untraced wall, then every layer metric."""
    print(f"\n== {result['workload']} layer profile (traced/probed pass)")
    for engine, table in result["layer_tables"].items():
        wall = table["untraced_wall_s"]
        rows = [
            (name, _num(seconds), f"{seconds / wall:6.1%}") for name, seconds in table["rows"]
        ]
        rows.append(("= untraced wall", _num(wall), f"{1:6.1%}"))
        print(f"\n{engine}.batch serial cell — where the wall goes")
        print(format_table(("layer row", "s", "share"), rows))
    values = result["metrics"]
    inapplicable = set(result["not_applicable"])
    rows = [
        (m.layer, m.name, m.unit, "n/a" if m.name in inapplicable else _num(values[m.name]["value"], m.unit))
        for m in PER_LAYER
    ]
    print()
    print(format_table(("layer (module)", "metric", "unit", "value"), rows))
    print(f"ops_attempted = {result['ops_attempted']}  ops_failed = {result['ops_failed']}")
    for failure in result["failures"]:
        print(f"FAILED {failure['workload']} / {failure['cell']}: {failure['error'].strip().splitlines()[-1]}")


def contract_line(result: dict[str, Any]) -> str:
    """The driver's result object: correct, attempted, failed, metrics.

    Of the end-to-end metrics only the gated ones are part of the driver's
    contract; the per-layer pass reports all of its metrics.
    """
    ungated = {m.name for m in END_TO_END if not m.gated}
    metrics = {
        name: {"value": s["value"], "unit": s["unit"]}
        for name, s in result["metrics"].items()
        if name not in ungated
    }
    return json.dumps(
        {
            "correct": result["ops_failed"] == 0 and not result["failures"],
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"],
            "metrics": metrics,
        }
    )


# -- compare ------------------------------------------------------------------


def _verdict(metric: Any, a: dict[str, Any], b: dict[str, Any], same_seed: bool) -> tuple[str, float]:
    """``(ok | regressed | unresolved, worsening as a share of A's median)``."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / a["value"]
    bound = 0.0 if metric.deterministic and same_seed else metric.bound
    spread = max((a["q3"] - a["q1"]) / a["value"], (b["q3"] - b["q1"]) / b["value"])
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap and a["n"] > 1:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(a: dict[str, Any], b: dict[str, Any]) -> int:
    """Print B against baseline A per metric x workload; non-zero on a regression."""
    bad = 0
    rows = []
    for workload, ra in a["end_to_end"].items():
        rb = b["end_to_end"].get(workload)
        if rb is None:
            print(f"{workload}: missing from B")
            bad += 1
            continue
        same_seed = ra["manifest"]["seed"] == rb["manifest"]["seed"]
        fail_a = ra["ops_failed"] / ra["ops_attempted"]
        fail_b = rb["ops_failed"] / rb["ops_attempted"]
        if fail_b > fail_a:
            print(f"{workload}: failure ratio rose {fail_a:.3f} -> {fail_b:.3f}")
            bad += 1
        for metric in END_TO_END:
            sa, sb = ra["metrics"].get(metric.name), rb["metrics"].get(metric.name)
            if sa is None or sb is None:
                continue
            verdict, worse = _verdict(metric, sa, sb, same_seed)
            bad += verdict == "regressed"
            rows.append(
                (workload, metric.name, metric.unit,
                 f"{_num(sa['value'])} [{_num(sa['q1'])}, {_num(sa['q3'])}]",
                 f"{_num(sb['value'])} [{_num(sb['q1'])}, {_num(sb['q3'])}]",
                 f"{worse:+.1%}", f"{metric.bound:.0%}", verdict)
            )  # fmt: skip
    header = ("workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
              "worse by", "bound", "verdict")  # fmt: skip
    print(format_table(header, rows))
    counts = {v: sum(1 for r in rows if r[-1] == v) for v in ("ok", "unresolved", "regressed")}
    print(f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['regressed']} regressed")
    return 1 if bad else 0
