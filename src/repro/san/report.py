"""reprosan violation records, the detector catalogue, and reporters.

A sanitized run produces a :class:`SanReport`: an ordered, canonical
collection of :class:`Violation` records.  Ordering is *logical* — the
sort key uses the sanitizer's logical clock (ticked through the tracer
absorb path) and stable textual fields, never wall time — so the same
run produces byte-identical terminal/JSON/SARIF reports every time.

The :data:`DETECTORS` catalogue names each detector, its violation id and
what it sees (see ``docs/SANITIZERS.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "DETECTORS",
    "DetectorInfo",
    "SanReport",
    "Violation",
    "detector_ids",
]


@dataclass(frozen=True)
class DetectorInfo:
    """One dynamic detector and the violation id it reports."""

    id: str
    detector: str
    title: str


DETECTORS: tuple[DetectorInfo, ...] = (
    DetectorInfo(
        id="SAN201",
        detector="race",
        title="kernel-scope write to shared state inside a batch",
    ),
)

_BY_ID = {d.id: d for d in DETECTORS}


def detector_ids() -> tuple[str, ...]:
    return tuple(d.id for d in DETECTORS)


@dataclass(frozen=True)
class Violation:
    """One witnessed contract violation.

    ``witness`` is a tuple of (label, value) string pairs — the changed
    object, its fingerprints and the batch for a race.  ``path``, ``line``
    and ``stack`` stay in the report schema for a detector that knows a
    source site; the race detector reports ``<runtime>``.
    """

    id: str
    message: str
    path: str = "<runtime>"
    line: int = 0
    func: str = ""
    task: str = ""
    clock: int = 0
    witness: tuple[tuple[str, str], ...] = ()
    stack: tuple[tuple[str, int, str], ...] = ()

    @property
    def detector(self) -> str:
        return _BY_ID[self.id].detector

    def sort_key(self) -> tuple:
        return (self.id, self.path, self.line, self.task, self.clock, self.message)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "detector": self.detector,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "func": self.func,
            "task": self.task,
            "clock": self.clock,
            "witness": [[k, v] for k, v in self.witness],
            "stack": [[p, ln, fn] for p, ln, fn in self.stack],
        }


@dataclass
class SanReport:
    """The full result of a sanitized run, in canonical order."""

    violations: list[Violation] = field(default_factory=list)
    detectors: tuple[str, ...] = ()
    legs: int = 1

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def finalize(self) -> "SanReport":
        """Sort into canonical order and drop exact duplicates."""
        seen: set[tuple] = set()
        out = []
        for v in sorted(self.violations, key=Violation.sort_key):
            key = (v.id, v.path, v.line, v.task, v.message, v.witness)
            if key in seen:
                continue
            seen.add(key)
            out.append(v)
        self.violations = out
        return self

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.id] = out.get(v.id, 0) + 1
        return out

    def to_json(self) -> str:
        payload = {
            "schema": "repro.san-report/v1",
            "detectors": list(self.detectors),
            "legs": self.legs,
            "counts": self.counts(),
            "violations": [v.as_dict() for v in self.violations],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        for v in self.violations:
            where = f"{v.path}:{v.line}" if v.line else v.path
            head = f"{where}: {v.id} {v.message}"
            if v.task:
                head += f" (task {v.task}, clock {v.clock})"
            lines.append(head)
            for label, value in v.witness:
                lines.append(f"    {label}: {value}")
            for path, line, func in v.stack:
                lines.append(f"    at {path}:{line} in {func}")
        if self.violations:
            summary = ", ".join(f"{k}: {n}" for k, n in sorted(self.counts().items()))
            lines.append(f"{len(self.violations)} violation(s) ({summary})")
        else:
            lines.append("sanitizer-clean: no violations")
        return "\n".join(lines) + "\n"

    def to_sarif(self) -> str:
        from repro.lint.sarif import (
            full_catalogue,
            sarif_document,
            sarif_result,
            to_sarif_json,
        )

        rules = full_catalogue()
        rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
        results = []
        for v in self.violations:
            properties: dict = {}
            if v.task:
                properties["task"] = v.task
                properties["clock"] = v.clock
            if v.witness:
                properties["witness"] = {k: val for k, val in v.witness}
            results.append(
                sarif_result(
                    v.id,
                    v.message,
                    v.path,
                    v.line,
                    rule_index=rule_index.get(v.id),
                    properties=properties,
                )
            )
        return to_sarif_json(sarif_document("reprosan", rules, results))

    def format(self, fmt: str = "terminal") -> str:
        if fmt in ("terminal", "text"):
            return self.to_text()
        if fmt == "json":
            return self.to_json()
        if fmt == "sarif":
            return self.to_sarif()
        raise ValueError(f"unknown sanitizer report format {fmt!r}")
