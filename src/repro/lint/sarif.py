"""Shared SARIF 2.1.0 writer for reprolint and reprosan.

Both tools upload to GitHub code scanning, so both need the same
interchange shape: one run, one driver carrying the full rule (or
detector) catalogue, one result per finding with a physical location.
This module is the single place that shape is built; ``reprolint``
passes its static-rule catalogue, ``reprosan`` passes the dynamic
detector catalogue followed by the static rules.

Serialisation is canonical (sorted keys, fixed indent, trailing
newline) so SARIF artifacts are byte-comparable across runs.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

__all__ = [
    "SARIF_SCHEMA",
    "full_catalogue",
    "rule_catalogue",
    "sarif_document",
    "sarif_result",
    "to_sarif_json",
]

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def rule_catalogue() -> list[dict[str, Any]]:
    """The static-rule catalogue: one entry per REPxxx rule."""
    from repro.lint.rules import ALL_RULES

    return [
        {"id": rule.id, "name": type(rule).__name__, "title": rule.title}
        for rule in ALL_RULES
    ]


def full_catalogue() -> list[dict[str, Any]]:
    """The reprosan dynamic detectors plus the static rules, ids unique:
    one driver for both layers' contracts."""
    from repro.san.report import DETECTORS

    catalogue = [
        {"id": d.id, "name": f"San{d.detector.capitalize()}", "title": d.title}
        for d in DETECTORS
    ]
    catalogue.extend(rule_catalogue())
    return catalogue


def sarif_result(
    rule_id: str,
    message: str,
    path: str,
    line: int,
    col: int = 1,
    *,
    rule_index: int | None = None,
    properties: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """One SARIF result with a physical location."""
    result: dict[str, Any] = {
        "ruleId": rule_id,
        "level": "error",
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": path.replace("\\", "/")},
                    "region": {
                        "startLine": max(line, 1),
                        "startColumn": max(col, 1),
                    },
                }
            }
        ],
    }
    if rule_index is not None:
        result["ruleIndex"] = rule_index
    if properties:
        result["properties"] = dict(properties)
    return result


def sarif_document(
    tool_name: str,
    rules: Sequence[Mapping[str, Any]],
    results: Sequence[Mapping[str, Any]],
) -> dict[str, Any]:
    """A complete one-run SARIF document; ``rules`` entries carry
    ``id``, ``name`` and ``title``."""
    driver_rules = [
        {
            "id": rule["id"],
            "name": rule["name"],
            "shortDescription": {"text": rule["title"]},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {"driver": {"name": tool_name, "rules": driver_rules}},
                "columnKind": "utf16CodeUnits",
                "results": list(results),
            }
        ],
    }


def to_sarif_json(document: Mapping[str, Any]) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
