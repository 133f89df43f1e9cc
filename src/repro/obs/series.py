"""Binned time series over the logical clock.

Reproduces the *shape* of the paper's Fig. 2(b-f) from real-engine spans:
per-bin busy fraction (the CPU-utilisation curves) and per-bin byte rates
(the disk/network I/O curves).  The x-axis is the deterministic logical
clock, so the same job yields the same curve on every executor; rendering
goes through :mod:`repro.analysis.series` (``sparkline`` and the shape
predicates such as ``find_valley``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.series import bin_overlap
from repro.obs.tracer import Span

__all__ = ["span_activity", "bytes_rate"]


def _clip(spans: Sequence[Span], cat: str | None, node: str | None) -> list[Span]:
    out = []
    for s in spans:
        if cat is not None and s.cat != cat:
            continue
        if node is not None and s.node != node:
            continue
        out.append(s)
    return out


def _bin_edges(spans: Sequence[Span], bins: int) -> np.ndarray:
    t_end = max((s.t1 for s in spans), default=1)
    return np.linspace(0.0, float(max(t_end, 1)), bins + 1)


def span_activity(
    spans: Sequence[Span],
    *,
    cat: str | None = None,
    node: str | None = None,
    bins: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin busy fraction: ``(bin_centers, busy)`` with busy in [0, 1+].

    Each span contributes the overlap of ``[t0, t1)`` with every bin;
    values can exceed 1 where spans of the category overlap (e.g. a phase
    envelope over its member spans) — the curve shape is what matters.
    """
    edges = _bin_edges(spans, bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    width = edges[1] - edges[0] if bins else 1.0
    kept = _clip(spans, cat, node)
    busy = bin_overlap(edges, [s.t0 for s in kept], [s.t1 for s in kept])
    return centers, busy / max(width, 1e-12)


def bytes_rate(
    spans: Sequence[Span],
    *,
    key: str = "bytes",
    cat: str | None = None,
    node: str | None = None,
    bins: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin byte rate: span ``args[key]`` spread uniformly over its span.

    Returns ``(bin_centers, bytes_per_tick)``; spans without ``key`` in
    their args contribute nothing.
    """
    edges = _bin_edges(spans, bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    width = edges[1] - edges[0] if bins else 1.0
    kept = [s for s in _clip(spans, cat, node) if float(s.args.get(key, 0) or 0) > 0]
    rate = bin_overlap(
        edges,
        [s.t0 for s in kept],
        [s.t1 for s in kept],
        [float(s.args[key]) / max(s.t1 - s.t0, 1) for s in kept],
    )
    return centers, rate / max(width, 1e-12)
