"""Time-series binning and inspection: overlap binner, sparklines, shape assertions.

The paper's figures are time-series plots; a terminal harness cannot show
them, so the benchmarks render unicode sparklines and — more importantly —
*assert their shapes*: the helpers here locate the merge valley, measure
phase-average utilisation, and find spikes, turning "looks like Fig. 2(b)"
into checkable predicates.  :func:`bin_overlap` is the one interval
binner behind every series: engine spans on the logical clock
(:mod:`repro.obs.series`) and simulated service intervals and task spans
(:mod:`repro.simulator.metrics`, :mod:`repro.simulator.timeline`).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "bucket_edges",
    "bin_overlap",
    "sparkline",
    "window_mean",
    "find_valley",
    "valley_depth",
    "peak_time",
]

_BARS = "▁▂▃▄▅▆▇█"


def bucket_edges(horizon: float, bucket: float) -> np.ndarray:
    """Edges of the fixed-width buckets covering ``[0, horizon)`` (at least one)."""
    return np.arange(max(1, int(np.ceil(horizon / bucket))) + 1) * bucket


def bin_overlap(
    edges: np.ndarray,
    start: ArrayLike,
    end: ArrayLike,
    weight: ArrayLike = 1.0,
) -> np.ndarray:
    """Per-bin total of ``weight`` x the length of each ``[start, end)`` inside the bin.

    ``start``, ``end`` and ``weight`` hold one entry per interval (scalars
    broadcast); bin ``i`` is ``[edges[i], edges[i+1])`` and whatever lies
    outside ``[edges[0], edges[-1])`` is dropped.  Only the bins an interval
    touches are visited, and each bin accumulates its intervals in input
    order, so the totals equal a per-interval loop's to the last bit.
    """
    edges = np.asarray(edges, dtype=float)
    start, end, weight = np.broadcast_arrays(
        np.atleast_1d(np.asarray(start, dtype=float)), end, weight
    )
    nbins = len(edges) - 1
    first = np.maximum(np.searchsorted(edges, start, side="right") - 1, 0)
    last = np.minimum(np.searchsorted(edges, end, side="left"), nbins) - 1
    touched = np.maximum(last - first + 1, 0)
    # One row per (interval, touched bin), interval-major.
    owner = np.repeat(np.arange(len(touched)), touched)
    bins = first[owner] + np.arange(len(owner)) - (np.cumsum(touched) - touched)[owner]
    length = np.minimum(end[owner], edges[bins + 1]) - np.maximum(start[owner], edges[bins])
    totals = np.zeros(nbins)
    np.add.at(totals, bins, np.maximum(length, 0.0) * weight[owner])
    return totals


def sparkline(values: np.ndarray | list[float], *, width: int = 72) -> str:
    """Render a series as a fixed-width unicode sparkline."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return ""
    if arr.size > width:
        # Average down to the target width.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() if b > a else 0.0 for a, b in zip(edges, edges[1:])])
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return _BARS[0] * arr.size
    idx = ((arr - lo) / (hi - lo) * (len(_BARS) - 1)).round().astype(int)
    return "".join(_BARS[i] for i in idx)


def window_mean(
    times: np.ndarray, values: np.ndarray, t0: float, t1: float
) -> float:
    """Mean of ``values`` over sample times in ``[t0, t1)``."""
    mask = (times >= t0) & (times < t1)
    if not mask.any():
        raise ValueError(f"no samples in window [{t0}, {t1})")
    return float(np.asarray(values)[mask].mean())


def find_valley(
    times: np.ndarray,
    values: np.ndarray,
    *,
    smooth: int = 3,
    interior_margin: float = 0.05,
) -> tuple[float, float]:
    """Locate the interior minimum of a series: ``(time, value)``.

    The first/last ``interior_margin`` fraction is excluded so job ramp-up
    and tail-off do not masquerade as the merge valley.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if smooth > 1 and v.size >= smooth:
        kernel = np.ones(smooth) / smooth
        v = np.convolve(v, kernel, mode="same")
    lo = int(len(v) * interior_margin)
    hi = max(lo + 1, int(len(v) * (1 - interior_margin)))
    idx = lo + int(np.argmin(v[lo:hi]))
    return float(t[idx]), float(v[idx])


def valley_depth(
    times: np.ndarray, values: np.ndarray, **kwargs: float
) -> float:
    """How far the interior minimum sits below the series mean (>=0)."""
    _t, vmin = find_valley(times, values, **kwargs)
    return max(0.0, float(np.mean(values)) - vmin)


def peak_time(times: np.ndarray, values: np.ndarray) -> float:
    """Sample time of the series maximum."""
    return float(np.asarray(times)[int(np.argmax(values))])
