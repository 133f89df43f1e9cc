"""Map-phase CPU attribution for the Table II claim."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapreduce.counters import C, Counters

__all__ = ["CpuSplit", "cpu_split"]


@dataclass(frozen=True, slots=True)
class CpuSplit:
    """Map-phase CPU attribution (the paper's Table II)."""

    map_fn_seconds: float
    sort_seconds: float

    @property
    def total(self) -> float:
        return self.map_fn_seconds + self.sort_seconds

    @property
    def map_fn_share(self) -> float:
        return self.map_fn_seconds / self.total if self.total else 0.0

    @property
    def sort_share(self) -> float:
        return self.sort_seconds / self.total if self.total else 0.0


def cpu_split(counters: Counters, *, include_parse: bool = True) -> CpuSplit:
    """Extract the map-function vs sorting CPU split from job counters.

    Parsing is folded into the map-function side by default, matching the
    paper's methodology (its map-function numbers include click-log
    parsing; §III.B.1 showed parsing itself was negligible).
    """
    map_fn = counters[C.T_MAP_FN] + (counters[C.T_PARSE] if include_parse else 0.0)
    return CpuSplit(map_fn_seconds=map_fn, sort_seconds=counters[C.T_SORT])
