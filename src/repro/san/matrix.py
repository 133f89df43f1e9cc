"""The sanitizer's two proofs: the battery and the clean matrix.

Both halves are runnable from ``repro sanitize``:

* **Synthetic-violation battery** — one seeded fixture per detector,
  deliberately committing the violation the detector exists to see, run
  under an isolated sanitizer.  A detector passes when its fixture fires
  *exactly once* with a non-empty witness: the proof that the dynamic
  layer detects what it claims.

* **Clean matrix** — every workload × engine × executor leg run twice,
  sanitized and unsanitized, byte-comparing output digests and requiring
  zero violations.  The committed ``san-baseline.json`` pins the digests
  so any nondeterminism regression (or sanitizer-induced perturbation)
  fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.exec.base import ThreadExecutor, register_kernel
from repro.san.harness import Sanitizer, SanitizerConfig
from repro.san.report import SanReport

__all__ = [
    "BATTERY",
    "BASELINE_SCHEMA",
    "BatteryResult",
    "LegResult",
    "battery_ok",
    "default_baseline_path",
    "load_baseline",
    "matrix_legs",
    "run_battery",
    "run_leg",
    "run_matrix",
    "write_baseline",
]

BASELINE_SCHEMA = "repro.san-baseline/v1"

MATRIX_WORKLOADS = (
    "sessionization",
    "page-frequency",
    "per-user-count",
    "inverted-index",
)
MATRIX_ENGINES = ("hadoop", "hop", "onepass")
MATRIX_EXECUTORS = ("serial", "threads:2", "processes:2")


# -- battery fixtures ---------------------------------------------------------

#: Module state the SAN201 fixture's kernel deliberately writes.
_BATTERY_STATE: dict[str, Any] = {}


def _racy_kernel(ctx: Any, spec: Any) -> Any:
    # The battery payload: a kernel that writes module-global state.
    _BATTERY_STATE["last"] = spec
    return spec


register_kernel("san.battery.racy", _racy_kernel)


def _fixture_san201(san: Sanitizer) -> None:
    _BATTERY_STATE.clear()
    san.track_shared("repro.san.matrix._BATTERY_STATE", _BATTERY_STATE)
    specs = [{"part": 0}, {"part": 1}]
    with san.engine_scope():
        with ThreadExecutor(workers=2).session(context=None) as session:
            session.run_batch("san.battery.racy", specs)
    _BATTERY_STATE.clear()


@dataclass(frozen=True)
class BatteryResult:
    detector: str
    fired: int
    report: SanReport

    @property
    def ok(self) -> bool:
        if self.fired != 1:
            return False
        v = self.report.violations[0]
        return v.id == self.detector and bool(v.witness)


def _run_fixture(fn: Callable[[Sanitizer], None], detectors: tuple[str, ...]) -> SanReport:
    with Sanitizer(SanitizerConfig(detectors=detectors)) as san:
        fn(san)
    return san.report


#: (violation id, fixture runner), one per detector.
BATTERY: tuple[tuple[str, Callable[[], SanReport]], ...] = (
    ("SAN201", lambda: _run_fixture(_fixture_san201, ("race",))),
)


def run_battery() -> list[BatteryResult]:
    out = []
    for detector, runner in BATTERY:
        report = runner()
        out.append(BatteryResult(detector=detector, fired=len(report.violations), report=report))
    return out


def battery_ok(results: list[BatteryResult]) -> bool:
    return bool(results) and all(r.ok for r in results)


# -- the clean matrix ---------------------------------------------------------


@dataclass(frozen=True)
class LegResult:
    leg: str
    digest: str
    sanitized_digest: str
    report: SanReport
    #: What the leg raised, if it did (its digests are then empty).
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.report.clean and self.digest == self.sanitized_digest


def matrix_legs(
    *,
    workloads: tuple[str, ...] = MATRIX_WORKLOADS,
    engines: tuple[str, ...] = MATRIX_ENGINES,
    executors: tuple[str, ...] = MATRIX_EXECUTORS,
) -> list[tuple[str, str, str]]:
    return [
        (w, e, x) for w in workloads for e in engines for x in executors
    ]


def _leg_digest(workload: str, engine: str, executor: str, records: int, nodes: int) -> str:
    """Run one leg and return the canonical output digest."""
    import hashlib

    from repro.obs.tracer import Tracer
    from repro.workloads import paper_cell

    cluster, engine_cls, job = paper_cell(workload, engine, records, nodes)
    # A real tracer on both legs: sanitized reports order on absorb
    # ticks, and trace-on/trace-off output identity is already part of
    # the engines' contract, so the digest comparison is unaffected.
    engine_cls(cluster, executor=executor, tracer=Tracer()).run(job)
    payload = repr(list(cluster.hdfs.read_records("out"))).encode()
    return hashlib.sha256(payload).hexdigest()


def run_leg(
    workload: str,
    engine: str,
    executor: str,
    *,
    records: int = 2_000,
    nodes: int = 3,
    detectors: tuple[str, ...] | None = None,
) -> LegResult:
    """One matrix leg: unsanitized digest, sanitized digest, report."""
    digest = _leg_digest(workload, engine, executor, records, nodes)
    config = SanitizerConfig(detectors=detectors) if detectors else SanitizerConfig()
    with Sanitizer(config) as san:
        sanitized = _leg_digest(workload, engine, executor, records, nodes)
    return LegResult(
        leg=f"{workload}/{engine}/{executor}",
        digest=digest,
        sanitized_digest=sanitized,
        report=san.report,
    )


def run_matrix(
    *,
    records: int = 2_000,
    nodes: int = 3,
    workloads: tuple[str, ...] = MATRIX_WORKLOADS,
    engines: tuple[str, ...] = MATRIX_ENGINES,
    executors: tuple[str, ...] = MATRIX_EXECUTORS,
    progress: Callable[[str], None] | None = None,
) -> list[LegResult]:
    """Every leg in order; a leg that raises is a failed leg carrying the
    exception, and the matrix goes on with the rest."""
    out = []
    for workload, engine, executor in matrix_legs(
        workloads=workloads, engines=engines, executors=executors
    ):
        leg = f"{workload}/{engine}/{executor}"
        if progress is not None:
            progress(leg)
        try:
            result = run_leg(workload, engine, executor, records=records, nodes=nodes)
        except Exception as exc:
            result = LegResult(leg, digest="", sanitized_digest="", report=SanReport(), error=exc)
        out.append(result)
    return out


# -- baseline -----------------------------------------------------------------


def default_baseline_path(root: Path | None = None) -> Path:
    if root is None:
        from repro.lint.config import repo_root

        root = repo_root(Path.cwd())
    return root / "san-baseline.json"


def load_baseline(path: Path) -> dict[str, str]:
    if not path.is_file():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: unknown baseline schema {payload.get('schema')!r}")
    return dict(payload.get("legs", {}))


def write_baseline(path: Path, results: list[LegResult], *, records: int, nodes: int) -> None:
    payload = {
        "schema": BASELINE_SCHEMA,
        "records": records,
        "nodes": nodes,
        "legs": {r.leg: r.digest for r in sorted(results, key=lambda r: r.leg)},
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
