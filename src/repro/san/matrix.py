"""The cross-validation matrix: static rules ↔ dynamic detectors.

Two halves, both runnable from ``repro sanitize``:

* **Synthetic-violation battery** — at least one seeded fixture per
  static rule class, each deliberately committing the violation its rule forbids,
  run under an isolated sanitizer.  A detector passes when its fixture
  fires *exactly once* with a non-empty witness.  This is the proof that
  the dynamic layer actually detects what the static layer claims.

* **Clean matrix** — every workload × engine × executor leg run twice,
  sanitized and unsanitized, byte-comparing output digests and requiring
  zero violations.  The committed ``san-baseline.json`` pins the digests
  so any nondeterminism regression (or sanitizer-induced perturbation)
  fails loudly.

The deliberate violations below carry ``reprolint: disable`` markers:
they are the battery's *payload*, statically suppressed precisely
because the runtime detector is the layer under test.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.san.harness import Sanitizer, SanitizerConfig
from repro.san.report import SanReport

__all__ = [
    "BATTERY",
    "BASELINE_SCHEMA",
    "CROSS_VALIDATION",
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

#: Static rule -> the dynamic detector that witnesses it at runtime.
#: One static id maps to one detector, so each battery payload is keyed
#: on the rule that flags its source line: the unclosed writer is a
#: REP205 finding witnessed at commit (SAN103), the span entered outside
#: ``with`` is a REP005 finding witnessed on the unwind (SAN205).
CROSS_VALIDATION: dict[str, str] = {
    "REP005": "SAN205",
    "REP006": "SAN006",
    "REP101": "SAN001",
    "REP102": "SAN102",
    "REP201": "SAN201",
    "REP202": "SAN202",
    "REP205": "SAN103",
}

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

#: Module state the REP201 fixture's kernel deliberately writes.
_BATTERY_STATE: dict[str, Any] = {}


def _noop_kernel(ctx: Any, spec: Any) -> Any:
    return spec


def _racy_kernel(ctx: Any, spec: Any) -> Any:
    # Deliberate REP201 violation: kernel writes module-global state.
    _BATTERY_STATE["last"] = spec  # reprolint: disable=REP201 -- battery payload
    return spec


def _register_battery_kernels() -> None:
    from repro.exec.base import register_kernel

    register_kernel("san.battery.noop", _noop_kernel)
    register_kernel("san.battery.racy", _racy_kernel)


def _entropy_hop() -> str:
    """One call deep, so the sentinel witnesses REP101's transitive case
    (``_fixture_direct_entropy`` is the chain of length 0).

    ``os.urandom`` rather than ``uuid.uuid4`` — uuid4 *calls* urandom,
    which would trip two sentinels and break the fire-exactly-once
    contract."""
    return os.urandom(4).hex()  # reprolint: disable=REP101 -- battery payload


def _fixture_direct_entropy(san: Sanitizer) -> None:
    with san.engine_scope():
        time.time()  # reprolint: disable=REP101 -- battery payload


def _fixture_rep101(san: Sanitizer) -> None:
    with san.engine_scope():
        _entropy_hop()  # reprolint: disable=REP101 -- battery payload


def _fixture_rep102(san: Sanitizer) -> None:
    from repro.exec.base import SerialExecutor

    _register_battery_kernels()
    # Deliberate REP102 violation: a closure rides on the spec.
    spec = {"part": 0, "fn": lambda x: x}  # reprolint: disable=REP102 -- battery payload
    with san.engine_scope():
        with SerialExecutor().session(context=None) as session:
            session.run_batch("san.battery.noop", [spec])


def _fixture_unclosed_at_commit(san: Sanitizer) -> None:
    from repro.io.disk import LocalDisk
    from repro.io.runio import RunWriter
    from repro.mapreduce.journal import K_OUTPUT_COMMIT, JobJournal

    workdir = tempfile.mkdtemp(prefix="reprosan-battery-")
    try:
        disk = LocalDisk()
        with san.engine_scope():
            # Deliberate REP205 violation: the writer is never closed,
            # yet the coordinator commits its output.
            writer = RunWriter(disk, "leak")  # reprolint: disable=REP205 -- battery payload
            writer.write(("k", 1))
            journal = JobJournal(workdir)
            journal.append(K_OUTPUT_COMMIT, digest="battery")
            journal.finalize()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fixture_rep201(san: Sanitizer) -> None:
    from repro.exec.base import ThreadExecutor

    _register_battery_kernels()
    _BATTERY_STATE.clear()
    san.track_shared("repro.san.matrix._BATTERY_STATE", _BATTERY_STATE)
    specs = [{"part": 0}, {"part": 1}]
    with san.engine_scope():
        with ThreadExecutor(workers=2).session(context=None) as session:
            session.run_batch("san.battery.racy", specs)
    _BATTERY_STATE.clear()


def _fixture_rep202(san: Sanitizer) -> None:
    import threading

    from repro.exec.base import SerialExecutor

    _register_battery_kernels()
    # Deliberate REP202 violation: a lock rides on the spec.
    spec = {"part": 0, "guard": threading.Lock()}  # reprolint: disable=REP202 -- battery payload
    with san.engine_scope():
        with SerialExecutor().session(context=None) as session:
            session.run_batch("san.battery.noop", [spec])


def _fixture_span_leaked_on_unwind(san: Sanitizer) -> None:
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    try:
        with san.engine_scope():
            # Deliberate REP005 violation: the span is entered outside
            # ``with``, so the exception path never exits it.
            handle = tracer.span("battery.leaked")  # reprolint: disable=REP005,REP104 -- battery payload
            handle.__enter__()
            raise RuntimeError("battery: simulated failure")
    except RuntimeError:
        pass


def _fixture_rep006() -> SanReport:
    """REP006 needs two processes: hash order is fixed per interpreter."""
    from repro.san.hashseed import double_run

    code = (
        "print(list({'alpha', 'bravo', 'charlie', 'delta', 'echo', "
        "'foxtrot', 'golf', 'hotel'}))"
    )
    violation, _ = double_run(
        [sys.executable, "-c", code], label="battery: set-order print"
    )
    report = SanReport(detectors=("hashseed",))
    if violation is not None:
        report.add(violation)
    return report.finalize()


@dataclass(frozen=True)
class BatteryResult:
    rule: str
    expected: str
    fired: int
    report: SanReport

    @property
    def ok(self) -> bool:
        if self.fired != 1:
            return False
        v = self.report.violations[0]
        return v.id == self.expected and bool(v.witness)


def _run_fixture(fn: Callable[[Sanitizer], None], detectors: tuple[str, ...]) -> SanReport:
    with Sanitizer(SanitizerConfig(detectors=detectors)) as san:
        fn(san)
    return san.report


#: (static rule, expected violation id, fixture runner).
BATTERY: tuple[tuple[str, str, Callable[[], SanReport]], ...] = (
    ("REP101", "SAN001", lambda: _run_fixture(_fixture_direct_entropy, ("sentinel",))),
    ("REP006", "SAN006", _fixture_rep006),
    ("REP101", "SAN001", lambda: _run_fixture(_fixture_rep101, ("sentinel",))),
    ("REP102", "SAN102", lambda: _run_fixture(_fixture_rep102, ("pickle",))),
    ("REP205", "SAN103", lambda: _run_fixture(_fixture_unclosed_at_commit, ("resource",))),
    ("REP201", "SAN201", lambda: _run_fixture(_fixture_rep201, ("race",))),
    ("REP202", "SAN202", lambda: _run_fixture(_fixture_rep202, ("pickle",))),
    ("REP005", "SAN205", lambda: _run_fixture(_fixture_span_leaked_on_unwind, ("resource",))),
)


def run_battery(
    rules: tuple[str, ...] | None = None,
) -> list[BatteryResult]:
    out = []
    for rule, expected, runner in BATTERY:
        if rules is not None and rule not in rules:
            continue
        report = runner()
        out.append(
            BatteryResult(
                rule=rule,
                expected=expected,
                fired=len(report.violations),
                report=report,
            )
        )
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

    @property
    def ok(self) -> bool:
        return self.report.clean and self.digest == self.sanitized_digest


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
    out = []
    for workload, engine, executor in matrix_legs(
        workloads=workloads, engines=engines, executors=executors
    ):
        if progress is not None:
            progress(f"{workload}/{engine}/{executor}")
        out.append(
            run_leg(workload, engine, executor, records=records, nodes=nodes)
        )
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
