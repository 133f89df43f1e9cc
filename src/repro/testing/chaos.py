"""Systematic crashpoint chaos harness for the journalled engines.

The :class:`~repro.mapreduce.journal.JobJournal` claims that a coordinator
killed at *any* point can be restarted against the same journal and produce
byte-identical output, exactly-once commits, and no leaked intermediate
state.  This module tests that claim mechanically instead of by spot-check:

1. Run the workload once uninterrupted with a journal to learn ``N``, the
   number of journal-append sites, and capture the reference output bytes.
2. For each chosen site ``k`` (all of ``1..N`` in exhaustive mode, a seeded
   sample in CI mode) and each crash mode (``"after"`` — the record is
   durable before the coordinator dies — and ``"torn"`` — the record is
   half-written), start a fresh cluster with ``crash_at=k``, let the run
   die with :class:`~repro.mapreduce.journal.CoordinatorCrash`, then resume
   from the surviving journal on another fresh cluster.
3. After every resume, check the invariants below; the first violation
   raises :class:`CrashpointInvariantError` carrying enough context
   (target, site, crash mode, journal directory) for the CLI to save a
   reproducer.

Checked invariants:

* **Byte-identical output** — the resumed run's output file matches the
  uninterrupted reference byte for byte.
* **Exactly-once commits** — the final journal holds exactly one
  ``reduce-commit`` per partition and exactly one ``output-commit``.
* **No orphans** — after the resume, cluster disks hold only ``hdfs/``
  files (every engine cleans its intermediates), and the journal
  directory holds only finalized ``.wal`` segments.
* **Counter consistency** — ``output_records`` and ``output.bytes`` match
  the reference, and the journaled reduce-commit record counts sum to the
  output record count.
* **Idempotent replay** — running a *third* time against the completed
  journal reproduces the bytes again without appending a single record.
* **Commit before emit** — whatever output the crashed run had already
  emitted is a prefix of the records its durable ``reduce-commit``
  records hold, so a resume replays that output instead of reducing it twice.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.mapreduce.counters import C
from repro.mapreduce.journal import (
    K_OUTPUT_COMMIT,
    K_REDUCE_COMMIT,
    CoordinatorCrash,
    JobJournal,
)
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "ChaosTarget",
    "ChaosReport",
    "CrashpointInvariantError",
    "run_crashpoint_sweep",
]

#: Crash modes exercised per site: the record was durable before the death,
#: or the death tore the record mid-write.
CRASH_MODES = ("after", "torn")


class CrashpointInvariantError(AssertionError):
    """A resume after an injected crash violated a durability invariant.

    Carries the failing coordinates so callers (the ``repro chaos`` CLI,
    CI) can persist the journal directory and print a one-line repro.
    """

    def __init__(
        self,
        message: str,
        *,
        target: str,
        site: int,
        crash_mode: str,
        journal_dir: str,
    ) -> None:
        super().__init__(
            f"[{target} site={site} mode={crash_mode}] {message} "
            f"(journal: {journal_dir})"
        )
        self.target = target
        self.site = site
        self.crash_mode = crash_mode
        self.journal_dir = journal_dir


@dataclass(frozen=True)
class ChaosTarget:
    """One workload/engine combination the sweep can crash repeatedly.

    The three factories must be *pure*: every call builds a fresh cluster
    (with input already loaded), a fresh engine bound to that cluster and
    the given journal, and a fresh job spec.  The harness never reuses a
    cluster across crash/resume boundaries — a real coordinator restart
    loses all of the old process's memory.
    """

    name: str
    make_cluster: Callable[[], Any]
    make_engine: Callable[[Any, Any], Any]
    make_job: Callable[[], Any]


@dataclass
class ChaosReport:
    """Outcome of one full sweep over a target."""

    target: str
    sites: int
    mode: str
    crash_modes: tuple[str, ...]
    crashes: int = 0
    resumes: int = 0
    replays: int = 0
    sites_swept: list[int] = field(default_factory=list)
    output_records: int = 0
    output_bytes: int = 0

    def summary(self) -> str:
        return (
            f"{self.target}: {self.sites} sites, swept {len(self.sites_swept)} "
            f"({self.mode}), {self.crashes} crashes / {self.resumes} resumes / "
            f"{self.replays} replays, all invariants held"
        )


def _output_bytes(cluster: Any, path: str) -> bytes:
    """The committed output file as one byte string, in block order."""
    blocks = cluster.hdfs.namenode.blocks_of(path)
    return b"".join(cluster.hdfs.read_block_bytes(b.block_id) for b in blocks)


def _orphan_files(cluster: Any) -> list[str]:
    """Non-``hdfs/`` files left on any disk — engine intermediates leaked."""
    orphans: list[str] = []
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        for disk_name in sorted(node.disks):
            for path in node.disks[disk_name].list_files():
                if not path.startswith("hdfs/"):
                    orphans.append(f"{name}:{disk_name}:{path}")
    return orphans


def _pick_sites(n_sites: int, mode: str, samples: int, seed: int) -> list[int]:
    if mode == "exhaustive":
        return list(range(1, n_sites + 1))
    if mode == "sampled":
        k = min(samples, n_sites)
        return sorted(random.Random(seed).sample(range(1, n_sites + 1), k))
    raise ValueError(f"unknown sweep mode {mode!r} (use 'exhaustive' or 'sampled')")


def run_crashpoint_sweep(
    target: ChaosTarget,
    workdir: str,
    *,
    mode: str = "exhaustive",
    samples: int = 8,
    seed: int = 0,
    crash_modes: tuple[str, ...] = CRASH_MODES,
    tracer: Any = NULL_TRACER,
) -> ChaosReport:
    """Crash-and-resume ``target`` at every chosen journal-append site.

    ``workdir`` receives one journal directory per (site, crash-mode)
    probe plus ``ref/`` for the reference run; on failure the offending
    directory is left in place and named in the raised
    :class:`CrashpointInvariantError`.
    """
    bad = [m for m in crash_modes if m not in CRASH_MODES]
    if bad:
        raise ValueError(f"unknown crash modes: {bad}")
    os.makedirs(workdir, exist_ok=True)

    # -- reference run: journal on, no crash --------------------------------
    ref_journal = JobJournal(os.path.join(workdir, "ref"))
    ref_cluster = target.make_cluster()
    job = target.make_job()
    ref_result = target.make_engine(ref_cluster, ref_journal).run(job)
    n_sites = ref_journal.appends
    if n_sites == 0:
        raise ValueError(f"{target.name}: reference run made no journal appends")
    ref_bytes = _output_bytes(ref_cluster, job.output_path)
    ref_records = ref_result.output_records
    ref_out_bytes = ref_result.counters[C.OUTPUT_BYTES]
    ref_orphans = _orphan_files(ref_cluster)
    if ref_orphans:
        raise ValueError(
            f"{target.name}: reference run leaked intermediates: {ref_orphans[:5]}"
        )

    report = ChaosReport(
        target=target.name,
        sites=n_sites,
        mode=mode,
        crash_modes=tuple(crash_modes),
        output_records=ref_records,
        output_bytes=len(ref_bytes),
    )

    def fail(message: str, site: int, crash_mode: str, journal_dir: str) -> None:
        raise CrashpointInvariantError(
            message,
            target=target.name,
            site=site,
            crash_mode=crash_mode,
            journal_dir=journal_dir,
        )

    for site in _pick_sites(n_sites, mode, samples, seed):
        report.sites_swept.append(site)
        for crash_mode in crash_modes:
            journal_dir = os.path.join(workdir, f"site{site:04d}-{crash_mode}")
            tracer.event("chaos.crashpoint", "chaos", site=site, mode=crash_mode)

            # Crash the coordinator at append #site.
            crash_journal = JobJournal(
                journal_dir, crash_at=site, crash_mode=crash_mode
            )
            crash_cluster = target.make_cluster()
            crash_job = target.make_job()
            try:
                target.make_engine(crash_cluster, crash_journal).run(crash_job)
            except CoordinatorCrash:
                report.crashes += 1
            else:
                fail(
                    f"crash_at={site} did not fire (run completed)",
                    site,
                    crash_mode,
                    journal_dir,
                )

            # Commit before emit, read from the crashed session's records:
            # reopening the journal here would seal its torn tail first.
            hdfs = crash_cluster.hdfs
            emitted = (
                list(hdfs.read_records(crash_job.output_path))
                if hdfs.namenode.exists(crash_job.output_path)
                else []
            )
            committed = [
                record
                for rec in crash_journal.records
                if rec.kind == K_REDUCE_COMMIT
                for record in rec.fields["records"]
            ]
            if emitted != committed[: len(emitted)]:
                fail(
                    f"the crashed run emitted {len(emitted)} output records that "
                    f"are not a prefix of its {len(committed)} committed ones",
                    site,
                    crash_mode,
                    journal_dir,
                )

            # Resume on a fresh cluster from the surviving journal.
            resume_cluster = target.make_cluster()
            resume_job = target.make_job()
            result = target.make_engine(
                resume_cluster, JobJournal(journal_dir)
            ).run(resume_job)
            report.resumes += 1

            got = _output_bytes(resume_cluster, resume_job.output_path)
            if got != ref_bytes:
                fail(
                    f"resumed output differs from reference "
                    f"({len(got)} vs {len(ref_bytes)} bytes)",
                    site,
                    crash_mode,
                    journal_dir,
                )

            # Exactly-once commits over the durable journal.
            final = JobJournal(journal_dir)
            reduce_commits: dict[int, int] = {}
            output_commits = 0
            committed_records = 0
            for rec in final.records:
                if rec.kind == K_REDUCE_COMMIT:
                    part = rec.fields["partition"]
                    reduce_commits[part] = reduce_commits.get(part, 0) + 1
                    committed_records += len(rec.fields["records"])
                elif rec.kind == K_OUTPUT_COMMIT:
                    output_commits += 1
            dupes = {p: n for p, n in reduce_commits.items() if n != 1}
            if dupes:
                fail(
                    f"reduce partitions committed != once: {dupes}",
                    site,
                    crash_mode,
                    journal_dir,
                )
            if output_commits != 1:
                fail(
                    f"{output_commits} output commits (want exactly 1)",
                    site,
                    crash_mode,
                    journal_dir,
                )

            # No orphaned intermediates or unsealed journal segments.
            orphans = _orphan_files(resume_cluster)
            if orphans:
                fail(
                    f"leaked intermediates after resume: {orphans[:5]}",
                    site,
                    crash_mode,
                    journal_dir,
                )
            loose = [
                f
                for f in os.listdir(journal_dir)
                if not f.endswith(".wal")
            ]
            if loose:
                fail(
                    f"journal dir holds non-finalized files: {loose}",
                    site,
                    crash_mode,
                    journal_dir,
                )

            # Counter consistency with the reference run.
            if result.output_records != ref_records:
                fail(
                    f"output_records {result.output_records} != {ref_records}",
                    site,
                    crash_mode,
                    journal_dir,
                )
            if result.counters[C.OUTPUT_BYTES] != ref_out_bytes:
                fail(
                    f"output.bytes {result.counters[C.OUTPUT_BYTES]} "
                    f"!= {ref_out_bytes}",
                    site,
                    crash_mode,
                    journal_dir,
                )
            if committed_records != ref_records:
                fail(
                    f"journaled commit records sum to {committed_records}, "
                    f"output has {ref_records}",
                    site,
                    crash_mode,
                    journal_dir,
                )

            # Idempotent replay: a third run must not append anything.
            replay_cluster = target.make_cluster()
            replay_journal = JobJournal(journal_dir)
            before = len(replay_journal.records)
            target.make_engine(replay_cluster, replay_journal).run(
                target.make_job()
            )
            report.replays += 1
            if _output_bytes(replay_cluster, resume_job.output_path) != ref_bytes:
                fail(
                    "double replay produced different bytes",
                    site,
                    crash_mode,
                    journal_dir,
                )
            after = len(JobJournal(journal_dir).records)
            if after != before:
                fail(
                    f"replay appended {after - before} journal records",
                    site,
                    crash_mode,
                    journal_dir,
                )

    return report
