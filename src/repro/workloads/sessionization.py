"""Sessionization: the paper's heaviest click-stream workload.

"Reorders click logs into individual user sessions": map extracts the user
id, group-by user, and the reduce function splits each user's clicks into
sessions at gaps above a threshold.  Its defining property (Table I) is an
intermediate/input ratio around 2.5x — every click is re-emitted keyed by
user, and the reduce side re-spills it during the multi-pass merge.

Output records have the shape ``(user, session_start, (url, ...))`` — one
record per session.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.core.engine import OnePassConfig, OnePassJob
from repro.core.aggregates import sessionize, split_sessions
from repro.mapreduce.api import JobConfig, MapReduceJob

__all__ = [
    "session_map",
    "session_reduce",
    "sessionization_job",
    "sessionization_onepass_job",
    "reference_sessions",
    "user_of_session",
    "session_count_job",
    "session_count_onepass_job",
    "session_log_reduce",
    "session_log_job",
    "session_log_onepass_job",
]

DEFAULT_GAP = 1800.0


def session_map(click: tuple[float, int, str]) -> Iterator[tuple[int, tuple[float, str]]]:
    """Extract ``(user, (timestamp, url))`` from one click record."""
    timestamp, user, url = click
    yield (user, (timestamp, url))


def session_reduce(
    user: int, clicks: Iterator[tuple[float, str]], *, gap: float = DEFAULT_GAP
) -> Iterator[tuple[int, float, tuple[str, ...]]]:
    """Emit one ``(user, session_start, urls)`` record per session."""
    for session in split_sessions(clicks, gap):
        yield (user, session[0][0], tuple(map(itemgetter(1), session)))


def sessionization_job(
    input_path: str,
    output_path: str,
    *,
    gap: float = DEFAULT_GAP,
    config: JobConfig | None = None,
) -> MapReduceJob:
    """The sort-merge form of the workload (no effective combiner)."""

    def reduce_fn(user: int, clicks: Iterator[tuple[float, str]]) -> Iterable[Any]:
        return session_reduce(user, clicks, gap=gap)

    return MapReduceJob(
        name="sessionization",
        map_fn=session_map,
        reduce_fn=reduce_fn,
        combine_fn=None,
        config=config or JobConfig(),
        input_path=input_path,
        output_path=output_path,
    )


def sessionization_onepass_job(
    input_path: str,
    output_path: str,
    *,
    gap: float = DEFAULT_GAP,
    config: OnePassConfig | None = None,
) -> OnePassJob:
    """The one-pass form: a linear session state per user, no sorting.

    The per-user state is holistic (it must hold all clicks), so the right
    mode is ``hybrid`` grouping — what the paper's prototype runs for this
    workload — but the aggregate form also runs under ``hotset`` when hot
    users matter more than cold ones.
    """
    cfg = config or OnePassConfig(mode="hybrid", map_side_combine=False)

    def finalize(user: int, sessions: list[list[tuple[float, str]]]) -> Iterator[Any]:
        for session in sessions:
            yield (user, session[0][0], tuple(map(itemgetter(1), session)))

    return OnePassJob(
        name="sessionization-onepass",
        map_fn=session_map,
        aggregator=sessionize(gap),
        finalize=finalize,
        config=cfg,
        input_path=input_path,
        output_path=output_path,
    )


def user_of_session(record: tuple[int, float, tuple[str, ...]]) -> int:
    """Key extractor for chaining: the user of one session record."""
    return record[0]


def session_log_reduce(
    user: int, clicks: Iterator[tuple[float, str]], *, gap: float = DEFAULT_GAP
) -> Iterator[tuple[int, float, float, str]]:
    """Emit the *reordered click log*: one record per click, session-tagged.

    This is the paper's literal sessionization output ("reorders click
    logs into individual user sessions"): the input click stream, grouped
    by user and stamped with its session start — so the output is the
    same cardinality as the input, which is what makes it the natural
    stage one of a chained pipeline.
    """
    for session in split_sessions(clicks, gap):
        start = session[0][0]
        for timestamp, url in session:
            yield (user, start, timestamp, url)


def session_log_job(
    input_path: str,
    output_path: str,
    *,
    gap: float = DEFAULT_GAP,
    config: JobConfig | None = None,
) -> MapReduceJob:
    """Sort-merge form of the reordered-click-log variant."""

    def reduce_fn(user: int, clicks: Iterator[tuple[float, str]]) -> Iterable[Any]:
        return session_log_reduce(user, clicks, gap=gap)

    return MapReduceJob(
        name="session-log",
        map_fn=session_map,
        reduce_fn=reduce_fn,
        combine_fn=None,
        config=config or JobConfig(),
        input_path=input_path,
        output_path=output_path,
    )


def session_log_onepass_job(
    input_path: str,
    output_path: str,
    *,
    gap: float = DEFAULT_GAP,
    config: OnePassConfig | None = None,
) -> OnePassJob:
    """One-pass form of the reordered-click-log variant (hybrid grouping)."""
    cfg = config or OnePassConfig(mode="hybrid", map_side_combine=False)

    def finalize(user: int, sessions: list[list[tuple[float, str]]]) -> Iterator[Any]:
        for session in sessions:
            start = session[0][0]
            for timestamp, url in session:
                yield (user, start, timestamp, url)

    return OnePassJob(
        name="session-log-onepass",
        map_fn=session_map,
        aggregator=sessionize(gap),
        finalize=finalize,
        config=cfg,
        input_path=input_path,
        output_path=output_path,
    )


def session_count_job(
    input_path: str,
    output_path: str,
    *,
    config: JobConfig | None = None,
) -> MapReduceJob:
    """Stage two of the chained pipeline: sessions per user (sort-merge).

    Consumes the ``(user, session_start, urls)`` records stage one emits —
    the canonical two-job chain the partition cache
    (:mod:`repro.mapreduce.chain`) accelerates.
    """
    from repro.workloads.counting import counting_job

    return counting_job(
        "session-count", user_of_session, input_path, output_path, config=config
    )


def session_count_onepass_job(
    input_path: str,
    output_path: str,
    *,
    config: OnePassConfig | None = None,
) -> OnePassJob:
    """Stage two of the chained pipeline, one-pass form (SUM states)."""
    from repro.workloads.counting import counting_onepass_job

    return counting_onepass_job(
        "session-count-onepass",
        user_of_session,
        input_path,
        output_path,
        config=config,
    )


def reference_sessions(
    clicks: Iterable[tuple[float, int, str]], *, gap: float = DEFAULT_GAP
) -> list[tuple[int, float, tuple[str, ...]]]:
    """Ground truth, computed directly (no engine), sorted for comparison."""
    by_user: dict[int, list[tuple[float, str]]] = {}
    for timestamp, user, url in clicks:
        by_user.setdefault(user, []).append((timestamp, url))
    out: list[tuple[int, float, tuple[str, ...]]] = []
    for user, user_clicks in by_user.items():
        out.extend(session_reduce(user, iter(user_clicks), gap=gap))
    out.sort()
    return out
