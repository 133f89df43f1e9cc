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

from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.core.engine import OnePassConfig, OnePassJob
from repro.core.aggregates import sessionize, split_sessions
from repro.mapreduce.api import JobConfig, MapReduceJob

__all__ = [
    "session_map",
    "session_map_slice",
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


def session_map_slice(clicks: list[tuple[float, int, str]]) -> tuple[list[Any], range]:
    """:func:`session_map` over a slice of clicks: one comprehension."""
    return [(user, (ts, url)) for ts, user, url in clicks], range(1, len(clicks) + 1)


def session_reduce(
    user: int, clicks: Iterator[tuple[float, str]], *, gap: float = DEFAULT_GAP
) -> Iterator[tuple[int, float, tuple[str, ...]]]:
    """Emit one ``(user, session_start, urls)`` record per session."""
    return _per_session(user, split_sessions(clicks, gap))


def _per_session(user: int, sessions: list[list[tuple[float, str]]]) -> Iterator[Any]:
    """One user's output records, one per session (the one-pass ``finalize``)."""
    for session in sessions:
        yield (user, session[0][0], tuple(map(itemgetter(1), session)))


def _per_click(user: int, sessions: list[list[tuple[float, str]]]) -> Iterator[Any]:
    """One user's output records, one per click (the one-pass ``finalize``)."""
    for session in sessions:
        start = session[0][0]
        for timestamp, url in session:
            yield (user, start, timestamp, url)


def _sortmerge_job(
    name: str, reduce: Callable[..., Iterator[Any]], input_path: str, output_path: str,
    gap: float, config: JobConfig | None,
) -> MapReduceJob:  # fmt: skip
    return MapReduceJob(
        name=name,
        map_fn=session_map,
        map_slice=session_map_slice,
        reduce_fn=partial(reduce, gap=gap),
        config=config or JobConfig(),
        input_path=input_path,
        output_path=output_path,
    )


def _onepass_job(
    name: str, finalize: Callable[..., Iterator[Any]], input_path: str, output_path: str,
    gap: float, config: OnePassConfig | None,
) -> OnePassJob:  # fmt: skip
    return OnePassJob(
        name=name,
        map_fn=session_map,
        map_slice=session_map_slice,
        aggregator=sessionize(gap),
        finalize=finalize,
        config=config or OnePassConfig(mode="hybrid", map_side_combine=False),
        input_path=input_path,
        output_path=output_path,
    )


def sessionization_job(
    input_path: str,
    output_path: str,
    *,
    gap: float = DEFAULT_GAP,
    config: JobConfig | None = None,
) -> MapReduceJob:
    """The sort-merge form of the workload (no effective combiner)."""
    return _sortmerge_job("sessionization", session_reduce, input_path, output_path, gap, config)


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
    return _onepass_job(
        "sessionization-onepass", _per_session, input_path, output_path, gap, config
    )


#: Key extractor for chaining: the user of one session record (an
#: ``itemgetter``, like the click workloads' extractors).
user_of_session = itemgetter(0)


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
    return _per_click(user, split_sessions(clicks, gap))


def session_log_job(
    input_path: str,
    output_path: str,
    *,
    gap: float = DEFAULT_GAP,
    config: JobConfig | None = None,
) -> MapReduceJob:
    """Sort-merge form of the reordered-click-log variant."""
    return _sortmerge_job("session-log", session_log_reduce, input_path, output_path, gap, config)


def session_log_onepass_job(
    input_path: str,
    output_path: str,
    *,
    gap: float = DEFAULT_GAP,
    config: OnePassConfig | None = None,
) -> OnePassJob:
    """One-pass form of the reordered-click-log variant (hybrid grouping)."""
    return _onepass_job("session-log-onepass", _per_click, input_path, output_path, gap, config)


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
