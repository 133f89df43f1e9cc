"""The span/event name registry: the tracing vocabulary, in one place.

Every span or event an engine records must use a name declared here —
``tests/obs/test_names_registry.py`` fails on an emitted name missing
from it.  Exporters, the phase tables, the analyzer (its metrics table
selects spans and events by these names) and the CI trace-validation job
all key on this vocabulary; an unregistered name would silently fall out
of every downstream view.

When instrumenting a new site, add its name here first (and to the
span-model table in ``docs/OBSERVABILITY.md``).  The registry is also
audited the other way: ``tests/obs/test_names_registry.py`` runs the
engine matrix and fails on any registered name no code path emits, so
dead vocabulary cannot accumulate.
"""

from __future__ import annotations

__all__ = ["EVENT_NAMES", "SPAN_NAMES"]

#: Closed-interval work attribution (``tracer.span``/``tracer.add_span``).
SPAN_NAMES = frozenset(
    {
        # per-task phases ("shuffle" and "checkpoint" are span *categories*
        # only, not names — the name audit removed them from this set)
        "map",
        "sort",
        "combine",
        "spill",
        "merge",
        "fetch",
        "push",
        "reduce",
        "snapshot",
        "replay",
        # journal resume: committed output re-emitted without recompute
        "journal-replay",
        # partition-cache spill: cached block bytes re-encoded to local disk
        "batch.encode",
        # whole-phase envelopes (recorded via ``add_span``)
        "map-phase",
        "reduce-phase",
    }
)

#: Instantaneous occurrences (``tracer.event``).
EVENT_NAMES = frozenset(
    {
        "node.crash",
        "task.killed",
        "map.rerun",
        "hash.spill",
        "shuffle.fetch_failed",
        "checkpoint.saved",
        "checkpoint.restored",
        "speculative.launched",
        "speculative.win",
        "speculative.lost",
        # coordinator journal / crashpoint chaos
        "journal.resume",
        "journal.commit",
        "journal.truncated",
        "chaos.crashpoint",
        # chained-job partition cache
        "cache.register",
        "cache.spill",
    }
)
