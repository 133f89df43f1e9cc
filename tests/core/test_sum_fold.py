"""The one fold against a per-pair reference.

A table of fixed-size states (``SIZE_BYTES``) checks its budget on a hit
only while a shed is due, and a ``SumState`` table adds each value to
``total`` without calling ``update`` / ``merge``; MIN, MAX and top-k
states grow, so their tables check after every pair.  :func:`reference`
below folds a pair at a time through the states' own methods and checks
the budget after every pair.  Streams mix raw values with spilled states
and are cut at random points; tables run with and without a budget, a
capacity, a shed, the map-side combiner's flush and its key-facts memo.
(``test_collect_fold.py`` is the reference for collect tables.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import COUNT, MAX, MIN, SUM, top_k
from repro.core.hash_tables import SLOT_BYTES, AccountedStateTable, SpilledState
from repro.io.serialization import estimate_size
from repro.mapreduce.partition import KeyFacts
from tests.core.per_pair import cut, remeasured


def reference(table, pairs, flushes):
    """Fold a pair at a time, checking the budget after every pair; a flush
    (when ``flushes`` is a list) appends ``(pair index, states)`` and empties
    the table."""
    misses = []
    for index, (key, value) in enumerate(pairs):
        state = table.states.get(key)
        if state is None:
            if table.frozen or len(table.states) >= table.capacity:
                misses.append((key, value))
                continue
            state = table.states[key] = table.aggregator.initial()
            table.used_bytes += estimate_size(key) + SLOT_BYTES + state.size_bytes()
        table.probes += 1
        spilled = isinstance(value, SpilledState)
        table.used_bytes += state.merge(value.state) if spilled else state.update(value)
        if table.budget is None:
            continue
        if not table.frozen:
            if flushes is not None and table.used_bytes >= table.budget:
                flushes.append((index, results(table)))
                table.clear()
            elif table.used_bytes > table.budget:
                table.frozen, table.frozen_bytes = True, table.used_bytes
        elif table.shed and table.used_bytes > 2 * table.budget:
            by_size = sorted(table.states.items(), key=lambda kv: kv[1].size_bytes(), reverse=True)
            for victim, _ in by_size:
                if table.used_bytes <= table.budget:
                    break
                misses.append((victim, SpilledState(table.pop(victim))))
    return misses


def results(table):
    return [(key, result(state)) for key, state in table.items()]


def result(state):
    """A state's result; ``None`` for a MIN/MAX state that merged only an
    empty spilled state, which has none."""
    try:
        return repr(state.result())
    except ValueError:
        return None


class Chunk(list):
    """A chunk of the stream that tells which pair ``fold`` has reached."""

    def __init__(self, pairs, start, cursor):
        super().__init__(pairs)
        self.start, self.cursor = start, cursor

    def __iter__(self):
        for offset, pair in enumerate(list.__iter__(self)):
            self.cursor[0] = self.start + offset
            yield pair


def view(table, misses, flushes):
    def shown(value):
        return ("spilled", result(value.state)) if isinstance(value, SpilledState) else value

    return (
        results(table),
        [(key, shown(value)) for key, value in misses],
        table.used_bytes,
        table.frozen,
        table.frozen_bytes,
        table.probes,
        flushes,
    )


_keys = st.one_of(st.integers(0, 12), st.sampled_from(["a", "b", "1", 1.0, True]))
#: One and two int-key admissions exactly: a flush lands on ``used == budget``.
_ADMISSION = estimate_size(0) + SLOT_BYTES + 64
#: 0, 1 and 60 freeze on the first admission with a shed due at the next hit.
_budgets = st.sampled_from([None, 0, 1, 60, _ADMISSION, 2 * _ADMISSION, 500, 1000])
_raw = st.one_of(st.integers(-5, 50), st.floats(-10, 10))
#: A raw value, or a spilled state folded from a few of them.
_value = st.one_of(_raw, st.lists(_raw, max_size=3).map(lambda vs: ("spill", vs)))


class TestFixedSizeFold:
    @given(
        st.sampled_from(["sum", "count", "min", "max", "top2"]),
        st.lists(st.tuples(_keys, _value), max_size=120),
        st.lists(st.integers(0, 120), max_size=5),
        _budgets,
        st.one_of(st.none(), st.integers(1, 8)),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=750, deadline=None)
    def test_the_inline_fold_is_the_per_pair_reference(
        self, which, drawn, cuts, budget, capacity, shed, flushing, with_facts
    ):
        aggregator = {"sum": SUM, "count": COUNT, "min": MIN, "max": MAX, "top2": top_k(2)}[which]

        def value(v):
            if not isinstance(v, tuple):
                return v
            state = aggregator.initial()
            for raw in v[1]:
                state.update(raw)
            return SpilledState(state)

        pairs = [(key, value(v)) for key, v in drawn]
        rule = {"budget": budget, "shed": shed and budget is not None}
        if capacity is not None:
            rule["capacity"] = capacity
        expected_flushes = [] if flushing else None
        ref = AccountedStateTable(aggregator, **rule)
        ref_misses = reference(ref, pairs, expected_flushes)

        facts = KeyFacts(3, SLOT_BYTES) if with_facts else None
        table = AccountedStateTable(aggregator, facts=facts, **rule)
        cursor, flushes = [None], []

        def flush():
            flushes.append((cursor[0], results(table)))
            table.clear()

        misses, start = [], 0
        for chunk in cut(pairs, cuts):
            misses += table.fold(Chunk(chunk, start, cursor), flush if flushing else None)
            start += len(chunk)
        assert view(table, misses, flushes if flushing else None) == view(
            ref, ref_misses, expected_flushes
        )
        assert table.used_bytes == remeasured(table)
