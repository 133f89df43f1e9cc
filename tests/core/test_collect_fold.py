"""The collect fold against the per-pair references.

A collect table (``COLLECT`` or session states) sizes a fold's values in
one ``estimate_sizes`` call and appends them itself; the references in
``tests/core/per_pair.py`` fold a pair at a time through
``CollectState.update`` and spill a pair at a time.  Streams are cut at
random points and carry values shaped like ``sessionize``'s (``(float,
str)``), like ``invindex``'s (``(int, int)``) or of mixed types, which
send a segment down the sizer's value-by-value path.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import COLLECT, sessionize
from repro.core.hash_tables import AccountedStateTable, SpilledState
from repro.core.incremental import IncrementalHash
from repro.mapreduce.counters import Counters
from tests.core.per_pair import KeepingDisk, cut, incremental_update, table_fold
from tests.core.test_hybrid_hash import run_grouper
from tests.core.test_incremental import observe as observe_incremental

_session = st.tuples(st.floats(0, 1e6), st.text("/abc", max_size=30))
_index = st.tuples(st.integers(0, 500), st.integers(0, 5000))
_mixed = st.one_of(
    _session,
    _index,
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.none(),
    st.booleans(),
    st.tuples(st.integers(), st.floats(0, 1)),
    st.lists(st.integers(), max_size=3),
)
#: The sessionize and invindex map outputs, and a mix sized value by value.
SHAPES = {"session": _session, "index": _index, "mixed": _mixed}


def streams(shape, max_size=200):
    keys = st.one_of(st.integers(0, 30), st.sampled_from(["k", "1", 1.0, True]))
    return st.lists(st.tuples(keys, SHAPES[shape]), max_size=max_size)


#: ``(shape, pairs)``: a stream of one value shape.
shaped_streams = st.sampled_from(sorted(SHAPES)).flatmap(
    lambda shape: st.tuples(st.just(shape), streams(shape))
)


def aggregator_for(shape, which):
    # A session state sorts by each value's first field: mixed values collect.
    return sessionize(50.0) if which == "session" and shape != "mixed" else COLLECT


class RecordingTable(AccountedStateTable):
    """Records ``(used_bytes before it, victims)`` for every shed."""

    __slots__ = ("sheds",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sheds = []

    def _shed(self, misses):
        start, before = len(misses), self.used_bytes
        popped = super()._shed(misses)
        self.sheds.append((before, [key for key, _ in misses[start:]]))
        return popped


def table_view(table, misses):
    return (
        [(k, pickle.dumps(s.values), s.size_bytes()) for k, s in table.items()],
        table.used_bytes,
        table.probes,
        table.frozen,
        table.frozen_bytes,
        [pickle.dumps(miss) for miss in misses],
    )


class TestCollectTableFold:
    @given(
        shaped_streams,
        st.lists(st.integers(0, 200), max_size=5),
        st.sampled_from([1, 600, 2500, 1 << 20]),
        st.booleans(),
        st.sampled_from(["collect", "session"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_bytes_freeze_sheds_and_misses_however_the_stream_is_cut(
        self, shaped, cuts, budget, shed, which
    ):
        shape, pairs = shaped
        aggregator = aggregator_for(shape, which)
        reference = AccountedStateTable(aggregator, budget=budget, shed=shed)
        ref_misses, ref_sheds, totals = [], [], []
        for pair in pairs:
            ref_misses += table_fold(reference, [pair], ref_sheds)
            totals.append(reference.used_bytes)
        table = RecordingTable(aggregator, budget=budget, shed=shed)
        misses = []
        for chunk in cut(pairs, cuts):
            misses += table.fold(chunk)
        assert table_view(table, misses) == table_view(reference, ref_misses)
        assert table.sheds == ref_sheds
        if reference.frozen:
            # Every pair before the freeze grows the total, so the freeze pair
            # is the one whose running total the table latched.
            freeze_pair = next(i for i, used in enumerate(totals) if used > budget)
            assert totals.index(table.frozen_bytes) == freeze_pair


class TestCollectBackends:
    @given(
        shaped_streams,
        st.lists(st.integers(0, 200), max_size=5),
        st.sampled_from([1, 700, 3000, 1 << 20]),
        st.sampled_from(["collect", "session"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_hybrid_hash_spills_the_same_bytes(self, shaped, cuts, memory, which):
        shape, pairs = shaped
        aggregator = aggregator_for(shape, which)
        _, per_pair = run_grouper(pairs, None, memory, aggregator)
        _, batched = run_grouper(pairs, cuts, memory, aggregator)
        assert per_pair == batched

    @given(
        shaped_streams,
        st.lists(st.integers(0, 200), max_size=5),
        st.sampled_from([1, 700, 3000]),
        st.sampled_from(["collect", "session"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_budgeted_incremental_overflows_the_same_bytes(self, shaped, cuts, memory, which):
        shape, pairs = shaped
        aggregator = aggregator_for(shape, which)
        runs = []
        for cuts_or_none in (None, cuts):
            disk, counters = KeepingDisk(), Counters()
            ih = IncrementalHash(aggregator, memory_bytes=memory, disk=disk, counters=counters)
            if cuts_or_none is None:
                for key, value in pairs:
                    incremental_update(ih, key, value)
            else:
                for chunk in cut(pairs, cuts_or_none):
                    ih.update_batch(chunk)
            runs.append(observe_incremental(ih, disk, counters))
        assert runs[0] == runs[1]

    def test_a_spilled_state_in_a_collect_segment_merges(self):
        inner = COLLECT.initial()
        inner.update((1.5, "/a"))
        table = AccountedStateTable(COLLECT)
        table.fold([("u", (0.5, "/b")), ("u", SpilledState(inner)), ("v", (2.5, "/c"))])
        assert dict(table.results()) == {"u": [(0.5, "/b"), (1.5, "/a")], "v": [(2.5, "/c")]}
        assert [s.size_bytes() for _, s in table.items()] == [64 + 2 * (56 + 24 + 51 + 8), 64 + 139]
