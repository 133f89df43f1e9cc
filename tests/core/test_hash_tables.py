"""HashFamily and the accounted state table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    AVG,
    COLLECT,
    COUNT,
    MAX,
    MIN,
    SUM,
    Aggregator,
    CountState,
    SumCountState,
    sessionize,
    top_k,
)
from repro.core.hash_tables import AccountedStateTable, HashFamily, SpilledState
from repro.core.hotset import HotSetIncrementalHash
from repro.core.hybrid_hash import HybridHashGrouper
from repro.core.incremental import IncrementalHash
from repro.io.disk import LocalDisk
from repro.io.serialization import estimate_size
from tests.core.per_pair import remeasured, table_fold


class TestHashFamily:
    def test_members_deterministic(self):
        fam = HashFamily(seed=1)
        h = fam.member(0)
        assert h("key") == h("key")
        assert fam.member(0)("key") == h("key")

    def test_members_differ_across_indices(self):
        fam = HashFamily(seed=1)
        h0, h1 = fam.member(0), fam.member(1)
        keys = [f"k{i}" for i in range(200)]
        same = sum(1 for k in keys if h0(k) % 16 == h1(k) % 16)
        # Independent functions agree on a 16-bucket assignment ~1/16th
        # of the time; identical ones would agree always.
        assert same < 50

    def test_seeds_differ(self):
        a = HashFamily(seed=1).member(0)
        b = HashFamily(seed=2).member(0)
        keys = [f"k{i}" for i in range(100)]
        assert any(a(k) != b(k) for k in keys)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            HashFamily().member(-1)

    @given(st.integers(0, 5), st.text(max_size=20))
    @settings(max_examples=50)
    def test_output_in_field(self, index, key):
        h = HashFamily(seed=7).member(index)
        assert 0 <= h(key) < (1 << 61) - 1

    def test_bucket_distribution_roughly_uniform(self):
        h = HashFamily(seed=3).member(2)
        buckets = [0] * 8
        for i in range(8000):
            buckets[h(i) % 8] += 1
        assert min(buckets) > 8000 / 8 / 2


class TestAccountedStateTable:
    def test_update_creates_and_folds(self):
        t = AccountedStateTable(COUNT)
        t.fold([("a", None)])
        t.fold([("a", None)])
        t.fold([("b", None)])
        assert len(t) == 2
        assert dict(t.results()) == {"a": 2, "b": 1}

    def test_contains_and_get(self):
        t = AccountedStateTable(SUM)
        t.fold([("a", 5)])
        assert "a" in t.states and "b" not in t.states
        assert dict(t.results()) == {"a": 5}

    def test_merge_state(self):
        t = AccountedStateTable(COUNT)
        other = CountState()
        other.n = 10
        assert t.fold([("a", SpilledState(other))]) == []
        t.fold([("a", None)])
        assert dict(t.results()) == {"a": 11}

    def test_used_bytes_grows_with_keys(self):
        t = AccountedStateTable(COUNT)
        empty = t.used_bytes
        for i in range(100):
            t.fold([(f"key-{i}", None)])
        assert t.used_bytes > empty + 100 * 50

    def test_used_bytes_grows_with_collect_values(self):
        t = AccountedStateTable(COLLECT)
        t.fold([("k", "x")])
        one = t.used_bytes
        for _ in range(50):
            t.fold([("k", "y" * 50)])
        assert t.used_bytes > one + 50 * 50

    def test_pop_releases_budget(self):
        t = AccountedStateTable(COLLECT)
        t.fold([("a", "x" * 100)])
        t.fold([("b", "y")])
        before = t.used_bytes
        state = t.pop("a")
        assert state.result() == ["x" * 100]
        assert t.used_bytes < before
        assert "a" not in t.states

    def test_clear(self):
        t = AccountedStateTable(COUNT)
        t.fold([("a", None)])
        t.clear()
        assert len(t) == 0
        assert t.used_bytes == 0

    def test_probes_counted(self):
        t = AccountedStateTable(COUNT)
        for i in range(7):
            t.fold([(i % 3, None)])
        assert t.probes == 7


# -- the running total: used_bytes against a full re-measurement ---------------

_ints = st.integers(-50, 50)
#: MIN/MAX change size when ``best`` does: strings of varying length.
_words = st.text("abc", max_size=9)
_clicks = st.tuples(st.floats(0, 100), st.text("xy", max_size=6))
_anything = st.one_of(_ints, _words, _clicks, st.none())

#: Every aggregator with values its state accepts.
AGGREGATORS = {
    "count": (COUNT, _anything),
    "sum": (SUM, _ints),
    "sumcount": (Aggregator("sumcount", SumCountState), _ints),
    "avg": (AVG, _ints),
    "min": (MIN, _words),
    "max": (MAX, _words),
    "top_k": (top_k(3), _ints),
    "collect": (COLLECT, _anything),
    "sessionize": (sessionize(5.0), _clicks),
}
_keys = st.one_of(st.integers(0, 6), st.sampled_from(["a", "bb", 1.0, True, (1, "a"), None]))


def _ops(values):
    return st.lists(
        st.one_of(
            st.tuples(st.just("fold_one"), _keys, values),
            st.tuples(st.just("fold"), _keys, st.lists(values, max_size=4)),
            st.tuples(st.just("merge"), _keys, st.lists(values, max_size=4)),
            st.tuples(st.just("pop"), st.integers(0, 10), st.none()),
            st.tuples(st.just("clear"), st.none(), st.none()),
        ),
        max_size=40,
    )


class TestRunningTotal:
    """States report their own growth; the table never re-measures them."""

    @pytest.mark.parametrize("name", sorted(AGGREGATORS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_used_bytes_equals_a_full_remeasurement(self, name, data):
        aggregator, values = AGGREGATORS[name]
        table = AccountedStateTable(aggregator)
        probes = 0
        for op, key, arg in data.draw(_ops(values)):
            if op == "fold_one":
                table.fold([(key, arg)])
                probes += 1
            elif op == "fold":
                # A collect table sizes these in one ``estimate_sizes`` call.
                table.fold([(key, value) for value in arg])
                probes += len(arg)
            elif op == "merge":
                other = aggregator.initial()
                for value in arg:
                    other.update(value)
                # A SUM partial is its total, folded like a value.
                table.fold([(key, other.result() if name == "sum" else SpilledState(other))])
                probes += 1
            elif op == "pop":
                # By a key the table holds (as eviction does): ``1`` and
                # ``1.0`` share a slot but not a size estimate.
                resident = [k for k, _ in table.items()]
                if resident:
                    table.pop(resident[key % len(resident)])
            else:
                table.clear()
            assert table.used_bytes == remeasured(table)
        assert table.probes == probes

    @pytest.mark.parametrize("name", sorted(AGGREGATORS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_update_and_merge_return_the_growth(self, name, data):
        aggregator, values = AGGREGATORS[name]
        state = aggregator.initial()
        for value in data.draw(st.lists(values, max_size=12)):
            before = state.size_bytes()
            assert state.update(value) == state.size_bytes() - before
        other = aggregator.initial()
        for value in data.draw(st.lists(values, max_size=12)):
            other.update(value)
        before = state.size_bytes()
        assert state.merge(other) == state.size_bytes() - before

    def test_a_state_that_reports_no_growth_fails_on_its_first_fold(self):
        class Legacy(CountState):
            def update(self, value):
                self.n += 1  # the pre-growth protocol: returns None

        table = AccountedStateTable(Aggregator("legacy", Legacy))
        with pytest.raises(TypeError):
            table.fold([("k", 1)])


# -- the fold: admission rules, freeze and shed ------------------------------------

#: A table rule and the reference admission it stands for.
RULES = {
    "none": {},
    "capacity": {"capacity": 3},
    "budget": {"budget": 700},
    "shed": {"budget": 700, "shed": True},
    "one_byte": {"budget": 1, "shed": True},
}


def snapshot(table, misses):
    return (
        [(k, s.result()) for k, s in table.items()],
        table.used_bytes,
        table.probes,
        table.frozen,
        table.frozen_bytes,
        [(k, v.state.result() if isinstance(v, SpilledState) else v) for k, v in misses],
    )


class TestFold:
    """``fold`` is the per-pair reference over any cut of the stream."""

    @pytest.mark.parametrize("rule", sorted(RULES))
    @given(
        pairs=st.lists(st.tuples(_keys, st.text("ab", max_size=30)), max_size=80),
        cuts=st.lists(st.integers(0, 80), max_size=4),
        as_state=st.lists(st.booleans(), min_size=80, max_size=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_fold_is_the_per_pair_reference(self, rule, pairs, cuts, as_state):
        def values():
            out = []
            for (key, value), wrap in zip(pairs, as_state):
                if wrap:
                    state = COLLECT.initial()
                    state.update(value)
                    value = SpilledState(state)
                out.append((key, value))
            return out

        reference = AccountedStateTable(COLLECT, **RULES[rule])
        expected = snapshot(reference, table_fold(reference, values()))
        table = AccountedStateTable(COLLECT, **RULES[rule])
        stream = values()
        edges = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
        misses = []
        for a, b in zip(edges, edges[1:]):
            misses += table.fold(stream[a:b])
        assert snapshot(table, misses) == expected
        assert table.used_bytes == remeasured(table)

    def test_the_budget_freezes_on_the_pair_that_passes_it(self):
        table = AccountedStateTable(COUNT, budget=500)
        misses = table.fold([(i, None) for i in range(5)])
        assert table.frozen and len(table) == 3 == table.probes
        assert table.frozen_bytes == table.used_bytes > 500
        assert misses == [(3, None), (4, None)]

    def test_a_shed_pops_the_largest_states_onto_the_misses(self):
        # "b" freezes the table, "c" misses, and "b" then passes 2 x budget.
        table = AccountedStateTable(COLLECT, budget=400, shed=True)
        misses = table.fold([("a", "x"), ("b", "y"), ("c", "z"), ("b", "y" * 300)])
        assert table.frozen and misses[0] == ("c", "z")
        assert misses[1][0] == "b" and isinstance(misses[1][1], SpilledState)
        assert misses[1][1].state.result() == ["y", "y" * 300]
        assert table.used_bytes <= 400 and table.probes == 3 and len(misses) == 2

    def test_spilled_state_pickles_under_its_first_module_path(self):
        # Every spilled-state frame carries this path: moving it would
        # change spill bytes.
        import pickle

        assert b"repro.core.hybrid_hash" in pickle.dumps(SpilledState(None))
        assert type(pickle.loads(pickle.dumps(SpilledState(1)))) is SpilledState


class TestOneFold:
    def test_no_backend_folds_a_chunk_through_the_per_pair_update(self):
        chunk = [(f"k{i % 40}", 1) for i in range(400)]
        backends = [
            (HybridHashGrouper(LocalDisk(), "hh", 600, aggregator=SUM), "add_batch", "finish"),
            (IncrementalHash(SUM, memory_bytes=600, disk=LocalDisk()), "update_batch", "results"),
            (HotSetIncrementalHash(SUM, LocalDisk(), "hot", capacity=4, refresh_interval=50),
             "update_batch", "results"),
        ]  # fmt: skip
        for backend, fold, drain in backends:
            getattr(backend, fold)(chunk)
            assert dict(getattr(backend, drain)()) == {f"k{i}": 10 for i in range(40)}
