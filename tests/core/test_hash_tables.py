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
from repro.core.hash_tables import AccountedStateTable, HashFamily
from repro.io.serialization import estimate_size


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
        t.update("a", None)
        t.update("a", None)
        t.update("b", None)
        assert len(t) == 2
        assert dict(t.results()) == {"a": 2, "b": 1}

    def test_contains_and_get(self):
        t = AccountedStateTable(SUM)
        t.update("a", 5)
        assert "a" in t.states and "b" not in t.states
        assert dict(t.results()) == {"a": 5}

    def test_merge_state(self):
        t = AccountedStateTable(COUNT)
        other = CountState()
        other.n = 10
        t.merge_state("a", other)
        t.update("a", None)
        assert dict(t.results()) == {"a": 11}

    def test_used_bytes_grows_with_keys(self):
        t = AccountedStateTable(COUNT)
        empty = t.used_bytes
        for i in range(100):
            t.update(f"key-{i}", None)
        assert t.used_bytes > empty + 100 * 50

    def test_used_bytes_grows_with_collect_values(self):
        t = AccountedStateTable(COLLECT)
        t.update("k", "x")
        one = t.used_bytes
        for _ in range(50):
            t.update("k", "y" * 50)
        assert t.used_bytes > one + 50 * 50

    def test_pop_releases_budget(self):
        t = AccountedStateTable(COLLECT)
        t.update("a", "x" * 100)
        t.update("b", "y")
        before = t.used_bytes
        state = t.pop("a")
        assert state.result() == ["x" * 100]
        assert t.used_bytes < before
        assert "a" not in t.states

    def test_clear(self):
        t = AccountedStateTable(COUNT)
        t.update("a", None)
        t.clear()
        assert len(t) == 0
        assert t.used_bytes == 0

    def test_probes_counted(self):
        t = AccountedStateTable(COUNT)
        for i in range(7):
            t.update(i % 3, None)
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
            st.tuples(st.just("update"), _keys, values),
            st.tuples(st.just("merge"), _keys, st.lists(values, max_size=4)),
            st.tuples(st.just("pop"), st.integers(0, 10), st.none()),
            st.tuples(st.just("clear"), st.none(), st.none()),
        ),
        max_size=40,
    )


def remeasured(table):
    return sum(estimate_size(k) + 104 + state.size_bytes() for k, state in table.items())


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
            if op == "update":
                table.update(key, arg)
                probes += 1
            elif op == "merge":
                other = aggregator.initial()
                for value in arg:
                    other.update(value)
                table.merge_state(key, other)
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
            table.update("k", 1)
