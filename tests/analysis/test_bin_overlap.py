"""The one interval binner, against the per-interval loop it replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.series import bin_overlap


def loop_overlap(edges, intervals):
    """Reference: the bucket loop ``simulator/metrics.py`` and
    ``TaskLog.counts_series`` each carried before they shared a binner."""
    out = np.zeros(len(edges) - 1)
    for start, end, weight in intervals:
        for b in range(len(out)):
            lo = max(start, edges[b])
            hi = min(end, edges[b + 1])
            if hi > lo:
                out[b] += (hi - lo) * weight
    return out


def columns(intervals):
    return [[iv[i] for iv in intervals] for i in range(3)]


class TestBinOverlap:
    def test_interval_split_across_bins(self):
        edges = np.array([0.0, 10.0, 20.0])
        assert bin_overlap(edges, [5.0], [15.0]).tolist() == [5.0, 5.0]

    def test_scalars_broadcast(self):
        edges = np.array([0.0, 10.0, 20.0])
        assert bin_overlap(edges, 0, 20, 0.5).tolist() == [5.0, 5.0]

    def test_outside_the_edges_is_dropped(self):
        edges = np.array([10.0, 20.0])
        assert bin_overlap(edges, [0.0, 25.0], [15.0, 30.0]).tolist() == [5.0]

    def test_empty_and_inverted_intervals_add_nothing(self):
        edges = np.arange(4) * 5.0
        assert bin_overlap(edges, [], []).tolist() == [0.0, 0.0, 0.0]
        assert bin_overlap(edges, [7.0, 9.0], [7.0, 2.0]).tolist() == [0.0, 0.0, 0.0]

    @given(
        st.lists(
            st.tuples(
                st.floats(-5, 60, allow_nan=False),
                st.floats(-5, 60, allow_nan=False),
                st.floats(0, 1e6, allow_nan=False),
            ),
            max_size=40,
        ),
        st.sampled_from([0.7, 5.0, 7.3, 30.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_loop_to_the_last_bit_on_uniform_buckets(self, intervals, bucket):
        edges = np.arange(int(np.ceil(50 / bucket)) + 1) * bucket
        got = bin_overlap(edges, *columns(intervals))
        assert np.array_equal(got, loop_overlap(edges, intervals))

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 200), st.just(1.0)), max_size=40
        ),
        st.integers(1, 60),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_loop_on_linspace_edges_and_integer_ticks(self, intervals, bins):
        edges = np.linspace(0.0, 173.0, bins + 1)
        got = bin_overlap(edges, *columns(intervals)[:2])
        assert np.array_equal(got, loop_overlap(edges, intervals))
