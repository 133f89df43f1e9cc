"""Unit tests for the individual detector building blocks."""

from dataclasses import dataclass

import pytest

from repro.san.harness import fingerprint


class TestFingerprint:
    def test_stable_for_equal_values(self):
        assert fingerprint({"a": 1, "b": [2, 3]}) == fingerprint({"b": [2, 3], "a": 1})

    def test_differs_on_value_change(self):
        assert fingerprint([1, 2, 3]) != fingerprint([1, 2, 4])

    def test_order_independent_for_dicts_ordered_for_lists(self):
        assert fingerprint({1: "a", 2: "b"}) == fingerprint({2: "b", 1: "a"})
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_handles_unhashable_and_nested(self):
        spec = {"rows": [{"k": memoryview(b"xy")}], "n": 7}
        assert isinstance(fingerprint(spec), str)
        assert len(fingerprint(spec)) == 16

    def test_dataclass_fingerprint_tracks_fields(self):
        @dataclass
        class Spec:
            part: int

        assert fingerprint(Spec(1)) != fingerprint(Spec(2))
        assert fingerprint(Spec(1)) == fingerprint(Spec(1))


@pytest.mark.parametrize("value", [None, True, 1, 1.5, "s", b"b", (1, 2)])
def test_fingerprint_primitives_round_trip(value):
    assert fingerprint(value) == fingerprint(value)
