"""Unit tests for the individual detector building blocks."""

import pickle
import threading
from dataclasses import dataclass

import pytest

from repro.san.harness import fingerprint
from repro.san.pickles import check_spec, fork_unsafe_member, structural_diff
from repro.san.resources import ResourceTracker
from repro.san.sentinels import SentinelTrip, sentinel_targets


class TestPickleChecks:
    def test_clean_spec_passes(self):
        assert check_spec({"part": 3, "path": "run-0", "keys": (1, 2)}) is None

    def test_lock_on_spec_is_san202(self):
        vid, msg = check_spec({"part": 0, "guard": threading.Lock()})
        assert vid == "SAN202"
        assert "guard" in msg

    def test_nested_open_file_is_san202(self, tmp_path):
        with open(tmp_path / "f", "w") as fh:
            vid, msg = check_spec({"io": [{"handle": fh}]})
        assert vid == "SAN202"
        assert "file handle" in msg

    def test_generator_on_spec_is_san202(self):
        vid, _ = check_spec({"rows": (i for i in range(3))})
        assert vid == "SAN202"

    def test_unpicklable_spec_is_san102(self):
        vid, msg = check_spec({"fn": lambda x: x})
        assert vid == "SAN102"
        assert "pickle" in msg

    def test_structural_diff_catches_value_and_shape_drift(self):
        assert structural_diff({"n": 1}, {"n": 2}) is not None
        assert structural_diff([1, 2], [1, 2, 3]) is not None
        assert structural_diff((1, "a"), [1, "a"]) is not None  # type change
        assert structural_diff({"n": 1}, {"n": 1}) is None

    def test_structural_diff_memoryview_bytes_equivalence(self):
        assert structural_diff(memoryview(b"abc"), b"abc") is None
        assert structural_diff(memoryview(b"abc"), b"abd") is not None

    def test_structural_diff_reports_path(self):
        diff = structural_diff({"a": [1, 2]}, {"a": [1, 3]})
        assert diff is not None
        assert "spec['a'][1]" in diff

    def test_fork_unsafe_member_none_for_plain_data(self):
        assert fork_unsafe_member({"a": 1, "b": [2, (3, "x")]}) is None


class TestResourceTracker:
    def test_acquire_release_roundtrip(self):
        tracker = ResourceTracker()
        token = tracker.acquire("span", "map")
        assert tracker.live_count == 1
        tracker.release(token)
        assert tracker.live_count == 0
        assert tracker.take_leaks() == []

    def test_take_leaks_pops_live_records(self):
        tracker = ResourceTracker()
        tracker.acquire("disk.writer", "run-0", stack=(("f.py", 1, "g"),))
        leaks = tracker.take_leaks()
        assert len(leaks) == 1
        assert leaks[0].kind == "disk.writer"
        assert leaks[0].stack == (("f.py", 1, "g"),)
        assert tracker.take_leaks() == []

    def test_exclude_kinds_keeps_records(self):
        tracker = ResourceTracker()
        tracker.acquire("journal.segment", "seg-0")
        assert tracker.take_leaks(exclude_kinds=("journal.segment",)) == []
        assert tracker.live_count == 1

    def test_forget_since_drops_only_newer(self):
        tracker = ResourceTracker()
        tracker.acquire("span", "old")
        marker = tracker.seq
        tracker.acquire("span", "new")
        tracker.forget_since(marker)
        leaks = tracker.take_leaks()
        assert [r.name for r in leaks] == ["old"]

    def test_classify_pre_exception_leak_as_san205(self):
        tracker = ResourceTracker()
        tracker.acquire("span", "before")
        tracker.note_exception()
        tracker.acquire("span", "after")
        by_name = {r.name: r for r in tracker.take_leaks()}
        assert tracker.classify(by_name["before"]) == "SAN205"
        assert tracker.classify(by_name["after"]) == "SAN103"

    def test_forget_live_clears_everything(self):
        tracker = ResourceTracker()
        tracker.acquire("span", "a")
        tracker.note_exception()
        tracker.forget_live()
        assert tracker.take_leaks() == []
        # The exception marker is reset too: a fresh leak is SAN103.
        tracker.acquire("span", "b")
        (record,) = tracker.take_leaks()
        assert tracker.classify(record) == "SAN103"


class TestSentinels:
    def test_targets_cover_time_and_global_random(self):
        dotted = {d for _, _, d in sentinel_targets()}
        assert "time.time" in dotted
        assert "random.random" in dotted
        assert "os.urandom" in dotted

    def test_targets_skip_nested_modules(self):
        # datetime.datetime.now lives on a C type and cannot be patched;
        # the target list must not offer it.
        for module_name, _, _ in sentinel_targets():
            assert "." not in module_name

    def test_targets_are_importable_attrs(self):
        import importlib

        for module_name, attr, dotted in sentinel_targets():
            mod = importlib.import_module(module_name)
            assert callable(getattr(mod, attr)), dotted

    def test_sentinel_trip_is_picklable(self):
        trip = SentinelTrip("time.time", "wall-clock read")
        clone = pickle.loads(pickle.dumps(trip))
        assert clone.dotted == "time.time"
        assert clone.message == "wall-clock read"


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
