"""Framing, codecs and size estimation — including property tests."""

import collections
import enum
import sys

import repro.io.serialization

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.serialization import (
    BinaryCodec,
    TextLineCodec,
    encode_each,
    encode_frames,
    estimate_size,
    estimate_sizes,
    frame_count,
    iter_frames,
)

# Picklable scalar values for framing round-trips.
scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.booleans(),
    st.none(),
)
values = st.one_of(scalars, st.tuples(scalars, scalars), st.lists(scalars, max_size=5))


class TestFrames:
    def test_empty(self):
        assert encode_frames([]) == b""
        assert list(iter_frames(b"")) == []
        assert frame_count(b"") == 0

    @given(st.lists(values, max_size=50))
    @settings(max_examples=60)
    def test_roundtrip(self, items):
        data = encode_frames(items)
        assert list(iter_frames(data)) == items
        assert frame_count(data) == len(items)

    @given(st.lists(values, max_size=50))
    @settings(max_examples=60)
    def test_each_frame_joins_to_the_stream(self, items):
        frames = encode_each(items)
        assert len(frames) == len(items)
        assert b"".join(frames) == encode_frames(items)

    def test_truncated_header_rejected(self):
        data = encode_frames([1, 2])
        with pytest.raises(ValueError):
            list(iter_frames(data[:-1] + b""))  # cut into last payload
        with pytest.raises(ValueError):
            list(iter_frames(data + b"\x01"))  # dangling header byte

    def test_frame_count_rejects_trailing_garbage(self):
        data = encode_frames([1])
        with pytest.raises(Exception):
            frame_count(data + b"\xff\xff\xff\xff")


class TestTextLineCodec:
    def codec(self):
        return TextLineCodec((float, int, str))

    def test_roundtrip(self):
        codec = self.codec()
        records = [(1.5, 7, "/a"), (2.25, 8, "/b/c")]
        assert list(codec.decode(codec.encode(records))) == records

    def test_empty_encode(self):
        assert self.codec().encode([]) == b""
        assert list(self.codec().decode(b"")) == []

    def test_field_count_mismatch_on_encode(self):
        with pytest.raises(ValueError):
            self.codec().encode([(1.0, 2)])

    def test_malformed_line_on_decode(self):
        with pytest.raises(ValueError):
            list(self.codec().decode(b"only\ttwo\n"))

    def test_custom_delimiter(self):
        codec = TextLineCodec((int, str), delimiter=",")
        assert list(codec.decode(b"3,x\n")) == [(3, "x")]

    def test_empty_parsers_rejected(self):
        with pytest.raises(ValueError):
            TextLineCodec(())

    def test_skips_blank_lines(self):
        codec = TextLineCodec((int,))
        assert list(codec.decode(b"1\n\n2\n")) == [(1,), (2,)]


class TestBinaryCodec:
    @given(st.lists(values, max_size=30))
    @settings(max_examples=40)
    def test_roundtrip(self, records):
        codec = BinaryCodec()
        assert list(codec.decode(codec.encode(records))) == records

    def test_binary_beats_text_on_parse_free_decode(self):
        # Not a performance assertion — just that both decode identically
        # shaped records so the parsing-cost experiment is apples-to-apples.
        records = [(1.0, 2, "/x")] * 10
        text = TextLineCodec((float, int, str))
        binary = BinaryCodec()
        assert list(text.decode(text.encode(records))) == list(
            binary.decode(binary.encode(records))
        )


# -- estimate_size: the oracle -------------------------------------------------
# The body ``estimate_size`` had before it was rewritten as a loop-free
# dispatch, kept verbatim: every spill, flush and freeze point and every
# byte-valued model figure is a sum of these integers, so the rewrite must
# return the same value for every object.

_OLD_BASE_SIZES = {int: 28, float: 24, bool: 28, type(None): 16}


def _old_estimate_size(obj, _depth=0):
    t = type(obj)
    base = _OLD_BASE_SIZES.get(t)
    if base is not None:
        return base
    if t is str:
        return 49 + len(obj)
    if t is bytes or t is bytearray:
        return 33 + len(obj)
    if t in (tuple, list):
        size = sys.getsizeof(obj)
        if _depth >= 3:
            return size
        return size + sum(_old_estimate_size(x, _depth + 1) for x in obj)
    if t is dict:
        size = sys.getsizeof(obj)
        if _depth >= 3:
            return size
        return size + sum(
            _old_estimate_size(k, _depth + 1) + _old_estimate_size(v, _depth + 1)
            for k, v in obj.items()
        )
    if t is set or t is frozenset:
        size = sys.getsizeof(obj)
        if _depth >= 3:
            return size
        return size + sum(_old_estimate_size(x, _depth + 1) for x in obj)
    return sys.getsizeof(obj)


_Point = collections.namedtuple("_Point", "x y")


class _Colour(enum.IntEnum):
    RED = 1


class _Tag(str):
    pass


class _Slotted:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a, self.b = 1, "x"

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, _Slotted)


_leaves = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.none(),
    st.booleans(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    st.sampled_from(
        [
            _Point(1, "a"),
            collections.OrderedDict(a=1),
            _Colour.RED,
            _Tag("tagged"),
            _Slotted(),
        ]
    ),
)
_hashable_leaves = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.none(),
    st.booleans(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.sampled_from([_Point(1, "a"), _Colour.RED, _Tag("tagged"), _Slotted()]),
)
_hashable = st.recursive(
    _hashable_leaves,
    lambda inner: st.one_of(
        st.tuples(inner), st.tuples(inner, inner), st.frozensets(inner, max_size=3)
    ),
    max_leaves=6,
)
#: Nests to depth 5 and beyond, so the depth-3 cut is crossed.
_objects = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(inner),
        st.tuples(inner, inner, inner),
        st.lists(inner, max_size=3),
        st.dictionaries(_hashable, inner, max_size=3),
        st.sets(_hashable, max_size=3),
        st.frozensets(_hashable, max_size=3),
    ),
    max_leaves=25,
)


def _nest(obj, wrap, depth):
    for _ in range(depth):
        obj = wrap(obj)
    return obj


class TestEstimateSize:
    def test_literal_table(self):
        """The exact values (64-bit CPython 3.11/3.12) the models hang on."""
        table = [
            (0, 28),
            (2**70, 28),
            (-1, 28),
            (1.5, 24),
            (True, 28),
            (None, 16),
            ("", 49),
            ("abc", 52),
            ("\xe9\xe9\xe9", 52),
            (b"xy", 35),
            (bytearray(b"xyz"), 36),
            ((), 40),
            ((1,), 48 + 28),
            # the four workloads' map-output values and keys
            (1, 28),
            ("/page/1234", 59),
            ((1.5, "/url/7"), 56 + 24 + 55),
            (("w", (3, 4)), 56 + 50 + 56 + 28 + 28),
            (((((1, 2),),),), 48 + 48 + 48 + 56),  # depth 3: getsizeof alone
            ([], 56),
            ({}, 64),
            (set(), 216),
            (frozenset(), 216),
        ]
        for obj, expected in table:
            assert estimate_size(obj) == expected, obj

    def test_containers_count_their_elements(self):
        for obj, elements in [
            ([1, 2.5, "ab"], 28 + 24 + 51),
            ({"a": 1, 2: None}, 50 + 28 + 28 + 16),
            ({1, "a"}, 28 + 50),
            (frozenset([1.5]), 24),
            ([[1], (2.0,)], sys.getsizeof([1]) + 28 + 48 + 24),
        ]:
            assert estimate_size(obj) == sys.getsizeof(obj) + elements, obj

    def test_subclasses_are_charged_getsizeof_alone(self):
        for obj in (
            _Point(1, "a"),
            collections.OrderedDict(a=1),
            _Colour.RED,
            _Tag("tagged"),
            _Slotted(),
        ):
            assert estimate_size(obj) == sys.getsizeof(obj)

    @pytest.mark.parametrize(
        "wrap", [lambda x: (x,), lambda x: [x], lambda x: {"k": x}, lambda x: frozenset([x])]
    )
    def test_depth_cut(self, wrap):
        for depth in range(1, 7):
            obj = _nest(("leaf", 1, 2.0), wrap, depth)
            assert estimate_size(obj) == _old_estimate_size(obj)

    @given(_objects)
    @settings(max_examples=400, deadline=None)
    def test_equals_the_old_implementation(self, obj):
        assert estimate_size(obj) == _old_estimate_size(obj)

    def test_scalars_positive(self):
        for obj in (0, 1.5, True, None, "abc", b"xyz"):
            assert estimate_size(obj) > 0

    def test_string_scales_with_length(self):
        assert estimate_size("x" * 100) > estimate_size("x")

    def test_containers_include_elements(self):
        assert estimate_size([1, 2, 3]) > estimate_size([])
        assert estimate_size({"a": 1}) > estimate_size({})
        assert estimate_size((1, "abc")) > estimate_size((1,))
        assert estimate_size({1, 2}) > estimate_size(set())

    def test_deep_nesting_terminates(self):
        nested = [[[[[1] * 10] * 5] * 3]]
        assert estimate_size(nested) > 0

    @given(values)
    @settings(max_examples=60)
    def test_never_negative_or_zero(self, obj):
        assert estimate_size(obj) > 0


# -- estimate_sizes: the batch form, equal to the loop --------------------------

_ints = st.integers(min_value=-(2**70), max_value=2**70)
#: Element kinds for a tuple column.  The first four (and the int/bool
#: mix) take the column path; the rest send the segment value by value.
_COLUMN_KINDS = {
    "int": _ints,
    "bool": st.booleans(),
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=12),
    "int|bool": st.one_of(_ints, st.booleans()),
    "int|float": st.one_of(_ints, st.floats(allow_nan=False)),
    "str subclass": st.text(max_size=12).map(_Tag),
    "IntEnum": st.just(_Colour.RED),
    "nested tuple": st.tuples(_ints, st.text(max_size=3)),
    "empty tuple": st.just(()),
    "None": st.none(),
}
_columns = st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), max_size=4)
_scalar_kinds = st.sampled_from(
    [_ints, st.booleans(), st.floats(allow_nan=False), st.text(max_size=12), st.none(),
     st.binary(max_size=12), st.binary(max_size=12).map(bytearray), st.just(_Colour.RED)]
)  # fmt: skip


def _grown(items):
    """``items`` as a list built by appends: same length, more capacity."""
    out = []
    for item in items:
        out.append(item)
    return out


#: Lists of one length and different capacity: ``getsizeof`` tells them apart.
_lists = st.integers(0, 6).map(
    lambda n: st.tuples(st.lists(_ints, min_size=n, max_size=n), st.booleans()).map(
        lambda built: _grown(built[0]) if built[1] else list(built[0])
    )
)
#: Values dropped into a segment to spoil its path: another width, a
#: nested or empty tuple, a scalar of another class, anything at all.
_spoilers = st.one_of(
    st.tuples(_ints, _ints, _ints), st.tuples(st.tuples(_ints)), st.just(()), _ints,
    st.floats(allow_nan=False), st.text(max_size=5), st.none(), _objects,
)  # fmt: skip


@st.composite
def _segments(draw):
    """A segment of one shape, its length on either side of the 16-value
    cut below which the sizer loops, with up to two spoilers dropped in."""
    n = draw(st.sampled_from([0, 1, 2, 15, 16, 17, 40]))
    kinds = draw(st.one_of(
        _columns.map(lambda cols: st.tuples(*(_COLUMN_KINDS[k] for k in cols))),
        _scalar_kinds,
        _lists,
    ))  # fmt: skip
    segment = draw(st.lists(kinds, min_size=n, max_size=n))
    for at, spoiler in draw(st.lists(st.tuples(st.integers(0, 40), _spoilers), max_size=2)):
        segment.insert(min(at, len(segment)), spoiler)
    return segment


class TestEstimateSizes:
    @given(_segments())
    @settings(max_examples=600, deadline=None)
    def test_equals_the_per_value_loop(self, values):
        assert estimate_sizes(values) == [estimate_size(v) for v in values]

    def test_named_segments(self):
        for values in [
            [],
            [(1.5, "/a")],
            [(1, True), (False, 2)] * 8,  # an int/bool column: 28 each
            [(1, 2.0), (1.0, 2)] * 8,  # int/float columns: value by value
            [(_Tag("a"), 1), ("b", 2)] * 8,
            [(_Colour.RED, 1), (1, 1)] * 8,
            [(1, 2)] * 15 + [(1, 2, 3)],
            [((1,), 2), ((1,), 2)] * 8,
            [(), ()] * 8,
            [[1, 2, 3], _grown([1, 2, 3])] * 8,
            [None, None] * 8,
            [b"ab", b""] * 8,
            [1, True] * 8,
        ]:
            assert estimate_sizes(values) == [estimate_size(v) for v in values], values

    def test_workload_segments_size_without_the_per_value_estimator(self, monkeypatch):
        def fail(obj, _depth=0):
            raise AssertionError("sized value by value")

        monkeypatch.setattr(repro.io.serialization, "estimate_size", fail)
        sessionize = [(1.5, "/url/7"), (2.0, "/a")] * 8
        assert estimate_sizes(sessionize) == [56 + 24 + 55, 56 + 24 + 51] * 8
        assert estimate_sizes([(3, 4), (5, True)] * 8) == [56 + 28 + 28] * 16
        assert estimate_sizes([1] * 16) == [28] * 16
        assert estimate_sizes(["/page/1234"] * 16) == [59] * 16
