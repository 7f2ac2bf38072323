"""Unit tests for repro.trace.model."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.api import optimize_placement
from repro.dwm.config import DWMConfig
from repro.errors import TraceError
from repro.memory.batch_sim import resolve_trace, simulate_vectorized
from repro.trace.binio import open_binary, save_binary
from repro.trace.kernels import KERNELS
from repro.trace.model import (
    Access,
    AccessKind,
    AccessTrace,
    TracedArray,
    TracedScalar,
    TraceRecorder,
)
from repro.trace.synthetic import markov_trace


class TestAccessKind:
    def test_parse_letters(self):
        assert AccessKind.parse("R") is AccessKind.READ
        assert AccessKind.parse("w") is AccessKind.WRITE

    def test_parse_words(self):
        assert AccessKind.parse("read") is AccessKind.READ
        assert AccessKind.parse("WRITE") is AccessKind.WRITE

    def test_parse_invalid_raises(self):
        with pytest.raises(TraceError):
            AccessKind.parse("X")


class TestAccess:
    def test_defaults_to_read(self):
        assert Access("a").kind is AccessKind.READ

    def test_kind_coerced_from_string(self):
        assert Access("a", "W").is_write

    def test_empty_item_raises(self):
        with pytest.raises(TraceError):
            Access("")

    def test_str(self):
        assert str(Access("x", "W")) == "W x"

    def test_frozen_and_hashable(self):
        assert hash(Access("a")) == hash(Access("a"))


class TestAccessTraceConstruction:
    def test_from_strings(self):
        trace = AccessTrace(["a", "b", "a"])
        assert len(trace) == 3
        assert all(not access.is_write for access in trace)

    def test_from_tuples(self):
        trace = AccessTrace([("a", "R"), ("b", "W")])
        assert trace[1].is_write

    def test_from_access_objects(self):
        trace = AccessTrace([Access("a"), Access("b", "W")])
        assert trace[0].item == "a"

    def test_bad_entry_raises(self):
        with pytest.raises(TraceError):
            AccessTrace([42])

    def test_from_items_classmethod(self):
        trace = AccessTrace.from_items(["x", "y", "x"], name="seq")
        assert trace.name == "seq"
        assert trace.item_sequence == ("x", "y", "x")


class TestAccessTraceViews:
    def test_items_first_touch_order(self, tiny_trace):
        assert tiny_trace.items == ("a", "b", "c")

    def test_num_items(self, tiny_trace):
        assert tiny_trace.num_items == 3

    def test_frequencies(self, tiny_trace):
        frequencies = tiny_trace.frequencies()
        assert frequencies["a"] == 2
        assert frequencies["b"] == 2
        assert frequencies["c"] == 1

    def test_read_write_counts(self, tiny_trace):
        reads, writes = tiny_trace.read_write_counts()
        assert (reads, writes) == (4, 1)

    def test_adjacent_pairs(self):
        trace = AccessTrace(["a", "b", "b", "c"])
        assert list(trace.adjacent_pairs()) == [
            ("a", "b"),
            ("b", "b"),
            ("b", "c"),
        ]

    def test_equality_ignores_name(self):
        assert AccessTrace(["a"], name="x") == AccessTrace(["a"], name="y")

    def test_hashable(self):
        assert hash(AccessTrace(["a", "b"])) == hash(AccessTrace(["a", "b"]))

    def test_slice_returns_trace(self, tiny_trace):
        head = tiny_trace[:2]
        assert isinstance(head, AccessTrace)
        assert len(head) == 2

    def test_repr_mentions_counts(self, tiny_trace):
        assert "n_accesses=5" in repr(tiny_trace)


class TestAccessTraceTransforms:
    def test_restricted_to(self, tiny_trace):
        restricted = tiny_trace.restricted_to({"a", "c"})
        assert restricted.item_sequence == ("a", "a", "c")

    def test_restricted_preserves_kinds(self):
        trace = AccessTrace([("a", "W"), ("b", "R"), ("a", "R")])
        restricted = trace.restricted_to({"a"})
        assert [access.is_write for access in restricted] == [True, False]

    def test_truncated(self, tiny_trace):
        assert len(tiny_trace.truncated(3)) == 3

    def test_truncated_negative_raises(self, tiny_trace):
        with pytest.raises(TraceError):
            tiny_trace.truncated(-1)

    def test_top_items(self):
        trace = AccessTrace(["a"] * 5 + ["b"] * 3 + ["c"])
        top = trace.top_items(2)
        assert set(top.items) == {"a", "b"}

    def test_top_items_zero_raises(self, tiny_trace):
        with pytest.raises(TraceError):
            tiny_trace.top_items(0)

    def test_concatenated(self):
        left = AccessTrace(["a"], name="l")
        right = AccessTrace(["b"], name="r")
        combined = left.concatenated(right)
        assert combined.item_sequence == ("a", "b")
        assert combined.name == "l+r"

    def test_renamed(self, tiny_trace):
        assert tiny_trace.renamed("new").name == "new"
        assert tiny_trace.renamed("new") == tiny_trace


def _unpickled(trace: AccessTrace) -> AccessTrace:
    return pickle.loads(pickle.dumps(trace))


class TestAccessTracePickling:
    """A trace pickles as its resolved arrays and rebuilds its records on
    first use; the copy behaves like the original everywhere."""

    @pytest.fixture
    def trace(self):
        return markov_trace(9, 400, seed=12, write_fraction=0.3)

    def test_payload_is_the_resolution_not_the_records(self, trace):
        payload = pickle.dumps(trace)
        copy = pickle.loads(payload)
        assert copy._records is None
        assert b"AccessKind" not in payload
        # About 9 bytes per access plus the item names.
        assert len(payload) < 10 * len(trace) + 400

    @pytest.mark.parametrize("carried", [True, False])
    def test_matches_the_original_on_every_method(self, trace, carried):
        if carried:
            trace.fingerprint()
        copy = _unpickled(trace)
        assert copy._fingerprint == (trace._fingerprint if carried else None)
        assert len(copy) == len(trace)
        assert copy.items == trace.items
        assert copy.num_items == trace.num_items
        assert copy.fingerprint() == trace.fingerprint()
        assert copy._records is None  # len, items, fingerprint read arrays
        assert copy.name == trace.name and copy.metadata == trace.metadata
        assert list(copy) == list(trace)
        assert copy[0] == trace[0] and copy[-1] == trace[-1]
        assert copy[10:50] == trace[10:50]
        assert copy.frequencies() == trace.frequencies()
        assert copy.read_write_counts() == trace.read_write_counts()
        assert copy.item_sequence == trace.item_sequence
        assert list(copy.adjacent_pairs()) == list(trace.adjacent_pairs())
        assert copy == trace and hash(copy) == hash(trace)
        assert _unpickled(copy) == trace

    def test_fingerprint_from_arrays_matches_records(self):
        trace = AccessTrace(["a", ("b", "W"), "c", ("a", "W"), "b"])
        copy = _unpickled(trace)
        assert copy.fingerprint() == trace.fingerprint()
        assert copy._records is None

    def test_empty_trace_round_trips(self):
        copy = _unpickled(AccessTrace([], name="empty"))
        assert len(copy) == 0 and list(copy) == [] and copy.items == ()
        assert copy.fingerprint() == AccessTrace([]).fingerprint()

    @pytest.mark.parametrize(
        "method", ["heuristic", "shiftsreduce", "heuristic+ls", "declaration"]
    )
    def test_optimize_and_simulate_leave_records_unbuilt(self, trace, method):
        copy = _unpickled(trace)
        config = DWMConfig.for_items(copy.num_items, words_per_dbc=8, num_ports=2)
        result = optimize_placement(copy, config, method=method)
        simulated = simulate_vectorized(copy, config, result.placement)
        assert copy._records is None
        assert simulated.shifts == result.total_shifts
        expected = optimize_placement(trace, config, method=method)
        assert result.placement == expected.placement
        assert result.total_shifts == expected.total_shifts


def _base() -> AccessTrace:
    return markov_trace(7, 240, seed=4, write_fraction=0.35)


def _recorded() -> AccessTrace:
    recorder = TraceRecorder()
    for access in _base():
        if access.is_write:
            recorder.record_write(access.item)
        else:
            recorder.record_read(access.item)
    return recorder.to_trace("recorded")


def _streamed(tmp_path):
    save_binary(_base(), tmp_path / "t.rtb")
    return open_binary(tmp_path / "t.rtb")


def _dense() -> AccessTrace:
    # Item order that is not first-touch order, as a stream window's is.
    items = ("z", "y", "x", "w")
    item_at = np.asarray([2, 0, 2, 3, 1, 0, 2], dtype=np.int64)
    is_write = np.asarray([0, 1, 0, 0, 1, 1, 0], dtype=np.bool_)
    return AccessTrace._from_dense(items, item_at, is_write)


#: name -> (builder taking ``tmp_path``, items are in first-touch order)
CONSTRUCTORS = {
    "access-entries": (lambda tmp: AccessTrace(list(_base())), True),
    "str-entries": (lambda tmp: AccessTrace(["b", "a", "b", "c"]), True),
    "tuple-entries": (
        lambda tmp: AccessTrace([(a.item, a.kind.value) for a in _base()]),
        True,
    ),
    "from-items": (lambda tmp: AccessTrace.from_items(["q", "p", "q"]), True),
    "recorder": (lambda tmp: _recorded(), True),
    "slice": (lambda tmp: _base()[37:181], True),
    "restricted-to": (lambda tmp: _base().restricted_to({"v1", "v4", "v6"}), True),
    "truncated": (lambda tmp: _base().truncated(90), True),
    "concatenated": (
        lambda tmp: _base().concatenated(markov_trace(5, 60, seed=9)),
        True,
    ),
    "renamed": (lambda tmp: _base().renamed("other"), True),
    "prefixed": (lambda tmp: _base().prefixed("p_"), True),
    "from-dense": (lambda tmp: _dense(), False),
    "unpickled": (lambda tmp: _unpickled(_base()), True),
    "unpickled-dense": (lambda tmp: _unpickled(_dense()), False),
    "stream-window": (lambda tmp: _streamed(tmp).window(50, 70), False),
    "stream-sample": (
        lambda tmp: _streamed(tmp).sample_trace(target_accesses=60, windows=3),
        False,
    ),
    "stream-to-trace": (lambda tmp: _streamed(tmp).to_trace(), True),
}


def _records_digest(records) -> str:
    """The fingerprint, hashed by walking the records."""
    digest = hashlib.sha256()
    for access in records:
        digest.update(b"W" if access.is_write else b"R")
        digest.update(access.item.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class TestResolutionInvariant:
    """Every constructor builds the trace's arrays, and they describe its
    records exactly."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_arrays_match_a_walk_of_the_records(self, name, tmp_path):
        build, first_touch = CONSTRUCTORS[name]
        trace = build(tmp_path)
        resolved = resolve_trace(trace)
        assert resolved is trace._resolved
        records = list(trace)
        names = [access.item for access in records]
        writes = [access.is_write for access in records]
        assert resolved.item_at.dtype == np.int64
        assert resolved.is_write.dtype == np.bool_
        assert [resolved.items[code] for code in resolved.item_at.tolist()] == names
        assert resolved.is_write.tolist() == writes
        assert len(set(resolved.items)) == len(resolved.items)
        if first_touch:
            assert resolved.items == tuple(dict.fromkeys(names))
        else:
            assert set(names) <= set(resolved.items)
        assert trace.items == resolved.items
        assert len(trace) == len(records)
        assert trace.read_write_counts() == (
            len(records) - sum(writes),
            sum(writes),
        )
        assert (resolved.reads, resolved.writes) == trace.read_write_counts()
        assert trace.fingerprint() == _records_digest(records)

    def test_kernel_fingerprint_is_pinned(self):
        assert KERNELS["fir"]().fingerprint() == (
            "8b4e9bc44675c6f6d35830cad0e04241e29c0b0b7d4fc907a1b0703171c04f4f"
        )


class TestTraceRecorder:
    def test_records_in_order(self):
        recorder = TraceRecorder()
        recorder.record_read("a")
        recorder.record_write("b")
        trace = recorder.to_trace("rec")
        assert trace.item_sequence == ("a", "b")
        assert trace[1].is_write

    def test_len(self):
        recorder = TraceRecorder()
        recorder.record_read("a")
        assert len(recorder) == 1


class TestTracedArray:
    def test_getitem_records_read(self):
        recorder = TraceRecorder()
        array = TracedArray("x", [10, 20], recorder)
        assert array[1] == 20
        trace = recorder.to_trace("t")
        assert trace[0].item == "x[1]"
        assert not trace[0].is_write

    def test_setitem_records_write(self):
        recorder = TraceRecorder()
        array = TracedArray("x", [0], recorder)
        array[0] = 9
        trace = recorder.to_trace("t")
        assert trace[0].item == "x[0]"
        assert trace[0].is_write
        assert array.peek(0) == 9

    def test_negative_index_normalised(self):
        recorder = TraceRecorder()
        array = TracedArray("x", [1, 2, 3], recorder)
        assert array[-1] == 3
        trace = recorder.to_trace("t")
        assert trace[0].item == "x[2]"

    def test_out_of_range_raises(self):
        recorder = TraceRecorder()
        array = TracedArray("x", [1], recorder)
        with pytest.raises(IndexError):
            array[5]

    def test_peek_and_snapshot_silent(self):
        recorder = TraceRecorder()
        array = TracedArray("x", [1, 2], recorder)
        array.peek(0)
        array.snapshot()
        assert len(recorder) == 0

    def test_len(self):
        recorder = TraceRecorder()
        assert len(TracedArray("x", [1, 2, 3], recorder)) == 3


class TestTracedScalar:
    def test_get_records_read(self):
        recorder = TraceRecorder()
        scalar = TracedScalar("s", 5, recorder)
        assert scalar.get() == 5
        assert recorder.to_trace("t")[0].item == "s"

    def test_set_records_write(self):
        recorder = TraceRecorder()
        scalar = TracedScalar("s", 0, recorder)
        scalar.set(7)
        assert scalar.peek() == 7
        assert recorder.to_trace("t")[0].is_write

    def test_peek_silent(self):
        recorder = TraceRecorder()
        TracedScalar("s", 1, recorder).peek()
        assert len(recorder) == 0
