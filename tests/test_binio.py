"""Tests for the memory-mapped binary trace format (repro.trace.binio).

Covers the format round trip (save → open → materialise must be the
identity, including the fingerprint), the windowed access surface the
streaming engine builds on, the bounded-size placement sample, pickling
by path (the pool-worker transport), and clean ``TraceError`` diagnostics
for every corruption mode a partial download or version skew can produce.
"""

from __future__ import annotations

import pickle
import random
import struct

import pytest

from repro.errors import TraceError
from repro.trace.binio import (
    HEADER_SIZE,
    MAGIC,
    StreamingTrace,
    open_binary,
    pack,
    save_binary,
)
from repro.trace.kernels import KERNELS
from repro.trace.model import AccessKind, AccessTrace
from repro.trace.synthetic import markov_trace, zipf_trace


@pytest.fixture
def trace():
    return markov_trace(17, 400, seed=5)


@pytest.fixture
def packed(trace, tmp_path):
    path = tmp_path / "t.rtb"
    save_binary(trace, path)
    return path


class TestRoundTrip:
    def test_materialised_trace_is_identical(self, trace, packed):
        stream = open_binary(packed)
        back = stream.to_trace()
        assert back.name == trace.name
        assert back.items == trace.items
        assert len(back) == len(trace)
        assert [(a.item, a.kind) for a in back] == [
            (a.item, a.kind) for a in trace
        ]

    def test_fingerprint_matches_in_memory(self, trace, packed):
        stream = open_binary(packed)
        assert stream.fingerprint() == trace.fingerprint()
        assert stream.to_trace().fingerprint() == trace.fingerprint()

    def test_fingerprint_stable_across_repacks(self, trace, tmp_path):
        first, second = tmp_path / "a.rtb", tmp_path / "b.rtb"
        save_binary(trace, first)
        save_binary(trace, second)
        assert open_binary(first).fingerprint() == open_binary(second).fingerprint()

    def test_identity_surface(self, trace, packed):
        stream = open_binary(packed)
        assert len(stream) == stream.num_accesses == len(trace)
        assert stream.num_items == trace.num_items
        assert stream.metadata == {
            k: v for k, v in trace.metadata.items() if k in stream.metadata
        }
        reads, writes = stream.read_write_counts()
        assert reads == sum(a.kind is AccessKind.READ for a in trace)
        assert writes == sum(a.kind is AccessKind.WRITE for a in trace)
        assert "StreamingTrace" in repr(stream)

    def test_pack_accepts_kind_spellings(self, tmp_path):
        path = tmp_path / "k.rtb"
        count = pack(
            [("a", "r"), ("b", "READ"), ("a", "w"), ("c", "Write")],
            path,
            name="spellings",
        )
        assert count == 4
        stream = open_binary(path)
        assert stream.items == ("a", "b", "c")
        assert stream.read_write_counts() == (2, 2)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rtb"
        assert pack([], path, name="void") == 0
        stream = open_binary(path)
        assert len(stream) == 0
        assert stream.items == ()
        assert stream.to_trace().num_items == 0

    def test_pack_rejects_bad_records(self, tmp_path):
        with pytest.raises(TraceError, match="unknown access kind"):
            pack([("a", "X")], tmp_path / "bad.rtb")
        with pytest.raises(TraceError, match="non-empty"):
            pack([("", "R")], tmp_path / "bad2.rtb")


def _pack_accesses(trace, path):
    """The reference writer: ``pack`` over the trace's access records."""
    from repro.trace.io import _json_safe

    metadata = {k: v for k, v in trace.metadata.items() if _json_safe(v)}
    pack(
        ((access.item, access.kind.value) for access in trace),
        path,
        name=trace.name,
        metadata=metadata,
    )


def _writes_trace(length=3 * (1 << 15)):
    rng = random.Random(9)
    return AccessTrace(
        [(f"v{rng.randrange(50)}", rng.choice("RRW")) for _ in range(length)],
        name="writes",
        metadata={"seed": 9, "opaque": object()},
    )


class TestSaveBinary:
    """``save_binary`` encodes the resolved arrays; the file must be the
    one ``pack`` writes from the access records, byte for byte."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_traces_match_pack(self, name, tmp_path):
        trace = KERNELS[name]()
        save_binary(trace, tmp_path / "s.rtb")
        _pack_accesses(trace, tmp_path / "p.rtb")
        assert (tmp_path / "s.rtb").read_bytes() == (tmp_path / "p.rtb").read_bytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _writes_trace(),
            lambda: AccessTrace([], name="void"),
            lambda: AccessTrace([("x", "W")] * (1 << 16), name="one-block"),
        ],
        ids=["writes", "empty", "one-block"],
    )
    def test_synthetic_traces_match_pack(self, make, tmp_path):
        trace = make()
        save_binary(trace, tmp_path / "s.rtb")
        _pack_accesses(trace, tmp_path / "p.rtb")
        assert (tmp_path / "s.rtb").read_bytes() == (tmp_path / "p.rtb").read_bytes()
        stream = open_binary(tmp_path / "s.rtb")
        assert stream.fingerprint() == trace.fingerprint()
        assert stream.read_write_counts() == (
            trace._resolved.reads, trace._resolved.writes
        )

    def test_window_is_reindexed_in_first_touch_order(self, tmp_path):
        # A window keeps its stream's whole item table, out of first-touch
        # order; the file lists only the items it touches, in that order.
        save_binary(_writes_trace(), tmp_path / "full.rtb")
        window = open_binary(tmp_path / "full.rtb").window(1000, 1040)
        assert window.items != tuple(dict.fromkeys(a.item for a in window))
        save_binary(window, tmp_path / "s.rtb")
        _pack_accesses(window, tmp_path / "p.rtb")
        assert (tmp_path / "s.rtb").read_bytes() == (tmp_path / "p.rtb").read_bytes()

    @pytest.mark.parametrize("nth", [1, 2, 3, 4])
    def test_torn_write_tears_where_pack_does(self, nth, tmp_path):
        # A full and a partial record block, the meta block and the
        # header: one ``binio.write`` hit each.
        from repro.chaos import chaos_scope
        from repro.errors import InjectedFaultError

        trace = _writes_trace()
        torn = []
        for label, write in (("s", save_binary), ("p", _pack_accesses)):
            path = tmp_path / f"{label}.rtb"
            with chaos_scope(f"binio.write:nth={nth}:truncate=100"):
                with pytest.raises(InjectedFaultError):
                    write(trace, path)
            torn.append(path.read_bytes())
        assert torn[0] == torn[1]

    def test_torn_file_is_salvaged_by_fsck(self, tmp_path):
        from repro.fsck import fsck_rtb

        trace = _writes_trace()
        path = tmp_path / "t.rtb"
        save_binary(trace, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])  # torn inside the meta block
        report = fsck_rtb(path, repair=True)
        assert report.status == "repaired"
        salvaged = open_binary(path)
        item_at, is_write = salvaged.chunk_arrays(0, len(salvaged))
        assert [
            (salvaged.items[code], bool(write))
            for code, write in zip(item_at.tolist(), is_write.tolist())
        ] == [
            (access.item, access.is_write)
            for access in trace[: report.salvaged_records]
        ]


class TestWindows:
    def test_window_carries_full_item_table(self, trace, packed):
        stream = open_binary(packed)
        window = stream.window(100, 150)
        assert window.items == trace.items  # indices are global
        assert [(a.item, a.kind) for a in window] == [
            (a.item, a.kind) for a in list(trace)[100:150]
        ]

    def test_chunk_arrays_bounds_checked(self, packed):
        stream = open_binary(packed)
        with pytest.raises(TraceError, match="outside trace"):
            stream.chunk_arrays(0, len(stream) + 1)
        with pytest.raises(TraceError, match="outside trace"):
            stream.chunk_arrays(-1, 2)

    def test_iter_chunks_covers_exactly(self, packed):
        stream = open_binary(packed)
        bounds = list(stream.iter_chunks(64))
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(stream)
        assert all(a1 == b0 for (_, a1), (b0, _) in zip(bounds, bounds[1:]))
        with pytest.raises(TraceError, match="chunk_size"):
            next(stream.iter_chunks(0))

    def test_sample_covers_every_item(self, tmp_path):
        big = zipf_trace(40, 5000, seed=9)
        path = tmp_path / "z.rtb"
        save_binary(big, path)
        sample = open_binary(path).sample_trace(target_accesses=300, windows=4)
        assert sample.items == big.items
        assert set(a.item for a in sample) == set(big.items)
        assert len(sample) <= 300 + big.num_items

    def test_small_trace_samples_to_itself(self, trace, packed):
        sample = open_binary(packed).sample_trace(target_accesses=10_000)
        assert sample.fingerprint() == trace.fingerprint()


class TestPickle:
    def test_round_trips_by_path(self, packed):
        stream = open_binary(packed)
        clone = pickle.loads(pickle.dumps(stream))
        assert isinstance(clone, StreamingTrace)
        assert clone.path == stream.path
        assert clone.fingerprint() == stream.fingerprint()
        assert len(clone) == len(stream)


class TestCorruption:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rtb"
        path.write_bytes(b"REPROTRC")
        with pytest.raises(TraceError, match="truncated"):
            open_binary(path)

    def test_bad_magic(self, tmp_path, packed):
        raw = bytearray(packed.read_bytes())
        raw[:8] = b"NOTATRCE"
        bad = tmp_path / "magic.rtb"
        bad.write_bytes(raw)
        with pytest.raises(TraceError, match="bad magic"):
            open_binary(bad)

    def test_future_version(self, tmp_path, packed):
        raw = bytearray(packed.read_bytes())
        struct.pack_into("<I", raw, 8, 99)
        bad = tmp_path / "version.rtb"
        bad.write_bytes(raw)
        with pytest.raises(TraceError, match="version 99"):
            open_binary(bad)

    def test_truncated_records(self, tmp_path, packed):
        raw = packed.read_bytes()
        bad = tmp_path / "cut.rtb"
        bad.write_bytes(raw[: HEADER_SIZE + 12])
        with pytest.raises(TraceError, match="truncated"):
            open_binary(bad)

    def test_corrupt_meta_json(self, tmp_path, trace):
        path = tmp_path / "meta.rtb"
        save_binary(trace, path)
        raw = bytearray(path.read_bytes())
        meta_offset = struct.unpack_from("<Q", raw, 40)[0]
        raw[meta_offset] = ord("!")  # breaks the leading '{'
        path.write_bytes(raw)
        with pytest.raises(TraceError, match="corrupt meta"):
            open_binary(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            open_binary(tmp_path / "nope.rtb")

    def test_magic_constant_is_the_spec(self):
        assert MAGIC == b"REPROTRC"
        assert HEADER_SIZE == 128
