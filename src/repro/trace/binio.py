"""Memory-mapped binary trace format (``.rtb``) and streaming access.

Text trace formats (:mod:`repro.trace.io`) materialise one ``Access``
object per record, which caps usable traces at ~10⁷ accesses per box.
This module defines a fixed-width little-endian on-disk layout that the
streaming simulation engine (:mod:`repro.memory.stream_sim`) can window
through ``numpy.memmap`` without ever holding the whole trace in RAM:

* **Header** (128 bytes, little-endian)::

      offset  size  field
      0       8     magic  b"REPROTRC"
      8       4     format version (currently 1)
      12      4     flags (reserved, 0)
      16      8     num_accesses
      24      8     num_items
      32      8     records_offset (always 128)
      40      8     meta_offset
      48      8     meta_size
      56      64    fingerprint (ascii sha256 hex, same as
                    ``AccessTrace.fingerprint()``)
      120     8     zero padding

* **Records**: ``num_accesses`` ``uint32`` words at ``records_offset``.
  Bit 31 is the write flag; bits 0–30 hold the item index (so up to
  2³¹ distinct items, 4 bytes per access).
* **Meta**: a UTF-8 JSON object ``{"name", "metadata", "items"}`` at
  ``meta_offset``; ``items`` lists the distinct item names in first-touch
  order, indexed by the records.

Records are written *before* the meta block and the header is patched
last, so :func:`pack` can stream accesses from a generator without
knowing the item table (or even the trace length) up front.

Entry points: :func:`save_binary` (from an in-memory trace),
:func:`pack` (from any ``(item, kind)`` stream — e.g. the line-streaming
readers in :mod:`repro.trace.io`), and :func:`open_binary`, which
returns a windowed, lazily-resolving :class:`StreamingTrace`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Iterable, Iterator

from repro.chaos import failpoint
from repro.errors import InjectedFaultError, TraceError, TraceFormatError
from repro.trace.model import AccessTrace

MAGIC = b"REPROTRC"
VERSION = 1
HEADER_SIZE = 128
_HEADER_STRUCT = struct.Struct("<8sIIQQQQQ64s")
_WRITE_BIT = 1 << 31
_ITEM_MASK = _WRITE_BIT - 1

#: Suggested file extension for packed binary traces.
BINARY_SUFFIX = ".rtb"

#: Records buffered in RAM before each write during :func:`pack`.
_PACK_BUFFER_RECORDS = 1 << 16

#: Default target size of :meth:`StreamingTrace.sample_trace`.
SAMPLE_TARGET_ACCESSES = 100_000
SAMPLE_WINDOWS = 16


def _pack_header(
    num_accesses: int,
    num_items: int,
    meta_offset: int,
    meta_size: int,
    fingerprint: str,
) -> bytes:
    header = _HEADER_STRUCT.pack(
        MAGIC,
        VERSION,
        0,
        num_accesses,
        num_items,
        HEADER_SIZE,
        meta_offset,
        meta_size,
        fingerprint.encode("ascii"),
    )
    return header + b"\x00" * (HEADER_SIZE - len(header))


def _chaos_write(handle, payload: bytes) -> None:
    """Write ``payload``, honouring a ``binio.write`` truncate failpoint.

    A truncate directive simulates a torn write: only ``keep_bytes`` of
    the payload reach the file before a typed error aborts the pack —
    exactly the artifact ``repro fsck`` must recognise and salvage.
    """
    action = failpoint("binio.write")
    if action is not None and action.kind == "truncate":
        handle.write(payload[: action.keep_bytes])
        handle.flush()
        raise InjectedFaultError(
            f"chaos torn write: kept {action.keep_bytes} of "
            f"{len(payload)} bytes"
        )
    handle.write(payload)


def pack(
    accesses: Iterable[tuple[str, str]],
    path: str | Path,
    name: str = "trace",
    metadata: dict | None = None,
) -> int:
    """Stream ``(item, kind)`` pairs into a binary trace file.

    ``kind`` is ``"R"``/``"W"`` (case-insensitive, ``"read"``/``"write"``
    also accepted).  The item table and fingerprint are accumulated on the
    fly, so the input may be a generator of unbounded length; peak memory
    is one record buffer plus the distinct-item table.  Returns the number
    of accesses written.
    """
    path = Path(path)
    index: dict[str, int] = {}
    digest = hashlib.sha256()
    buffer = bytearray()
    count = 0
    with path.open("wb") as handle:
        handle.write(b"\x00" * HEADER_SIZE)  # patched at the end
        for item, kind in accesses:
            kind = str(kind).strip().upper()
            if kind in ("R", "READ"):
                flag = 0
                kind = "R"
            elif kind in ("W", "WRITE"):
                flag = _WRITE_BIT
                kind = "W"
            else:
                raise TraceError(f"unknown access kind {kind!r}")
            if not item:
                raise TraceError("access item name must be non-empty")
            position = index.setdefault(item, len(index))
            if position >= _ITEM_MASK:
                raise TraceError(
                    f"too many distinct items for the binary format "
                    f"(limit {_ITEM_MASK})"
                )
            digest.update(kind.encode("ascii"))
            digest.update(item.encode("utf-8"))
            digest.update(b"\x00")
            buffer += (position | flag).to_bytes(4, "little")
            count += 1
            if count % _PACK_BUFFER_RECORDS == 0:
                _chaos_write(handle, bytes(buffer))
                buffer.clear()
        if buffer:
            _chaos_write(handle, bytes(buffer))
        meta = json.dumps(
            {
                "name": name,
                "metadata": dict(metadata or {}),
                "items": list(index),
            }
        ).encode("utf-8")
        meta_offset = HEADER_SIZE + 4 * count
        _chaos_write(handle, meta)
        handle.seek(0)
        _chaos_write(
            handle,
            _pack_header(
                count, len(index), meta_offset, len(meta), digest.hexdigest()
            ),
        )
    return count


def save_binary(trace: AccessTrace, path: str | Path) -> None:
    """Write an in-memory :class:`AccessTrace` as a binary trace file."""
    from repro.trace.io import _json_safe

    metadata = {
        key: value for key, value in trace.metadata.items() if _json_safe(value)
    }
    pack(
        ((access.item, access.kind.value) for access in trace),
        path,
        name=trace.name,
        metadata=metadata,
    )


def _read_header(path: Path) -> tuple[int, int, int, int, int, str]:
    """Parse and validate the fixed header; returns its decoded fields.

    All format violations raise :class:`~repro.errors.TraceFormatError`
    carrying the byte offset where the format breaks down and — for
    truncated record/meta regions — how many leading records are still
    salvageable (``repro fsck`` consumes both).
    """
    failpoint("binio.read")
    try:
        with path.open("rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise TraceFormatError(
            f"{path}: cannot read binary trace: {exc}", path=path
        ) from exc
    if len(raw) < HEADER_SIZE:
        raise TraceFormatError(
            f"{path}: truncated binary trace header "
            f"({len(raw)} bytes, need {HEADER_SIZE})",
            path=path,
            byte_offset=len(raw),
            salvageable_records=0,
        )
    magic, version, _flags, num_accesses, num_items, records_offset, \
        meta_offset, meta_size, fingerprint_raw = _HEADER_STRUCT.unpack(
            raw[: _HEADER_STRUCT.size]
        )
    if magic != MAGIC:
        detail = (
            "all-zero header: pack() died before patching it"
            if raw == b"\x00" * HEADER_SIZE
            else "bad magic"
        )
        raise TraceFormatError(
            f"{path}: not a repro binary trace ({detail})",
            path=path,
            byte_offset=0,
            salvageable_records=0,
        )
    if version != VERSION:
        raise TraceFormatError(
            f"{path}: unsupported binary trace version {version} "
            f"(this build reads version {VERSION})",
            path=path,
            byte_offset=8,
        )
    try:
        fingerprint = fingerprint_raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{path}: corrupt fingerprint field", path=path, byte_offset=56
        ) from exc
    size = path.stat().st_size
    records_end = records_offset + 4 * num_accesses
    if records_offset < HEADER_SIZE or records_end > size:
        salvageable = max(0, (size - records_offset) // 4) \
            if records_offset >= HEADER_SIZE else 0
        raise TraceFormatError(
            f"{path}: record region [{records_offset}, {records_end}) "
            f"outside the {size}-byte file (truncated?)",
            path=path,
            byte_offset=size,
            salvageable_records=int(salvageable),
        )
    if meta_offset + meta_size > size:
        raise TraceFormatError(
            f"{path}: meta region [{meta_offset}, {meta_offset + meta_size}) "
            f"outside the {size}-byte file (truncated?)",
            path=path,
            byte_offset=size,
            salvageable_records=int(num_accesses),
        )
    return (
        num_accesses,
        num_items,
        records_offset,
        meta_offset,
        meta_size,
        fingerprint,
    )


class StreamingTrace:
    """A binary trace opened for windowed, out-of-core access.

    Exposes the same identity surface as :class:`AccessTrace` (``name``,
    ``metadata``, ``items``, ``len``, ``fingerprint()``) but keeps the
    records on disk behind a read-only ``numpy.memmap``: nothing is
    materialised until a window is asked for, and each window costs only
    its own arrays.  Instances pickle as their path, so worker processes
    re-map the file independently (no shared-memory plumbing needed).
    """

    def __init__(self, path: str | Path) -> None:
        import numpy as np

        self.path = Path(path)
        (
            self._num_accesses,
            num_items,
            records_offset,
            meta_offset,
            meta_size,
            self._fingerprint,
        ) = _read_header(self.path)
        with self.path.open("rb") as handle:
            handle.seek(meta_offset)
            raw_meta = handle.read(meta_size)
        try:
            meta = json.loads(raw_meta.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt meta block: {exc}",
                path=self.path,
                byte_offset=meta_offset,
                salvageable_records=self._num_accesses,
            ) from exc
        items = meta.get("items")
        if not isinstance(items, list) or len(items) != num_items:
            raise TraceFormatError(
                f"{self.path}: meta lists "
                f"{len(items) if isinstance(items, list) else 'no'} "
                f"items, header declares {num_items}",
                path=self.path,
                byte_offset=meta_offset,
                salvageable_records=self._num_accesses,
            )
        self._items: tuple[str, ...] = tuple(str(item) for item in items)
        self.name = str(meta.get("name", self.path.stem))
        self.metadata = dict(meta.get("metadata") or {})
        if self._num_accesses:
            self._records = np.memmap(
                self.path,
                dtype=np.uint32,
                mode="r",
                offset=records_offset,
                shape=(self._num_accesses,),
            )
        else:
            self._records = np.empty(0, dtype=np.uint32)

    # -- pickling: carry the path, re-map on arrival --------------------
    def __getstate__(self):
        return {"path": str(self.path)}

    def __setstate__(self, state):
        self.__init__(state["path"])

    # -- identity surface ----------------------------------------------
    def __len__(self) -> int:
        return self._num_accesses

    @property
    def num_accesses(self) -> int:
        return self._num_accesses

    @property
    def items(self) -> tuple[str, ...]:
        """Distinct item names in first-touch order."""
        return self._items

    @property
    def num_items(self) -> int:
        return len(self._items)

    def fingerprint(self) -> str:
        """The sha256 access-sequence hash recorded at pack time.

        Identical to ``AccessTrace.fingerprint()`` of the materialised
        trace, so caches keyed on it are shared across representations.
        """
        return self._fingerprint

    def __repr__(self) -> str:
        return (
            f"StreamingTrace({str(self.path)!r}, n_accesses={len(self)}, "
            f"n_items={self.num_items})"
        )

    # -- windowed access ------------------------------------------------
    def chunk_records(self, start: int, stop: int):
        """The raw ``uint32`` records of accesses [start, stop).

        A read-only view of the mapped file, nothing decoded: bit 31 is the
        write flag, bits 0–30 the item index.  The streaming engine's lazy
        scan reads these in place; every other reader decodes them through
        :meth:`chunk_arrays`.
        """
        failpoint("binio.read")
        if not 0 <= start <= stop <= self._num_accesses:
            raise TraceError(
                f"window [{start}, {stop}) outside trace of "
                f"{self._num_accesses} accesses"
            )
        return self._records[start:stop]

    def chunk_arrays(self, start: int, stop: int):
        """Dense ``(item_at, is_write)`` arrays for accesses [start, stop).

        ``item_at`` is int64 (indices into :attr:`items`), ``is_write``
        bool: :meth:`chunk_records`, decoded.
        """
        import numpy as np

        raw = np.asarray(self.chunk_records(start, stop))
        item_at = (raw & _ITEM_MASK).astype(np.int64)
        is_write = (raw >> 31).astype(np.bool_)
        return item_at, is_write

    def iter_chunks(self, chunk_size: int) -> Iterator[tuple[int, int]]:
        """Yield ``(start, stop)`` bounds covering the trace in order."""
        if chunk_size <= 0:
            raise TraceError(f"chunk_size must be positive, got {chunk_size}")
        for start in range(0, self._num_accesses, chunk_size):
            yield start, min(start + chunk_size, self._num_accesses)

    def window(self, start: int, stop: int) -> AccessTrace:
        """Materialise accesses [start, stop) as an :class:`AccessTrace`.

        The returned trace carries the *full* item table (indices in the
        records are global), so any placement valid for the whole trace is
        valid for every window.
        """
        item_at, is_write = self.chunk_arrays(start, stop)
        return AccessTrace._from_dense(
            self._items,
            item_at,
            is_write,
            name=f"{self.name}[{start}:{stop}]",
            metadata=self.metadata,
        )

    def to_trace(self) -> AccessTrace:
        """Materialise the whole trace in memory (defeats streaming)."""
        item_at, is_write = self.chunk_arrays(0, self._num_accesses)
        return AccessTrace._from_dense(
            self._items,
            item_at,
            is_write,
            name=self.name,
            metadata=self.metadata,
            fingerprint=self._fingerprint,
        )

    def sample_trace(
        self,
        target_accesses: int = SAMPLE_TARGET_ACCESSES,
        windows: int = SAMPLE_WINDOWS,
    ) -> AccessTrace:
        """Bounded-size sample for placement optimization.

        Concatenates ``windows`` evenly spaced windows totalling about
        ``target_accesses`` accesses, then appends one read per item the
        sample missed, so the derived placement always covers the full
        item table.  Statistics (affinity, frequency) approximate the full
        trace; the *cost* of a placement is evaluated exactly later by
        whichever engine replays the real trace.
        """
        import numpy as np

        total = self._num_accesses
        if total <= target_accesses:
            return self.to_trace()
        windows = max(1, min(windows, total))
        span = max(1, target_accesses // windows)
        starts = np.linspace(0, total - span, windows).astype(np.int64)
        parts = [self.chunk_arrays(int(s), int(s) + span) for s in starts]
        item_at = np.concatenate([p[0] for p in parts])
        is_write = np.concatenate([p[1] for p in parts])
        missing = np.setdiff1d(
            np.arange(len(self._items), dtype=np.int64), np.unique(item_at)
        )
        if missing.size:
            item_at = np.concatenate([item_at, missing])
            is_write = np.concatenate(
                [is_write, np.zeros(missing.size, dtype=np.bool_)]
            )
        return AccessTrace._from_dense(
            self._items,
            item_at,
            is_write,
            name=f"{self.name}|sample{item_at.size}",
            metadata=self.metadata,
        )

    def read_write_counts(self) -> tuple[int, int]:
        """Total (reads, writes), computed in bounded-memory chunks."""
        writes = 0
        for start, stop in self.iter_chunks(1 << 20):
            _item_at, is_write = self.chunk_arrays(start, stop)
            writes += int(is_write.sum())
        return self._num_accesses - writes, writes


def open_binary(path: str | Path) -> StreamingTrace:
    """Open a binary trace file for streaming access."""
    return StreamingTrace(path)


def split_records(codes):
    """``(item indices, writes)`` of a window given either way: raw
    ``uint32`` records are masked and their write bits counted; int64
    item indices pass through with 0 writes."""
    import numpy as np

    if codes.dtype == np.uint32:
        writes = int(np.count_nonzero(codes > _ITEM_MASK))
        return (codes & _ITEM_MASK).astype(np.int64), writes
    return codes, 0
