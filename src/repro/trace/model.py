"""Access-trace data model.

A trace is the input of the placement problem: an ordered sequence of word
accesses, each naming a logical *item* (a scalar variable or an array
element such as ``"A[3]"``) and whether it was a read or a write.  Traces are
produced by the synthetic generators (:mod:`repro.trace.synthetic`) or by the
instrumented benchmark kernels (:mod:`repro.trace.kernels`), and consumed by
the placement optimizers and the trace-driven simulator.
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence

from repro.errors import TraceError

#: Accesses hashed per joined block by :meth:`AccessTrace.fingerprint`.
_FINGERPRINT_BLOCK = 1 << 15


class AccessKind(enum.Enum):
    """Whether an access reads or writes its item."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def parse(cls, value: "AccessKind | str") -> "AccessKind":
        """Coerce ``"R"``/``"W"`` (case-insensitive) to an enum member."""
        if isinstance(value, cls):
            return value
        text = str(value).strip().upper()
        if text in ("R", "READ"):
            return cls.READ
        if text in ("W", "WRITE"):
            return cls.WRITE
        raise TraceError(f"unknown access kind {value!r}")


@dataclass(frozen=True)
class Access:
    """One word access in a trace."""

    item: str
    kind: AccessKind = AccessKind.READ

    def __post_init__(self) -> None:
        if not self.item:
            raise TraceError("access item name must be non-empty")
        object.__setattr__(self, "kind", AccessKind.parse(self.kind))

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE

    def __str__(self) -> str:
        return f"{self.kind.value} {self.item}"


class ResolvedTrace:
    """A trace's accesses as dense numpy arrays, shared by every engine.

    ``items`` are the distinct item names, ``item_at`` the ``int64`` index
    into ``items`` of every access and ``is_write`` its ``bool`` write
    flag.  Every :class:`AccessTrace` builds its resolution when it is
    constructed (``AccessTrace._resolved``, returned by
    :func:`repro.memory.batch_sim.resolve_trace`); it is config- and
    placement-independent, so every run of the trace reads the same one.
    """

    def __init__(self, items: Sequence[str], item_at, is_write) -> None:
        self.items: tuple[str, ...] = tuple(items)
        self.item_at = item_at
        self.is_write = is_write
        self.writes = int(is_write.sum())
        self.reads = int(item_at.size) - self.writes

    @cached_property
    def item_positions(self):
        """The trace's one per-item position index ``(item_pos, item_start)``.

        ``item_pos[item_start[i]:item_start[i + 1]]`` are item ``i``'s trace
        positions, ascending (one stable argsort of :attr:`item_at`), so
        ``np.diff(item_start)`` are the access counts.  Both are read-only,
        C-contiguous ``int64``.
        """
        import numpy as np

        item_pos = np.argsort(self.item_at, kind="stable").astype(np.int64, copy=False)
        counts = np.bincount(self.item_at, minlength=len(self.items))
        item_start = np.concatenate(([0], np.cumsum(counts)))
        # Shared by every consumer of the trace: a write would corrupt them all.
        item_pos.flags.writeable = item_start.flags.writeable = False
        return item_pos, item_start

    def positions_of(self, codes: Collection[int]):
        """Ascending trace positions of the items ``codes``; one item's are
        its slice of :attr:`item_positions` itself, not a copy."""
        import numpy as np

        item_pos, item_start = self.item_positions
        if len(codes) == 1:
            (code,) = codes
            return item_pos[item_start[code] : item_start[code + 1]]
        slices = [item_pos[item_start[c] : item_start[c + 1]] for c in codes]
        merged = np.concatenate(slices or [item_pos[:0]])
        merged.sort()
        return merged


class AccessTrace:
    """An ordered sequence of :class:`Access` records.

    The trace also carries a ``name`` (used in reports) and optional
    free-form ``metadata`` (e.g. kernel parameters).  Traces are immutable
    once built; transformation methods return new traces.  Every
    constructor also builds the trace's :class:`ResolvedTrace`, which the
    engines, pickling, ``len()``, :attr:`items` and :meth:`fingerprint`
    read.
    """

    def __init__(
        self,
        accesses: Iterable[Access | tuple | str],
        name: str = "trace",
        metadata: dict | None = None,
    ) -> None:
        import numpy as np

        write = AccessKind.WRITE
        records: list[Access] = []
        # Typed buffers, not lists: 9 bytes per access until the arrays
        # take them over without a copy.
        codes = array("q")
        writes = bytearray()
        index: dict[str, int] = {}  # item -> code, in first-touch order
        for entry in accesses:
            if isinstance(entry, Access):
                access = entry
            elif isinstance(entry, str):
                access = Access(entry)
            elif isinstance(entry, (tuple, list)) and len(entry) == 2:
                access = Access(entry[0], AccessKind.parse(entry[1]))
            else:
                raise TraceError(f"cannot interpret trace entry {entry!r}")
            records.append(access)
            codes.append(index.setdefault(access.item, len(index)))
            writes.append(access.kind is write)
        #: The access records; ``None`` on an unpickled trace (see
        #: :meth:`__reduce__`) until something needs them.
        self._records: tuple[Access, ...] | None = tuple(records)
        self.name = name
        self.metadata = dict(metadata or {})
        self._fingerprint: str | None = None
        self._resolved = ResolvedTrace(
            tuple(index),
            np.frombuffer(codes, dtype=np.int64),
            np.frombuffer(writes, dtype=np.bool_),
        )

    def __reduce__(self):
        """Pickle as the resolution: ``(items, item_at, is_write)``, name,
        metadata and the fingerprint if it is already computed.

        The arrays cost about 9 bytes per access and pickle in a single
        copy; the :class:`Access` records would cost a Python object each
        way.  The receiving side keeps the arrays as the trace's resolution
        and builds its records only when something iterates, indexes,
        slices or compares it, so a worker's optimize or simulate never
        does.
        """
        resolved = self._resolved
        return (
            _rebuild,
            (
                resolved.items,
                resolved.item_at,
                resolved.is_write,
                self.name,
                self.metadata,
                self._fingerprint,
            ),
        )

    @property
    def _accesses(self) -> tuple[Access, ...]:
        if self._records is None:
            resolved = self._resolved
            self._records = _dense_records(
                resolved.items, resolved.item_at, resolved.is_write
            )
        return self._records

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._resolved.item_at.size)

    def __iter__(self) -> Iterator[Access]:
        return iter(self._accesses)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AccessTrace(
                self._accesses[index],
                name=f"{self.name}[{index.start}:{index.stop}]",
                metadata=self.metadata,
            )
        return self._accesses[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessTrace):
            return NotImplemented
        return self._accesses == other._accesses

    def __hash__(self) -> int:
        return hash(self._accesses)

    def __repr__(self) -> str:
        return (
            f"AccessTrace(name={self.name!r}, n_accesses={len(self)}, "
            f"n_items={self.num_items})"
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def items(self) -> tuple[str, ...]:
        """Distinct item names in first-touch order (declaration order)."""
        return self._resolved.items

    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def item_sequence(self) -> tuple[str, ...]:
        """Just the item names, in access order."""
        return tuple(access.item for access in self._accesses)

    def fingerprint(self) -> str:
        """Stable content hash of the access sequence (hex sha256).

        Covers only the accesses themselves — two traces with the same
        reads/writes hash identically even if ``name`` or ``metadata``
        differ, so renaming a trace does not invalidate cached results
        keyed on it.  Cached after the first call (traces are immutable).
        """
        if self._fingerprint is None:
            import hashlib

            # Access t hashes as b"R"/b"W" + utf-8 name + b"\x00": record
            # 2 * item + is_write of a per-(item, kind) table, joined in
            # blocks so the bytes in flight stay bounded.
            resolved = self._resolved
            records = []
            for item in resolved.items:
                name = item.encode("utf-8") + b"\x00"
                records += (b"R" + name, b"W" + name)
            digest = hashlib.sha256()
            for start in range(0, len(resolved.item_at), _FINGERPRINT_BLOCK):
                stop = start + _FINGERPRINT_BLOCK
                keys = resolved.item_at[start:stop] * 2 + resolved.is_write[start:stop]
                digest.update(b"".join([records[key] for key in keys.tolist()]))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def frequencies(self) -> Counter:
        """Access count per item."""
        return Counter(access.item for access in self._accesses)

    def read_write_counts(self) -> tuple[int, int]:
        """Total (reads, writes) in the trace."""
        return self._resolved.reads, self._resolved.writes

    def adjacent_pairs(self) -> Iterator[tuple[str, str]]:
        """Consecutive item pairs (the raw input of the affinity graph).

        Self-pairs (two consecutive accesses to the same item) are included;
        affinity-graph builders typically skip them since they cost no shifts.
        """
        for left, right in zip(self._accesses, self._accesses[1:]):
            yield left.item, right.item

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def restricted_to(self, items: Iterable[str]) -> "AccessTrace":
        """Sub-trace containing only accesses to the given items, in order."""
        wanted = set(items)
        return AccessTrace(
            (a for a in self._accesses if a.item in wanted),
            name=f"{self.name}|restricted",
            metadata=self.metadata,
        )

    def truncated(self, max_accesses: int) -> "AccessTrace":
        """First ``max_accesses`` records (useful for OPT comparisons)."""
        if max_accesses < 0:
            raise TraceError(f"max_accesses must be >= 0, got {max_accesses}")
        return AccessTrace(
            self._accesses[:max_accesses],
            name=f"{self.name}|head{max_accesses}",
            metadata=self.metadata,
        )

    def top_items(self, count: int) -> "AccessTrace":
        """Restrict to the ``count`` most frequently accessed items."""
        if count <= 0:
            raise TraceError(f"count must be positive, got {count}")
        hottest = [item for item, _ in self.frequencies().most_common(count)]
        return self.restricted_to(hottest)

    def concatenated(self, other: "AccessTrace", name: str | None = None) -> "AccessTrace":
        """This trace followed by ``other``."""
        return AccessTrace(
            tuple(self._accesses) + tuple(other._accesses),
            name=name or f"{self.name}+{other.name}",
            metadata={**other.metadata, **self.metadata},
        )

    def renamed(self, name: str) -> "AccessTrace":
        """Copy with a different display name."""
        return AccessTrace(self._accesses, name=name, metadata=self.metadata)

    def prefixed(self, prefix: str) -> "AccessTrace":
        """Copy with every item name prefixed (disjoint namespaces).

        Used to combine traces whose item sets must not collide, e.g. when
        modelling program phases that touch different data.
        """
        return AccessTrace(
            (Access(prefix + access.item, access.kind) for access in self._accesses),
            name=f"{prefix}{self.name}",
            metadata=self.metadata,
        )

    @classmethod
    def from_items(
        cls,
        item_sequence: Sequence[str],
        name: str = "trace",
        metadata: dict | None = None,
    ) -> "AccessTrace":
        """Build a read-only trace from a bare item-name sequence."""
        return cls(
            (Access(item) for item in item_sequence),
            name=name,
            metadata=metadata,
        )

    @classmethod
    def _from_dense(
        cls,
        items: Sequence[str],
        item_at,
        is_write,
        name: str = "trace",
        metadata: dict | None = None,
        fingerprint: str | None = None,
    ) -> "AccessTrace":
        """Trusted fast constructor from dense resolved arrays.

        Builds the :class:`Access` records of the accesses ``item_at``
        (indices into ``items``) and ``is_write`` describe — how a
        :class:`~repro.trace.binio.StreamingTrace` materialises windows,
        samples and :meth:`~repro.trace.binio.StreamingTrace.to_trace`.
        Skips all per-access validation: the caller guarantees the arrays
        came from a valid trace, so ``Access.__post_init__`` checks would
        only re-prove what resolution already proved, per access, in
        Python.  ``items`` must be distinct; a window keeps its stream's
        whole item table, so it need not be in first-touch order.  An
        unpickled trace is rebuilt from the same arrays but defers the
        records (:func:`_rebuild`).  Either way the arrays become the
        trace's resolution.
        """
        trace = _rebuild(items, item_at, is_write, name, metadata, fingerprint)
        trace._records = _dense_records(trace.items, item_at, is_write)
        return trace


def _dense_records(items: tuple[str, ...], item_at, is_write) -> tuple[Access, ...]:
    """The :class:`Access` records of dense arrays, without validation."""
    read, write = AccessKind.READ, AccessKind.WRITE
    records = []
    append = records.append
    for index, write_flag in zip(item_at.tolist(), is_write.tolist()):
        access = object.__new__(Access)
        object.__setattr__(access, "item", items[index])
        object.__setattr__(access, "kind", write if write_flag else read)
        append(access)
    return tuple(records)


def _rebuild(items, item_at, is_write, name, metadata, fingerprint) -> AccessTrace:
    """An :class:`AccessTrace` whose resolution is the given arrays and whose
    records are built on first use (the unpickling side of
    :meth:`AccessTrace.__reduce__`)."""
    trace = AccessTrace.__new__(AccessTrace)
    trace._records = None
    trace.name = name
    trace.metadata = dict(metadata or {})
    trace._fingerprint = fingerprint
    trace._resolved = ResolvedTrace(items, item_at, is_write)
    return trace


class TraceRecorder:
    """Mutable builder used by instrumented kernels to emit accesses."""

    def __init__(self) -> None:
        self._accesses: list[Access] = []

    def record_read(self, item: str) -> None:
        self._accesses.append(Access(item, AccessKind.READ))

    def record_write(self, item: str) -> None:
        self._accesses.append(Access(item, AccessKind.WRITE))

    def __len__(self) -> int:
        return len(self._accesses)

    def to_trace(self, name: str, metadata: dict | None = None) -> AccessTrace:
        """Freeze the recorded accesses into an :class:`AccessTrace`."""
        return AccessTrace(self._accesses, name=name, metadata=metadata)


class TracedArray:
    """A list-like array whose element accesses are recorded.

    Instrumented kernels operate on these instead of plain lists; every
    ``x[i]`` read and ``x[i] = v`` write appends an access named
    ``"<name>[<i>]"`` to the shared recorder.  Negative indices are
    normalised so the same element always gets the same item name.
    """

    def __init__(self, name: str, values: Iterable, recorder: TraceRecorder) -> None:
        self.name = name
        self._values = list(values)
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._values)

    def _item(self, index: int) -> str:
        if index < 0:
            index += len(self._values)
        if not 0 <= index < len(self._values):
            raise IndexError(f"{self.name}[{index}] out of range")
        return f"{self.name}[{index}]"

    def __getitem__(self, index: int):
        self._recorder.record_read(self._item(index))
        if index < 0:
            index += len(self._values)
        return self._values[index]

    def __setitem__(self, index: int, value) -> None:
        self._recorder.record_write(self._item(index))
        if index < 0:
            index += len(self._values)
        self._values[index] = value

    def peek(self, index: int):
        """Read a value without recording an access (verification only)."""
        return self._values[index]

    def snapshot(self) -> list:
        """Copy of the current values without recording accesses."""
        return list(self._values)


class TracedScalar:
    """A scalar variable whose reads/writes are recorded.

    Kernels use ``s.get()`` / ``s.set(v)`` so Python's name binding doesn't
    hide accesses.
    """

    def __init__(self, name: str, value, recorder: TraceRecorder) -> None:
        self.name = name
        self._value = value
        self._recorder = recorder

    def get(self):
        self._recorder.record_read(self.name)
        return self._value

    def set(self, value) -> None:
        self._recorder.record_write(self.name)
        self._value = value

    def peek(self):
        """Read the value without recording an access."""
        return self._value
