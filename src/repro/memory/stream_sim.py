"""Chunked out-of-core simulation engine with mergeable automaton state.

The vectorized engine (:mod:`repro.memory.batch_sim`) needs the whole
access stream as dense arrays; this module computes the identical result
while only ever holding one fixed-size window, so traces far larger than
RAM — opened through :class:`repro.trace.binio.StreamingTrace` — simulate
in bounded memory.

The per-DBC cost scan is a deterministic port automaton, so everything a
chunk needs from its past is one integer per DBC: the head position.
Every mode scans through the engines' one window scan,
:func:`~repro.memory.batch_sim.scan_windows`: under the lazy policy the
active kernel tier's interleaved scan walks each window in trace order
with one head per DBC (on a binary trace straight over the mapped
``uint32`` records, counting write bits in the same pass); under the
eager one each window's per-item access counts are priced from the
rest-distance table.  Three scan modes:

* **sequential** (default) — chunks scanned in order into one carried
  :class:`~repro.core.kernels.ScanState`, which holds the exact per-DBC
  head between chunks (eager scans carry their exact partial sums).
* **merge** — each chunk is summarised *independently* into a
  :class:`ChunkState`, which is the scan state itself: conditioned, under
  the lazy policy, on the one unknown bit of context — which port serves
  the chunk's first access to each DBC (``P`` possibilities, the scan's
  ``P`` lanes per DBC, which the compiled scan steps once they have
  converged on one head).  :func:`merge_states` composes two summaries
  by pricing the boundary access of every (DBC, lane) at once, which
  makes the summary an associative monoid — chunks can be folded in any
  order.
* **parallel** — the same summary, one per contiguous *span* of chunks:
  the chunks are cut into ``min(jobs, chunks)`` balanced spans in trace
  order, each worker of the persistent pool (:mod:`repro.analysis.pool`)
  scans its span window by window into one state (:func:`scan_span`), and
  the parent folds the ``jobs`` summaries with the same vectorised
  stitch.  Workers re-map binary traces by path, so task payloads stay
  tiny; an in-memory trace ships one slice per span.

All three are bit-identical to the in-memory vectorized engine on
totals, per-DBC decompositions and ``max_access_shifts`` (fuzzed by the
``streaming`` oracle family in :mod:`repro.verify.oracles`).  See
docs/STREAMING.md for the boundary-state math and chunk-size guidance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.chaos import failpoint
from repro.core import kernels
# Not called here: ``perfbench/spans.py`` wraps this name in this module.
from repro.core.incremental import lazy_costs_from_state  # noqa: F401
from repro.core.placement import Placement
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import SimulationError
from repro.memory.batch_sim import resolve_trace, scan_windows, slot_arrays
from repro.memory.result import SimulationResult
from repro.obs import get_registry
from repro.trace.binio import StreamingTrace, open_binary

#: Default window length (accesses per chunk).  The lazy scan reads a
#: binary trace's 4-byte records in place, so a window costs its 1 MiB of
#: mapped pages plus the per-DBC state; the eager scan decodes the window
#: into a few int64 arrays (~8 MiB).
DEFAULT_CHUNK_SIZE = 1 << 18


@dataclass
class ChunkState:
    """Mergeable scan summary of consecutive windows of the access stream.

    ``state`` is the :class:`~repro.core.kernels.ScanState` the windows
    were scanned into.  Under the lazy policy it is conditioned: lane
    ``p`` of DBC ``d`` assumes port ``p`` served the DBC's first access
    (offset ``first[d]``), the only context a span cannot know on its own
    and whose cost no lane includes.  Eager costs are stateless, so an
    eager state is carried and its per-DBC totals are exact partial sums.
    """

    policy: str
    ports: tuple[int, ...]
    accesses: int
    writes: int
    state: kernels.ScanState


def _checked(windows):
    """``windows`` with the ``stream.scan`` failpoint fired before each."""
    for window in windows:
        failpoint("stream.scan")
        yield window


def scan_span(windows, config: DWMConfig, dbc_of, offset_of) -> ChunkState:
    """Summarise consecutive windows into one mergeable :class:`ChunkState`.

    ``windows`` yields ``(codes, writes)`` pairs in trace order (see
    :func:`_window`), scanned one at a time into one state by
    :func:`~repro.memory.batch_sim.scan_windows`, so a span holds one
    window at a time.  Independent of every other span: lazy spans scan
    into a conditioned state (``P`` lanes per DBC), eager ones into a
    carried one.  No windows give the empty summary, the identity of
    :func:`merge_states`.
    """
    state, accesses, writes = scan_windows(
        _checked(windows), config, dbc_of, offset_of,
        lanes=len(config.port_offsets),
    )
    return ChunkState(
        policy=config.port_policy.value,
        ports=config.port_offsets,
        accesses=int(accesses),
        writes=int(writes),
        state=state,
    )


def _boundary(offsets, heads, ports):
    """``(cost, port_index)`` of serving each DBC's ``offsets[d]`` from
    each of its lanes' ``heads[d, lane]``: the greedy step of
    :func:`~repro.dwm.dbc.port_access_cost`, ties to the lowest port."""
    import numpy as np

    moves = np.abs(
        (offsets[:, None] - np.asarray(ports, dtype=np.int64))[:, None, :]
        - heads[:, :, None]
    )
    return moves.min(axis=2), moves.argmin(axis=2)


def merge_states(left: ChunkState, right: ChunkState) -> ChunkState:
    """Compose two adjacent chunk summaries (associative).

    Eager summaries add.  Under the lazy policy the only coupling of a
    DBC both sides touch is the right side's first access: its cost and
    serving port follow from each left lane's exit head, which selects
    the right lane that continues it.  All DBCs are priced at once; a DBC
    only one side touched keeps that side's entries.
    """
    import numpy as np

    if left.accesses == 0:
        return right
    if right.accesses == 0:
        return left
    if left.policy != right.policy or left.ports != right.ports:
        raise SimulationError(
            "cannot merge chunk states from different configurations"
        )
    a, b = left.state, right.state
    eager = left.policy == PortPolicy.EAGER.value
    merged = kernels.ScanState(a.counts.size, None if eager else len(left.ports))
    if eager:
        merged.totals = a.totals + b.totals
        merged.maxes = np.maximum(a.maxes, b.maxes)
    else:
        cost, port = _boundary(b.first, a.heads, left.ports)
        joined = {
            "totals": a.totals + cost + np.take_along_axis(b.totals, port, 1),
            "maxes": np.maximum(
                np.maximum(a.maxes, cost), np.take_along_axis(b.maxes, port, 1)
            ),
            "heads": np.take_along_axis(b.heads, port, 1),
        }
        both = ((a.counts > 0) & (b.counts > 0))[:, None]
        right_only = (a.counts == 0)[:, None]
        for name, value in joined.items():
            kept = np.where(right_only, getattr(b, name), getattr(a, name))
            setattr(merged, name, np.where(both, value, kept))
        merged.first = np.where(right_only[:, 0], b.first, a.first)
        merged.counts = a.counts + b.counts
    return ChunkState(
        policy=left.policy,
        ports=left.ports,
        accesses=left.accesses + right.accesses,
        writes=left.writes + right.writes,
        state=merged,
    )


def finalize_state(
    state: ChunkState, config: DWMConfig
) -> tuple[list[int], int, int]:
    """Resolve a folded summary against the fresh initial head (0).

    Returns ``(per_dbc_shifts, total_shifts, max_access_shifts)`` —
    bit-identical to a single scan of the concatenated stream.
    """
    import numpy as np

    scan = state.state
    totals, maxes = scan.totals, scan.maxes
    if state.policy == PortPolicy.LAZY.value:
        fresh = np.zeros((scan.first.size, 1), dtype=np.int64)
        cost, port = _boundary(scan.first, fresh, state.ports)
        touched = (scan.counts > 0)[:, None]
        totals = np.where(touched, cost + np.take_along_axis(totals, port, 1), 0)
        maxes = np.where(
            touched, np.maximum(cost, np.take_along_axis(maxes, port, 1)), 0
        )
    per_dbc = totals.ravel().tolist()
    return per_dbc, sum(per_dbc), int(maxes.max())


# ---------------------------------------------------------------------------
# Chunk sources and the worker-side task
# ---------------------------------------------------------------------------

def _chunk_bounds(total: int, chunk_size: int) -> list[tuple[int, int]]:
    if chunk_size <= 0:
        raise SimulationError(f"chunk_size must be positive, got {chunk_size}")
    return [
        (start, min(start + chunk_size, total))
        for start in range(0, total, chunk_size)
    ]


def _window(trace, start: int, stop: int):
    """``(codes, writes)`` of one window of either trace kind.

    A binary trace gives its mapped ``uint32`` records undecoded (the scan
    counts their write bits, so ``writes`` is 0); an in-memory trace its
    resolved item indices and their write count.
    """
    if isinstance(trace, StreamingTrace):
        return trace.chunk_records(start, stop), 0
    resolved = resolve_trace(trace)
    return resolved.item_at[start:stop], int(resolved.is_write[start:stop].sum())


def _spans(chunks: list, parts: int) -> list[list[tuple[int, int]]]:
    """``chunks`` cut into ``parts`` contiguous runs in trace order, whose
    lengths differ by at most one chunk."""
    size, extra = divmod(len(chunks), parts)
    cuts = [part * size + min(part, extra) for part in range(parts + 1)]
    return [chunks[low:high] for low, high in zip(cuts, cuts[1:])]


def _span_windows(trace, span: list[tuple[int, int]]):
    """The ``(codes, writes)`` windows of one span of chunks.

    A binary trace yields one window per chunk, read as it is scanned; an
    in-memory trace gives the span as one slice of its resolved arrays.
    """
    if isinstance(trace, StreamingTrace):
        return (_window(trace, start, stop) for start, stop in span)
    return [_window(trace, span[0][0], span[-1][1])]


#: Worker-process cache of opened binary traces, keyed by path; workers
#: are persistent (:mod:`repro.analysis.pool`), so each file is mapped
#: once per worker regardless of how many spans it scans.
_WORKER_STREAMS: dict[str, StreamingTrace] = {}


def _scan_span_task(task):
    """Pool task: summarise one span of chunks (runs in a worker process).

    ``source`` is a binary trace's path, re-mapped once per worker and
    read chunk by chunk, or the span's one in-memory window.
    """
    source, span, config, dbc_of, offset_of = task
    if isinstance(source, str):
        stream = _WORKER_STREAMS.get(source)
        if stream is None:
            stream = _WORKER_STREAMS[source] = open_binary(source)
        windows = _span_windows(stream, span)
    else:
        windows = [source]
    return scan_span(windows, config, dbc_of, offset_of)


# ---------------------------------------------------------------------------
# Engine entry point
# ---------------------------------------------------------------------------

def simulate_streaming(
    trace,
    config: DWMConfig,
    placement: Placement,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    jobs: int | None = None,
    validate: bool = True,
    force_merge: bool = False,
) -> SimulationResult:
    """Run a trace through the chunked streaming engine.

    ``trace`` may be a :class:`~repro.trace.binio.StreamingTrace` (the
    out-of-core case) or a plain :class:`~repro.trace.model.AccessTrace`
    (windowed over its resolved arrays — used by the conformance oracles).
    ``jobs > 1`` cuts the chunks into ``min(jobs, chunks)`` contiguous
    spans, scans one span per task on the persistent worker pool and
    stitches the span summaries sequentially; ``force_merge`` uses the
    same map+stitch path in-process with one span per chunk (testing hook
    for the merge algebra).
    Results are bit-identical to :func:`~repro.memory.batch_sim.simulate_vectorized`
    in every mode.
    """
    registry = get_registry()
    items = tuple(trace.items)
    if validate:
        placement.validate(config, items)
    dbc_of, offset_of = slot_arrays(items, placement)
    total_accesses = len(trace)
    chunks = _chunk_bounds(total_accesses, chunk_size)
    parallel = bool(jobs and jobs > 1 and len(chunks) > 1)
    mode = "parallel" if parallel else ("merge" if force_merge else "sequential")
    scan_start = time.perf_counter()
    stitch_seconds = 0.0
    if mode == "sequential":
        state, _accesses, writes = scan_windows(
            _checked(_window(trace, start, stop) for start, stop in chunks),
            config, dbc_of, offset_of,
        )
        per_dbc = state.totals.tolist()
        max_access = int(state.maxes.max())
    else:
        # Parallel mode scans one span per worker; merge mode one span per
        # chunk, so the fold is exercised.
        if parallel:
            from repro.analysis.pool import get_pool

            spans = _spans(chunks, min(jobs, len(chunks)))
            path = str(trace.path) if isinstance(trace, StreamingTrace) else None
            tasks = [
                (
                    path or _span_windows(trace, span)[0],
                    span, config, dbc_of, offset_of,
                )
                for span in spans
            ]
            try:
                states = get_pool(jobs).run(
                    _scan_span_task, tasks, propagate=True
                )
            except Exception as exc:
                from repro.robust import is_recoverable, record_degradation

                if not is_recoverable(exc):
                    raise
                # Pool infrastructure failed; the span algebra is pure, so
                # rescanning in-process yields bit-identical results.
                record_degradation(
                    "stream",
                    "parallel",
                    "sequential",
                    f"{type(exc).__name__}: {exc}",
                )
                parallel = False
                mode = "sequential"
        else:
            spans = [[chunk] for chunk in chunks]
        if not parallel:
            states = [
                scan_span(_span_windows(trace, span), config, dbc_of, offset_of)
                for span in spans
            ]
        stitch_start = time.perf_counter()
        folded = scan_span((), config, dbc_of, offset_of)
        for chunk_state in states:
            folded = merge_states(folded, chunk_state)
        per_dbc, _total, max_access = finalize_state(folded, config)
        writes = folded.writes
        stitch_seconds = time.perf_counter() - stitch_start
    scan_seconds = time.perf_counter() - scan_start
    try:
        import resource

        peak_rss_bytes = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        )
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX
        peak_rss_bytes = 0
    registry.inc("stream.chunks", len(chunks))
    registry.observe("stream.scan.seconds", scan_seconds, mode=mode)
    registry.observe("stream.stitch.seconds", stitch_seconds, mode=mode)
    registry.observe("stream.peak_rss_bytes", peak_rss_bytes)
    return SimulationResult(
        trace_name=trace.name,
        config_description=config.describe(),
        shifts=sum(per_dbc),
        reads=total_accesses - writes,
        writes=writes,
        per_dbc_shifts=tuple(per_dbc),
        max_access_shifts=max_access,
        details={
            "engine": "streaming",
            "mode": mode,
            "chunk_size": int(chunk_size),
            "num_chunks": len(chunks),
            "jobs": int(jobs) if jobs else 1,
            "scan_seconds": scan_seconds,
            "stitch_seconds": stitch_seconds,
            "peak_rss_bytes": int(peak_rss_bytes),
        },
    )
