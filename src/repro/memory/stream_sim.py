"""Chunked out-of-core simulation engine with mergeable automaton state.

The vectorized engine (:mod:`repro.memory.batch_sim`) needs the whole
access stream as dense arrays; this module computes the identical result
while only ever holding one fixed-size window, so traces far larger than
RAM — opened through :class:`repro.trace.binio.StreamingTrace` — simulate
in bounded memory.

The per-DBC cost scan is a deterministic port automaton, so everything a
chunk needs from its past is one integer per DBC: the head position.
Every lazy scan below is one call per chunk to the active kernel tier's
interleaved scan (:meth:`~repro.core.kernels.CcKernels.lazy_scan`), which
walks the window in trace order with one head per DBC — on a binary trace
straight over the mapped ``uint32`` records, masking the write bit and
counting writes in the same pass.  Eager costs are a rest-distance table
gather.  Three scan modes:

* **sequential** (default) — chunks scanned in order into one carried
  :class:`~repro.core.kernels.ScanState`, which holds the exact per-DBC
  head between chunks.
* **merge** — each chunk is summarised *independently* into a
  :class:`ChunkState` whose lazy per-DBC entries are conditioned on the
  one unknown bit of context: which port serves the chunk's first access
  to that DBC (``P`` possibilities — the scan's ``P`` lanes per DBC).
  :func:`merge_states` composes two summaries by pricing the boundary
  access, which makes the summary an associative monoid — chunks can be
  folded in any order.
* **parallel** — the merge-mode map fanned out over the persistent
  worker pool (:mod:`repro.analysis.pool`), followed by the same cheap
  sequential stitch.  Workers re-map binary traces by path, so task
  payloads stay tiny.

All three are bit-identical to the in-memory vectorized engine on
totals, per-DBC decompositions and ``max_access_shifts`` (fuzzed by the
``streaming`` oracle family in :mod:`repro.verify.oracles`).  See
docs/STREAMING.md for the boundary-state math and chunk-size guidance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import kernels
# Not called here: ``perfbench/spans.py`` wraps this name in this module.
from repro.core.incremental import lazy_costs_from_state  # noqa: F401
from repro.core.placement import Placement
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.dbc import port_access_cost, rest_table
from repro.errors import SimulationError
from repro.memory.batch_sim import resolve_trace, slot_arrays
from repro.memory.result import SimulationResult
from repro.obs import get_registry
from repro.trace.binio import StreamingTrace, open_binary, split_records

#: Default window length (accesses per chunk).  The lazy scan reads a
#: binary trace's 4-byte records in place, so a window costs its 1 MiB of
#: mapped pages plus the per-DBC state; the eager gather decodes the window
#: into a few int64 arrays (~8 MiB).
DEFAULT_CHUNK_SIZE = 1 << 18


@dataclass(frozen=True)
class LazyDBCState:
    """Summary of one chunk's accesses to one DBC under the lazy policy.

    ``totals``/``maxes``/``heads`` are indexed by the port that served the
    chunk's *first* access to this DBC — the only context the chunk cannot
    know on its own.  ``totals[p]`` is the exact cost of accesses 2..k
    given the first was served through port ``p`` (the first access's own
    cost is priced by the neighbour on the left during the merge, or from
    the fresh head 0 in :func:`finalize_state`)."""

    first_offset: int
    count: int
    totals: tuple[int, ...]
    maxes: tuple[int, ...]
    heads: tuple[int, ...]


@dataclass(frozen=True)
class EagerDBCState:
    """Summary of one chunk's accesses to one DBC under the eager policy.

    Eager costs are stateless, so the summary is just the exact partial
    totals — the merge is plain addition."""

    count: int
    total: int
    max_cost: int


@dataclass
class ChunkState:
    """Mergeable scan summary of one window of the access stream."""

    policy: str
    ports: tuple[int, ...]
    accesses: int
    writes: int
    dbcs: dict


def scan_chunk(codes, writes: int, config: DWMConfig, dbc_of, offset_of) -> ChunkState:
    """Summarise one window into a mergeable :class:`ChunkState`.

    ``codes`` are the window's raw ``uint32`` records or int64 item
    indices, and ``writes`` counts the writes the codes do not carry (see
    :func:`_window`).  Independent of every other chunk: the lazy policy is
    one conditioned kernel scan (``P`` lanes per DBC), the eager one a
    table gather.
    """
    import numpy as np

    from repro.chaos import failpoint

    failpoint("stream.scan")
    ports = config.port_offsets
    dbcs: dict = {}
    if config.port_policy is PortPolicy.EAGER:
        items, record_writes = split_records(codes)
        writes += record_writes
        dbc_seq = dbc_of[items]
        costs = rest_table(config)[offset_of[items]]
        totals = np.zeros(config.num_dbcs, dtype=np.int64)
        maxes = np.zeros(config.num_dbcs, dtype=np.int64)
        counts = np.zeros(config.num_dbcs, dtype=np.int64)
        np.add.at(totals, dbc_seq, costs)
        np.maximum.at(maxes, dbc_seq, costs)
        np.add.at(counts, dbc_seq, 1)
        for dbc in np.flatnonzero(counts).tolist():
            dbcs[dbc] = EagerDBCState(
                count=int(counts[dbc]),
                total=int(totals[dbc]),
                max_cost=int(maxes[dbc]),
            )
    else:
        state = kernels.ScanState(config.num_dbcs, len(ports))
        writes += kernels.active().lazy_scan(codes, dbc_of, offset_of, ports, state)
        for dbc in np.flatnonzero(state.counts).tolist():
            dbcs[dbc] = LazyDBCState(
                first_offset=int(state.first[dbc]),
                count=int(state.counts[dbc]),
                totals=tuple(state.totals[dbc].tolist()),
                maxes=tuple(state.maxes[dbc].tolist()),
                heads=tuple(state.heads[dbc].tolist()),
            )
    return ChunkState(
        policy=config.port_policy.value,
        ports=ports,
        accesses=int(codes.size),
        writes=int(writes),
        dbcs=dbcs,
    )


def _boundary_port(offset: int, ports: tuple[int, ...], head: int) -> tuple[int, int]:
    """``(port_index, cost)`` of serving ``offset`` from ``head`` — the
    greedy step of :func:`~repro.dwm.dbc.port_access_cost`."""
    cost, port, _target = port_access_cost(offset, head, ports)
    return ports.index(port), cost


def merge_states(left: ChunkState, right: ChunkState) -> ChunkState:
    """Compose two adjacent chunk summaries (associative).

    For each DBC both sides touch, the only coupling is the right chunk's
    first access: its cost (and serving port) follow from the left chunk's
    exit head, which selects which of the right summary's ``P``
    conditioned interiors applies.
    """
    if left.accesses == 0:
        return right
    if right.accesses == 0:
        return left
    if left.policy != right.policy or left.ports != right.ports:
        raise SimulationError(
            "cannot merge chunk states from different configurations"
        )
    dbcs = dict(left.dbcs)
    for dbc, rstate in right.dbcs.items():
        lstate = dbcs.get(dbc)
        if lstate is None:
            dbcs[dbc] = rstate
            continue
        if left.policy == PortPolicy.EAGER.value:
            dbcs[dbc] = EagerDBCState(
                count=lstate.count + rstate.count,
                total=lstate.total + rstate.total,
                max_cost=max(lstate.max_cost, rstate.max_cost),
            )
            continue
        totals, maxes, heads = [], [], []
        for p1 in range(len(left.ports)):
            port_index, cost = _boundary_port(
                rstate.first_offset, left.ports, lstate.heads[p1]
            )
            totals.append(
                lstate.totals[p1] + cost + rstate.totals[port_index]
            )
            maxes.append(
                max(lstate.maxes[p1], cost, rstate.maxes[port_index])
            )
            heads.append(rstate.heads[port_index])
        dbcs[dbc] = LazyDBCState(
            first_offset=lstate.first_offset,
            count=lstate.count + rstate.count,
            totals=tuple(totals),
            maxes=tuple(maxes),
            heads=tuple(heads),
        )
    return ChunkState(
        policy=left.policy,
        ports=left.ports,
        accesses=left.accesses + right.accesses,
        writes=left.writes + right.writes,
        dbcs=dbcs,
    )


def finalize_state(
    state: ChunkState, config: DWMConfig
) -> tuple[list[int], int, int]:
    """Resolve a folded summary against the fresh initial head (0).

    Returns ``(per_dbc_shifts, total_shifts, max_access_shifts)`` —
    bit-identical to a single scan of the concatenated stream.
    """
    per_dbc = [0] * config.num_dbcs
    max_access = 0
    for dbc, dbc_state in state.dbcs.items():
        if state.policy == PortPolicy.EAGER.value:
            per_dbc[dbc] = dbc_state.total
            if dbc_state.max_cost > max_access:
                max_access = dbc_state.max_cost
            continue
        port_index, cost = _boundary_port(
            dbc_state.first_offset, state.ports, 0
        )
        per_dbc[dbc] = cost + dbc_state.totals[port_index]
        group_max = max(cost, dbc_state.maxes[port_index])
        if group_max > max_access:
            max_access = group_max
    return per_dbc, sum(per_dbc), max_access


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


#: Worker-process cache of opened binary traces, keyed by path; workers
#: are persistent (:mod:`repro.analysis.pool`), so each file is mapped
#: once per worker regardless of how many chunks it scans.
_WORKER_STREAMS: dict[str, StreamingTrace] = {}


def _scan_chunk_task(task):
    """Pool task: summarise one chunk (runs in a worker process)."""
    kind = task[0]
    if kind == "file":
        _kind, path, start, stop, config, dbc_of, offset_of = task
        stream = _WORKER_STREAMS.get(path)
        if stream is None:
            stream = open_binary(path)
            _WORKER_STREAMS[path] = stream
        codes, writes = stream.chunk_records(start, stop), 0
    else:
        _kind, codes, writes, config, dbc_of, offset_of = task
    return scan_chunk(codes, writes, config, dbc_of, offset_of)


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
    ``jobs > 1`` fans the per-chunk scans out over the persistent worker
    pool and stitches the summaries sequentially; ``force_merge`` uses the
    same map+stitch path in-process (testing hook for the merge algebra).
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
    writes = 0
    if mode == "sequential" and config.port_policy is PortPolicy.LAZY:
        from repro.chaos import failpoint

        tier = kernels.active()
        state = kernels.ScanState(config.num_dbcs)
        for start, stop in chunks:
            failpoint("stream.scan")
            codes, chunk_writes = _window(trace, start, stop)
            writes += chunk_writes + tier.lazy_scan(
                codes, dbc_of, offset_of, config.port_offsets, state
            )
        per_dbc = state.totals.tolist()
        max_access = int(state.maxes.max())
    else:
        # Eager summaries are exact partial sums, so the sequential eager
        # scan is this same map and fold.
        if parallel:
            from repro.analysis.pool import get_pool

            if isinstance(trace, StreamingTrace):
                tasks = [
                    ("file", str(trace.path), start, stop, config, dbc_of, offset_of)
                    for start, stop in chunks
                ]
            else:
                tasks = [
                    ("arrays", *_window(trace, start, stop), config, dbc_of, offset_of)
                    for start, stop in chunks
                ]
            try:
                states = get_pool(jobs).run(
                    _scan_chunk_task, tasks, propagate=True
                )
            except Exception as exc:
                from repro.robust import is_recoverable, record_degradation

                if not is_recoverable(exc):
                    raise
                # Pool infrastructure failed; the chunk algebra is pure, so
                # rescanning in-process yields bit-identical results.
                record_degradation(
                    "stream",
                    "parallel",
                    "sequential",
                    f"{type(exc).__name__}: {exc}",
                )
                parallel = False
        if not parallel:
            states = [
                scan_chunk(*_window(trace, start, stop), config, dbc_of, offset_of)
                for start, stop in chunks
            ]
        stitch_start = time.perf_counter()
        folded = ChunkState(
            policy=config.port_policy.value,
            ports=config.port_offsets,
            accesses=0,
            writes=0,
            dbcs={},
        )
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
