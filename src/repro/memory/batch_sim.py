"""Vectorized batch simulation engine for DWM scratchpads.

The scalar engine (``ScratchpadMemory.simulate(engine="scalar")``) replays
a trace one access at a time through
:class:`~repro.dwm.array.DWMArrayModel`, allocating an ``AccessResult`` per
access — exact, but interpreted Python all the way down.  This module
computes the identical result with numpy:

1. **Resolved at construction** (:class:`~repro.trace.model.ResolvedTrace`):
   every :class:`~repro.trace.model.AccessTrace` builds its dense arrays —
   item index and read/write flag per access — in the loop that builds
   its records, or takes them as given (``AccessTrace._from_dense``,
   unpickling).  They are independent of config and placement, so
   :func:`resolve_trace` just returns them and every run of the trace
   reads the same arrays.
2. **Scan per run** (:func:`scan_windows`, the one window scan both
   engines share — the streaming engine feeds it one window at a time):
   eager costs are stateless, so each DBC's total is its items' access
   counts priced from a rest-distance table.  Lazy costs come from one
   call to the active kernel tier's interleaved scan
   (:meth:`~repro.core.kernels.CcKernels.lazy_scan`): it walks the
   accesses in trace order with one head per DBC, so the DBCs are never
   sorted apart.  Either way the result is a
   :class:`~repro.core.kernels.ScanState` of per-DBC totals and maxima
   (and the per-access costs, when asked).

Both paths are integer-exact, so totals, per-DBC totals and
``max_access_shifts`` are all bit-identical to the scalar engine
(differential-tested in ``tests/test_batch_sim.py``).

Entry points: :func:`simulate_vectorized` for one run,
:func:`per_access_costs` for the per-access cost stream, and
``ScratchpadMemory.simulate`` (whose ``"auto"`` engine is this one for
every in-memory trace).  The optimizers'
candidate scoring (:func:`repro.core.cost.evaluate_placements_fast`) runs
the same scan on totals only.  The scalar walk is the reference these
paths are tested against, not a fast path for short traces.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core import kernels
# Not called here: ``perfbench/spans.py`` wraps these names in this module.
from repro.core.incremental import multi_port_access_costs  # noqa: F401
from repro.core.incremental import two_port_access_costs  # noqa: F401
from repro.core.placement import Placement
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.dbc import rest_table
from repro.memory.result import SimulationResult
from repro.obs import get_registry
from repro.trace.binio import split_records
# Re-exported: ``repro.memory`` imports ``ResolvedTrace`` from here, and
# ``perfbench/spans.py`` wraps its ``__init__`` through this module.
from repro.trace.model import AccessTrace, ResolvedTrace


def resolve_trace(trace: AccessTrace) -> ResolvedTrace:
    """The :class:`~repro.trace.model.ResolvedTrace` that ``trace`` built
    when it was constructed."""
    return trace._resolved


def slot_arrays(items: Sequence[str], placement: Placement):
    """Per-item (dbc, offset) lookup arrays for one placement, in ``items`` order.

    Raises :class:`~repro.errors.PlacementError` for an unplaced item.
    """
    import numpy as np

    slots = [placement[item] for item in items]
    count = len(slots)
    dbc_of = np.fromiter((slot.dbc for slot in slots), np.int64, count)
    offset_of = np.fromiter((slot.offset for slot in slots), np.int64, count)
    return dbc_of, offset_of


def scan_windows(
    windows, config: DWMConfig, dbc_of, offset_of, *, lanes=None, out=None
):
    """Scan ``(codes, writes)`` windows, in trace order, into one
    :class:`~repro.core.kernels.ScanState`; returns ``(state, accesses,
    writes)``.

    ``codes`` are a window's int64 item indices or raw ``uint32`` records
    (whose write bits are counted into ``writes``).  Lazy windows go
    through the active tier's :meth:`~repro.core.kernels.CcKernels.lazy_scan`
    into a carried state (``lanes=None``) or a conditioned one
    (``lanes=P``).  Eager costs are stateless, so an eager state is always
    carried and ``lanes`` is ignored: each window adds ``count ×
    rest_table[offset]`` per item to its DBC's total and raises the DBC's
    maximum to the dearest item it touched.  ``out`` (a carried scan of
    one window) receives the per-access costs in trace order.
    """
    eager = config.port_policy is PortPolicy.EAGER
    state = kernels.ScanState(config.num_dbcs, None if eager else lanes)
    accesses = writes = 0
    if eager:
        import numpy as np

        item_cost = rest_table(config)[offset_of]
        for codes, window_writes in windows:
            items, record_writes = split_records(codes)
            accesses += items.size
            writes += window_writes + record_writes
            counts = np.bincount(items, minlength=item_cost.size)
            if counts.size > item_cost.size:
                raise IndexError(f"access names an unplaced item {counts.size - 1}")
            # Integer scatter over items keeps per-DBC totals exact
            # (unlike float bincount weights).
            np.add.at(state.totals, dbc_of, counts * item_cost)
            touched = counts > 0
            np.maximum.at(state.maxes, dbc_of[touched], item_cost[touched])
            if out is not None:
                out[:] = item_cost[items]
        return state, accesses, writes
    tier = kernels.active()
    ports = config.port_offsets
    for codes, window_writes in windows:
        accesses += codes.size
        writes += window_writes + tier.lazy_scan(
            codes, dbc_of, offset_of, ports, state, out
        )
    return state, accesses, writes


def _scan(
    resolved: ResolvedTrace,
    config: DWMConfig,
    dbc_of,
    offset_of,
) -> tuple[list[int], int, int]:
    """Compute (per_dbc_shifts, total_shifts, max_access_shifts)."""
    state = scan_windows(((resolved.item_at, 0),), config, dbc_of, offset_of)[0]
    per_dbc = state.totals.tolist()
    return per_dbc, sum(per_dbc), int(state.maxes.max())


def per_access_costs(
    trace: AccessTrace,
    config: DWMConfig,
    placement: Placement,
    *,
    validate: bool = True,
):
    """Per-access ``(dbc, shift-cost)`` streams in trace order.

    Returns two equal-length ``int64`` arrays: the DBC index and the shift
    cost of every access.  Costs are the same bit-identical quantities the
    engines sum (``costs.sum() == SimulationResult.shifts``), but kept
    per-access so downstream consumers — the fault injector in
    :mod:`repro.dwm.faults` foremost — can attribute events to individual
    accesses regardless of which engine produced the totals.
    """
    import numpy as np

    resolved = resolve_trace(trace)
    if validate:
        placement.validate(config, resolved.items)
    dbc_of, offset_of = slot_arrays(resolved.items, placement)
    costs = np.empty(resolved.item_at.size, dtype=np.int64)
    scan_windows(((resolved.item_at, 0),), config, dbc_of, offset_of, out=costs)
    return dbc_of[resolved.item_at], costs


def simulate_vectorized(
    trace: AccessTrace,
    config: DWMConfig,
    placement: Placement,
    *,
    validate: bool = True,
) -> SimulationResult:
    """Run ``trace`` through the vectorized engine.

    Bit-identical to ``ScratchpadMemory.simulate(engine="scalar")``; see the
    module docstring.  ``validate=False`` skips placement validation when
    the caller has already checked coverage.  ``details`` carries the perf
    counter ``scan_seconds``.
    """
    resolved = resolve_trace(trace)
    if validate:
        placement.validate(config, resolved.items)
    start = time.perf_counter()
    dbc_of, offset_of = slot_arrays(resolved.items, placement)
    per_dbc, total, max_access = _scan(resolved, config, dbc_of, offset_of)
    scan_seconds = time.perf_counter() - start
    get_registry().observe("sim.scan.seconds", scan_seconds, engine="vectorized")
    return SimulationResult(
        trace_name=trace.name,
        config_description=config.describe(),
        shifts=total,
        reads=resolved.reads,
        writes=resolved.writes,
        per_dbc_shifts=tuple(per_dbc),
        max_access_shifts=max_access,
        details={
            "engine": "vectorized",
            "scan_seconds": scan_seconds,
        },
    )
