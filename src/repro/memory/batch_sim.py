"""Vectorized batch simulation engine for DWM scratchpads.

The scalar engine (``ScratchpadMemory.simulate(engine="scalar")``) replays
a trace one access at a time through
:class:`~repro.dwm.array.DWMArrayModel`, allocating an ``AccessResult`` per
access — exact, but interpreted Python all the way down.  This module
computes the identical result with numpy:

1. **Resolve once** (:class:`ResolvedTrace`): the trace is lowered to dense
   arrays — item index and read/write flag per access.  This is the only
   O(accesses) Python loop, and it is independent of config and placement,
   so it amortizes across every (config, placement) pair simulated against
   the same trace.
2. **Scan per run**: for a given placement the per-access (dbc, offset)
   sequences are gathers; accesses are grouped by DBC with a stable argsort
   (DBCs are independent, so each group replays in isolation); and each
   group's shift costs come from a closed-form scan — position diffs for
   lazy single-port, a rest-distance table for eager, and the active
   kernel tier's port-state walk
   (:func:`~repro.core.incremental.multi_port_access_costs`, over
   :mod:`repro.core.kernels`) for lazy multi-port.

Every path produces per-access integer cost vectors, so totals, per-DBC
totals and ``max_access_shifts`` are all bit-identical to the scalar engine
(differential-tested in ``tests/test_batch_sim.py``).

Entry points: :func:`simulate_vectorized` for one run,
:class:`BatchSimulator` / :func:`batch_simulate` to amortize trace
resolution across many runs, and ``ScratchpadMemory.simulate`` (whose
``"auto"`` engine is this one for every in-memory trace).  The optimizers'
candidate scoring (:func:`repro.core.cost.evaluate_placements_fast`) runs
the same scan on totals only.  The scalar walk is the reference these
paths are tested against, not a fast path for short traces.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Iterable, Sequence

from repro.core.incremental import multi_port_access_costs
# Not called here: ``perfbench/spans.py`` wraps this name in this module.
from repro.core.incremental import two_port_access_costs  # noqa: F401
from repro.core.kernels import single_port_access_costs_numpy
from repro.core.placement import Placement
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.dbc import rest_table
from repro.memory.result import SimulationResult
from repro.obs import get_registry
from repro.trace.model import AccessTrace


class ResolvedTrace:
    """A trace lowered to dense numpy arrays, reusable across runs.

    Resolution is config- and placement-independent: it only fixes the
    item-index and read/write flag of every access.  Build it once (or let
    :class:`BatchSimulator` do it) and every subsequent simulation of the
    same trace skips the per-access Python loop entirely.
    """

    def __init__(self, trace: AccessTrace) -> None:
        import numpy as np

        start = time.perf_counter()
        self._trace = weakref.ref(trace)
        self.items: tuple[str, ...] = trace.items
        index = {item: position for position, item in enumerate(self.items)}
        length = len(trace)
        self.item_at = np.fromiter(
            (index[access.item] for access in trace), np.int64, length
        )
        self.is_write = np.fromiter(
            (access.is_write for access in trace), np.bool_, length
        )
        writes = int(self.is_write.sum())
        self.writes = writes
        self.reads = length - writes
        self.resolve_seconds = time.perf_counter() - start
        registry = get_registry()
        registry.inc("sim.resolves")
        registry.observe("sim.resolve.seconds", self.resolve_seconds)

    @property
    def trace(self) -> AccessTrace | None:
        """The resolved trace, or ``None`` once it has been freed.

        Held weakly: the trace caches its resolution (``_resolved``), and a
        strong reference back would make a cycle that keeps both — and the
        per-access records — alive until a full cyclic collection.
        """
        return self._trace()

    @classmethod
    def from_arrays(cls, trace: AccessTrace, items, item_at, is_write):
        """Trusted constructor from prebuilt dense arrays.

        Used by the shared-memory attach path
        (:mod:`repro.memory.shm`), where the arrays already exist in a
        published segment and re-deriving them from the trace object
        would repeat the O(accesses) Python loop the segment exists to
        avoid.  The caller guarantees the arrays describe ``trace``.
        """
        resolved = cls.__new__(cls)
        resolved._trace = weakref.ref(trace)
        resolved.items = tuple(items)
        resolved.item_at = item_at
        resolved.is_write = is_write
        resolved.writes = int(is_write.sum())
        resolved.reads = int(item_at.size) - resolved.writes
        resolved.resolve_seconds = 0.0
        get_registry().inc("sim.resolves", mode="attached")
        return resolved


def seed_resolved(trace: AccessTrace, resolved: ResolvedTrace) -> None:
    """Register ``resolved`` as the canonical resolution of ``trace``.

    The resolution is cached on the trace object itself, so its lifetime
    exactly matches the trace's and every later :func:`resolve_trace`
    call — sweep cells, shared-memory handles, simulators — reuses the
    same arrays.  The cache is dropped on pickling (see
    ``AccessTrace.__getstate__``) so it never bloats task payloads.
    """
    trace._resolved = resolved


#: Serialises first-time resolution so concurrent requests against the same
#: trace object (the placement server's normal case) build the dense arrays
#: exactly once.  A single process-wide lock suffices: resolution is quick
#: relative to the scans it enables, and the fast path below never takes it.
_RESOLVE_LOCK = threading.Lock()


def resolve_trace(trace: AccessTrace) -> ResolvedTrace:
    """The canonical :class:`ResolvedTrace` of ``trace``.

    Resolves at most once per trace object: the result is cached on the
    trace (see :func:`seed_resolved`), so repeated sweep cells over the
    same trace skip the per-access Python loop entirely.  Thread-safe:
    two concurrent callers racing on an unresolved trace still produce
    (and share) a single resolution.
    """
    cached = getattr(trace, "_resolved", None)
    if cached is not None:
        return cached
    with _RESOLVE_LOCK:
        cached = getattr(trace, "_resolved", None)
        if cached is not None:
            return cached
        resolved = ResolvedTrace(trace)
        trace._resolved = resolved
        return resolved


def _slot_arrays(resolved: ResolvedTrace, placement: Placement):
    """Per-item (dbc, offset) lookup arrays for one placement."""
    import numpy as np

    count = len(resolved.items)
    dbc_of = np.empty(count, dtype=np.int64)
    offset_of = np.empty(count, dtype=np.int64)
    for position, item in enumerate(resolved.items):
        slot = placement[item]
        dbc_of[position] = slot.dbc
        offset_of[position] = slot.offset
    return dbc_of, offset_of


def _access_costs(config: DWMConfig, dbc_seq, offset_seq):
    """Per-access shift costs, in trace order.

    Eager costs are stateless — every access costs twice its rest distance —
    so they are one table gather.  Lazy head state persists per DBC, so the
    access stream is grouped by DBC (a stable sort keeps each DBC's internal
    order) and each group is scanned in isolation by the closed form for its
    port count.
    """
    import numpy as np

    ports = config.port_offsets
    if config.port_policy is PortPolicy.EAGER:
        return rest_table(config)[offset_seq]
    order = np.argsort(dbc_seq, kind="stable")
    sorted_dbc = dbc_seq[order]
    sorted_offsets = offset_seq[order]
    boundaries = np.searchsorted(sorted_dbc, np.arange(config.num_dbcs + 1))
    costs = np.empty(dbc_seq.size, dtype=np.int64)
    num_ports = len(ports)
    for dbc in range(config.num_dbcs):
        low = int(boundaries[dbc])
        high = int(boundaries[dbc + 1])
        if high == low:
            continue
        group = sorted_offsets[low:high]
        if num_ports == 1:
            group_costs = single_port_access_costs_numpy(group, ports[0])
        else:
            group_costs = multi_port_access_costs(group, ports)
        # Scatter the group's costs back to trace order.
        costs[order[low:high]] = group_costs
    return costs


def _scan(
    resolved: ResolvedTrace,
    config: DWMConfig,
    dbc_of,
    offset_of,
) -> tuple[list[int], int, int]:
    """Compute (per_dbc_shifts, total_shifts, max_access_shifts)."""
    import numpy as np

    if resolved.item_at.size == 0:
        return [0] * config.num_dbcs, 0, 0
    dbc_seq = dbc_of[resolved.item_at]
    costs = _access_costs(config, dbc_seq, offset_of[resolved.item_at])
    # Integer scatter-add keeps per-DBC totals exact (unlike float bincount
    # weights).
    totals = np.zeros(config.num_dbcs, dtype=np.int64)
    np.add.at(totals, dbc_seq, costs)
    per_dbc = totals.tolist()
    return per_dbc, sum(per_dbc), int(costs.max())


def per_access_costs(
    trace: AccessTrace,
    config: DWMConfig,
    placement: Placement,
    *,
    resolved: ResolvedTrace | None = None,
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

    if resolved is None or resolved.trace is not trace:
        resolved = resolve_trace(trace)
    if validate:
        placement.validate(config, resolved.items)
    dbc_of, offset_of = _slot_arrays(resolved, placement)
    if resolved.item_at.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    dbc_seq = dbc_of[resolved.item_at]
    return dbc_seq, _access_costs(config, dbc_seq, offset_of[resolved.item_at])


def simulate_vectorized(
    trace: AccessTrace,
    config: DWMConfig,
    placement: Placement,
    *,
    resolved: ResolvedTrace | None = None,
    validate: bool = True,
) -> SimulationResult:
    """Run ``trace`` through the vectorized engine.

    Bit-identical to ``ScratchpadMemory.simulate(engine="scalar")``; see the
    module docstring.  Pass a prebuilt ``resolved`` (for the same trace) to
    skip trace resolution; ``validate=False`` skips placement validation
    when the caller has already checked coverage.

    ``details`` carries the perf counters ``resolve_seconds`` (0.0 when a
    prebuilt resolution was reused — the marginal cost of this call) and
    ``scan_seconds``.
    """
    if resolved is None or resolved.trace is not trace:
        resolved = resolve_trace(trace)
        resolve_seconds = resolved.resolve_seconds
    else:
        resolve_seconds = 0.0
    if validate:
        placement.validate(config, resolved.items)
    start = time.perf_counter()
    dbc_of, offset_of = _slot_arrays(resolved, placement)
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
            "resolve_seconds": resolve_seconds,
            "scan_seconds": scan_seconds,
        },
    )


class BatchSimulator:
    """Simulate one trace against many (config, placement) pairs.

    Resolves the trace once at construction; each :meth:`simulate` call
    then costs only the vectorized scan.  This is the right tool for
    sweeps, design-space exploration, and optimizer loops that re-simulate
    the same trace under many candidate placements or geometries.
    """

    def __init__(self, trace: AccessTrace) -> None:
        self.trace = trace
        self.resolved = resolve_trace(trace)
        self._resolve_reported = False

    def access_costs(
        self,
        config: DWMConfig,
        placement: Placement,
        *,
        validate: bool = True,
    ):
        """Per-access (dbc, cost) streams, reusing the cached resolution."""
        return per_access_costs(
            self.trace,
            config,
            placement,
            resolved=self.resolved,
            validate=validate,
        )

    def simulate(
        self,
        config: DWMConfig,
        placement: Placement,
        *,
        validate: bool = True,
    ) -> SimulationResult:
        """Vectorized run of the resolved trace on one (config, placement)."""
        result = simulate_vectorized(
            self.trace,
            config,
            placement,
            resolved=self.resolved,
            validate=validate,
        )
        if not self._resolve_reported:
            # Attribute the one-off resolution cost to the first run so the
            # resolve-vs-scan split stays observable through the batch API.
            result.details["resolve_seconds"] = self.resolved.resolve_seconds
            self._resolve_reported = True
        return result


def batch_simulate(
    trace: AccessTrace,
    runs: Iterable[tuple[DWMConfig, Placement]] | Sequence[tuple[DWMConfig, Placement]],
) -> list[SimulationResult]:
    """Simulate ``trace`` under each (config, placement) pair, in order."""
    simulator = BatchSimulator(trace)
    return [simulator.simulate(config, placement) for config, placement in runs]
