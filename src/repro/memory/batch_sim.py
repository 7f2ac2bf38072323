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
2. **Scan per run**: for a given placement, eager costs are stateless —
   a rest-distance table gathered at each access's offset.  Lazy costs
   come from one call to the active kernel tier's interleaved scan
   (:meth:`~repro.core.kernels.CcKernels.lazy_scan`): it walks the
   accesses in trace order with one head per DBC, so the DBCs are never
   sorted apart, and accumulates per-DBC totals and maxima (and the
   per-access costs, when asked).

Both paths are integer-exact, so totals, per-DBC totals and
``max_access_shifts`` are all bit-identical to the scalar engine
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

from repro.core import kernels
# Not called here: ``perfbench/spans.py`` wraps these names in this module.
from repro.core.incremental import multi_port_access_costs  # noqa: F401
from repro.core.incremental import two_port_access_costs  # noqa: F401
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


def _lazy_scan(
    resolved: ResolvedTrace, config: DWMConfig, dbc_of, offset_of, out=None
):
    """The lazy per-DBC totals and maxima of one run, as a carried
    :class:`~repro.core.kernels.ScanState`; ``out`` receives the
    per-access costs in trace order when given."""
    state = kernels.ScanState(config.num_dbcs)
    kernels.active().lazy_scan(
        resolved.item_at, dbc_of, offset_of, config.port_offsets, state, out
    )
    return state


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
    if config.port_policy is PortPolicy.EAGER:
        costs = rest_table(config)[offset_of[resolved.item_at]]
        # Integer scatter-add keeps per-DBC totals exact (unlike float
        # bincount weights).
        totals = np.zeros(config.num_dbcs, dtype=np.int64)
        np.add.at(totals, dbc_of[resolved.item_at], costs)
        max_access = int(costs.max())
    else:
        state = _lazy_scan(resolved, config, dbc_of, offset_of)
        totals, max_access = state.totals, int(state.maxes.max())
    per_dbc = totals.tolist()
    return per_dbc, sum(per_dbc), max_access


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
    dbc_of, offset_of = slot_arrays(resolved.items, placement)
    if resolved.item_at.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    dbc_seq = dbc_of[resolved.item_at]
    if config.port_policy is PortPolicy.EAGER:
        return dbc_seq, rest_table(config)[offset_of[resolved.item_at]]
    costs = np.empty(resolved.item_at.size, dtype=np.int64)
    _lazy_scan(resolved, config, dbc_of, offset_of, costs)
    return dbc_seq, costs


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
