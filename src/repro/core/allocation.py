"""SPM allocation: which data objects deserve scratchpad residence at all.

The placement paper assumes everything fits in the DWM scratchpad.  Upstream
of placement sits the classic SPM *allocation* problem: the working set is
bigger than the scratchpad, objects (whole arrays / scalars) must be split
between the SPM and slow background memory, and the choice interacts with
placement — an object that would incur many shifts is worth less SPM space
than its raw access count suggests.

This module builds that substrate:

* :func:`partition_objects` — group word-granular trace items into objects
  (``"A[3]"`` → array ``A``; scalars stand alone) with sizes and heat;
* :func:`allocate` — select objects under a capacity budget by exact 0/1
  knapsack over object sizes, with either a **placement-oblivious** benefit
  (every SPM access saves ``dram − spm`` latency) or a **placement-aware**
  benefit (the shift cost of the would-be resident set, estimated by
  actually running the placement heuristic on it, is charged against the
  saving);
* :func:`simulate_allocation` — total latency of a run where non-resident
  accesses pay the background-memory latency.

Experiment E14 sweeps the capacity and compares the two benefit models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.cost import evaluate_placements_fast
from repro.core.heuristic import heuristic_placement
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.dwm.energy import DWMEnergyParams
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace

_ARRAY_ELEMENT = re.compile(r"^(?P<base>.+)\[(?P<index>-?\d+)\]$")


@dataclass(frozen=True)
class DataObject:
    """An allocatable unit: a whole array or a standalone scalar."""

    name: str
    items: tuple[str, ...]
    accesses: int

    @property
    def size_words(self) -> int:
        return len(self.items)

    @property
    def heat_density(self) -> float:
        """Accesses per word — the greedy allocation ranking."""
        return self.accesses / self.size_words


def object_name_of(item: str) -> str:
    """Object an item belongs to (array base name, or the item itself)."""
    match = _ARRAY_ELEMENT.match(item)
    return match.group("base") if match else item


def partition_objects(trace: AccessTrace) -> list[DataObject]:
    """Group the trace's items into objects, ordered by first touch."""
    members: dict[str, list[str]] = {}
    accesses: dict[str, int] = {}
    for item in trace.items:
        members.setdefault(object_name_of(item), []).append(item)
    for access in trace:
        name = object_name_of(access.item)
        accesses[name] = accesses.get(name, 0) + 1
    return [
        DataObject(
            name=name,
            items=tuple(items),
            accesses=accesses.get(name, 0),
        )
        for name, items in members.items()
    ]


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of an SPM allocation decision."""

    resident_objects: tuple[str, ...]
    placement: Placement
    capacity_words: int
    used_words: int
    policy: str

    def is_resident(self, item: str) -> bool:
        return item in self.placement


def _knapsack_select(
    objects: list[DataObject],
    benefits: list[float],
    capacity: int,
) -> list[int]:
    """Exact 0/1 knapsack: indices of the benefit-maximal object subset."""
    n = len(objects)
    best = [[0.0] * (capacity + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        size = objects[i - 1].size_words
        benefit = max(0.0, benefits[i - 1])
        for c in range(capacity + 1):
            best[i][c] = best[i - 1][c]
            if size <= c:
                candidate = best[i - 1][c - size] + benefit
                if candidate > best[i][c]:
                    best[i][c] = candidate
    chosen: list[int] = []
    c = capacity
    for i in range(n, 0, -1):
        if best[i][c] != best[i - 1][c]:
            chosen.append(i - 1)
            c -= objects[i - 1].size_words
    chosen.reverse()
    return chosen


def _resident_placement(
    trace: AccessTrace,
    resident_items: set[str],
    config: DWMConfig,
    placement_method: str = "heuristic",
) -> Placement:
    """Placement of the resident sub-trace (empty set allowed)."""
    sub_trace = trace.restricted_to(resident_items)
    if len(sub_trace) == 0:
        return Placement({})
    problem = PlacementProblem(trace=sub_trace, config=config)
    if placement_method == "heuristic":
        return heuristic_placement(problem)
    if placement_method == "declaration":
        from repro.core.baselines import declaration_order_placement

        return declaration_order_placement(problem)
    raise OptimizationError(
        f"unknown placement_method {placement_method!r}; "
        "expected 'heuristic' or 'declaration'"
    )


def allocate(
    trace: AccessTrace,
    config: DWMConfig,
    policy: str = "placement_aware",
    dram_latency_ns: float = 50.0,
    params: DWMEnergyParams | None = None,
    placement_method: str = "heuristic",
) -> AllocationResult:
    """Choose SPM-resident objects under the array's capacity.

    ``policy``:

    * ``"oblivious"`` — benefit = accesses × (dram − spm access latency);
      shifts are ignored, the classical SPM-allocation formulation.
    * ``"placement_aware"`` — each object's benefit is reduced by the shift
      latency it would pay in the SPM, measured by placing the object's own
      restricted trace with the heuristic (a solo estimate: interference
      between objects is second-order once each has its own DBC region).
      Shift-hungry objects therefore lose SPM space to cooler-but-cheaper
      ones in the same knapsack.
    """
    params = params or DWMEnergyParams()
    if policy not in ("oblivious", "placement_aware"):
        raise OptimizationError(
            f"unknown allocation policy {policy!r}; "
            "expected 'oblivious' or 'placement_aware'"
        )
    objects = partition_objects(trace)
    capacity = config.capacity_words
    spm_access = (params.read_latency_ns + params.write_latency_ns) / 2
    saving_per_access = max(0.0, dram_latency_ns - spm_access)
    benefits = [obj.accesses * saving_per_access for obj in objects]
    if policy == "placement_aware":
        for index, obj in enumerate(objects):
            if obj.size_words > capacity:
                benefits[index] = 0.0
                continue
            solo_placement = _resident_placement(trace, set(obj.items), config)
            solo_problem = PlacementProblem(
                trace=trace.restricted_to(obj.items), config=config
            )
            (shifts,) = evaluate_placements_fast(
                solo_problem, [solo_placement], validate=False
            )
            benefits[index] -= shifts * params.shift_latency_ns
    chosen = _knapsack_select(objects, benefits, capacity)
    resident_items = {
        item for index in chosen for item in objects[index].items
    }
    placement = _resident_placement(
        trace, resident_items, config, placement_method=placement_method
    )
    return AllocationResult(
        resident_objects=tuple(objects[index].name for index in chosen),
        placement=placement,
        capacity_words=capacity,
        used_words=len(resident_items),
        policy=policy,
    )


@dataclass(frozen=True)
class AllocationSimulation:
    """Latency of a run split between SPM and background memory."""

    spm_accesses: int
    dram_accesses: int
    spm_shifts: int
    total_latency_ns: float

    @property
    def spm_hit_fraction(self) -> float:
        total = self.spm_accesses + self.dram_accesses
        if not total:
            return 0.0
        return self.spm_accesses / total


def simulate_allocation(
    trace: AccessTrace,
    config: DWMConfig,
    allocation: AllocationResult,
    dram_latency_ns: float = 50.0,
    params: DWMEnergyParams | None = None,
) -> AllocationSimulation:
    """Total latency with non-resident accesses served by background memory."""
    from repro.dwm.dbc import HeadModel

    params = params or DWMEnergyParams()
    heads = {dbc: HeadModel(config) for dbc in range(config.num_dbcs)}
    spm_accesses = 0
    dram_accesses = 0
    spm_shifts = 0
    latency = 0.0
    for access in trace:
        if allocation.is_resident(access.item):
            slot = allocation.placement[access.item]
            result = heads[slot.dbc].access(slot.offset, is_write=access.is_write)
            spm_shifts += result.shifts
            spm_accesses += 1
            latency += result.shifts * params.shift_latency_ns
            latency += (
                params.write_latency_ns if access.is_write
                else params.read_latency_ns
            )
        else:
            dram_accesses += 1
            latency += dram_latency_ns
    return AllocationSimulation(
        spm_accesses=spm_accesses,
        dram_accesses=dram_accesses,
        spm_shifts=spm_shifts,
        total_latency_ns=latency,
    )
