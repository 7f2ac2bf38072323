"""Shift-aware access reordering (compiler-side companion optimization).

Placement fixes *where* data lives; a compiler can additionally reorder
nearby independent accesses so the head sweeps monotonically instead of
ping-ponging — the DWM analogue of instruction scheduling for address
registers.  This module implements the conservative runtime-safe version:

* accesses are drawn from a sliding window of size ``window``;
* **program order is preserved per item** (two accesses to the same item
  never swap, so every read still sees the same last write), which is the
  only dependence the word-granular trace exposes;
* within the ready set the scheduler greedily issues the access whose slot
  is cheapest to reach from the current head of its DBC (ties: earliest in
  program order).

``window=1`` degenerates to the original order, so reordering composes with
any placement and can only be evaluated as a delta (experiment E16).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import evaluate_placements_fast
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import PortPolicy
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace


@dataclass(frozen=True)
class ReorderingResult:
    """Outcome of scheduling one trace."""

    trace: AccessTrace
    total_shifts: int
    original_shifts: int
    moved_accesses: int

    @property
    def reduction_percent(self) -> float:
        if not self.original_shifts:
            return 0.0
        return 100.0 * (self.original_shifts - self.total_shifts) / self.original_shifts


def reorder_accesses(
    problem: PlacementProblem,
    placement: Placement,
    window: int = 8,
) -> ReorderingResult:
    """Greedy shift-aware scheduling within a sliding window.

    Returns the reordered trace plus its exact shift cost; the per-item
    subsequences of the result equal those of the input (tested property).
    """
    if window < 1:
        raise OptimizationError(f"window must be >= 1, got {window}")
    config = problem.config
    placement.validate(config, problem.items)
    ports = config.port_offsets
    eager = config.port_policy is PortPolicy.EAGER
    accesses = list(problem.trace)
    slot_of = {item: placement[item] for item in problem.items}
    heads: dict[int, int] = {}
    scheduled = []
    total = 0
    moved = 0
    next_index = 0  # first access not yet inside the window
    pending: list[int] = []  # indices currently in the window, program order
    issued_count_per_item: dict[str, int] = {}
    # Pre-compute each access's per-item sequence number so readiness is O(1):
    # an access is ready when all earlier accesses to the same item issued.
    per_item_rank: list[int] = []
    seen: dict[str, int] = {}
    for access in accesses:
        rank = seen.get(access.item, 0)
        per_item_rank.append(rank)
        seen[access.item] = rank + 1

    def access_cost(index: int) -> tuple[int, int]:
        """(cost, new_head) of issuing access ``index`` now."""
        slot = slot_of[accesses[index].item]
        head = heads.get(slot.dbc, 0)
        best_cost = None
        best_target = 0
        for port in ports:
            target = slot.offset - port
            cost = abs(target - head)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_target = target
        if eager:
            approach = min(abs(slot.offset - port) for port in ports)
            return 2 * approach, 0
        assert best_cost is not None
        return best_cost, best_target

    position = 0
    while pending or next_index < len(accesses):
        while len(pending) < window and next_index < len(accesses):
            pending.append(next_index)
            next_index += 1
        # Ready accesses: all earlier same-item accesses already issued.
        best_pending_pos = None
        best_key = None
        for pending_pos, index in enumerate(pending):
            access = accesses[index]
            if per_item_rank[index] != issued_count_per_item.get(access.item, 0):
                continue
            cost, _target = access_cost(index)
            key = (cost, index)
            if best_key is None or key < best_key:
                best_key = key
                best_pending_pos = pending_pos
        assert best_pending_pos is not None  # the window head is always ready
        index = pending.pop(best_pending_pos)
        access = accesses[index]
        cost, new_head = access_cost(index)
        slot = slot_of[access.item]
        heads[slot.dbc] = new_head
        total += cost
        if index != position:
            moved += 1
        position += 1
        issued_count_per_item[access.item] = (
            issued_count_per_item.get(access.item, 0) + 1
        )
        scheduled.append(access)
    (original,) = evaluate_placements_fast(problem, [placement], validate=False)
    if total > original:
        # The greedy schedule is myopic and can lose; a compiler would keep
        # the original order in that case, and so do we (total <= original
        # is therefore an invariant of this function).
        return ReorderingResult(
            trace=problem.trace,
            total_shifts=original,
            original_shifts=original,
            moved_accesses=0,
        )
    reordered_trace = AccessTrace(
        scheduled,
        name=f"{problem.trace.name}|reordered(w={window})",
        metadata=problem.trace.metadata,
    )
    return ReorderingResult(
        trace=reordered_trace,
        total_shifts=total,
        original_shifts=original,
        moved_accesses=moved,
    )
