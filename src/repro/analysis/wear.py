"""Shift-wear analysis for DWM arrays.

Every shift command drives current through a DBC's nanowires, and every
write nucleates domains at the port cells — both wear mechanisms concentrate
where the placement concentrates activity.  This module quantifies that
exposure (the follow-up concern of the placement literature, where
wear-leveling works build directly on shift-minimizing placement):

* **wire wear** — total shift operations per DBC: a maximally unbalanced
  placement burns out one cluster while others idle;
* **port wear** — writes per (DBC, port) cell.

Metrics follow the wear-leveling literature: max/mean *wear ratio* (1.0 is
perfectly level) and the Gini coefficient of the exposure distribution.

:func:`wear_aware_placement` demonstrates the trade-off: it re-balances the
shift-minimizing heuristic's groups across DBCs when imbalance exceeds a
budget, trading a bounded shift increase for a lower wear ratio
(experiment E12).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.heuristic import heuristic_placement
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.errors import OptimizationError
from repro.memory.batch_sim import simulate_vectorized, slot_arrays


@dataclass(frozen=True)
class WearReport:
    """Wear exposure of one placed run."""

    per_dbc_shifts: tuple[int, ...]
    per_dbc_writes: tuple[int, ...]
    total_shifts: int

    @property
    def max_mean_shift_ratio(self) -> float:
        """Max/mean wear ratio over DBCs that exist (1.0 = perfectly level)."""
        active = list(self.per_dbc_shifts)
        if not active or sum(active) == 0:
            return 1.0
        mean = sum(active) / len(active)
        return max(active) / mean

    @property
    def shift_gini(self) -> float:
        """Gini coefficient of per-DBC shift exposure (0 = level)."""
        values = sorted(self.per_dbc_shifts)
        n = len(values)
        total = sum(values)
        if n == 0 or total == 0:
            return 0.0
        cumulative = 0.0
        for rank, value in enumerate(values, start=1):
            cumulative += rank * value
        return (2.0 * cumulative) / (n * total) - (n + 1) / n

    @property
    def hottest_dbc(self) -> int:
        """Index of the most shift-stressed DBC."""
        return max(
            range(len(self.per_dbc_shifts)),
            key=lambda i: self.per_dbc_shifts[i],
        )


def wear_report(
    problem: PlacementProblem,
    placement: Placement,
) -> WearReport:
    """Compute the wear exposure of running the trace under a placement:
    per-DBC shifts from the vectorized engine, writes by ``bincount``."""
    import numpy as np

    config = problem.config
    resolved = problem.resolved
    result = simulate_vectorized(problem.trace, config, placement)
    dbc_of, _offset_of = slot_arrays(resolved.items, placement)
    writes = np.bincount(
        dbc_of[resolved.item_at[resolved.is_write]], minlength=config.num_dbcs
    )
    return WearReport(
        per_dbc_shifts=result.per_dbc_shifts,
        per_dbc_writes=tuple(writes.tolist()),
        total_shifts=result.shifts,
    )


def wear_aware_placement(
    problem: PlacementProblem,
    max_shift_overhead: float = 0.10,
    max_rounds: int = 16,
) -> Placement:
    """Shift-minimizing placement re-balanced for wear.

    Starts from the heuristic placement, then repeatedly interleaves the
    hottest DBC's contents with the coldest's, offset by offset (a pure
    relabeling of DBC indices never changes shift cost — DBCs are symmetric
    — so the lever is *splitting* the hottest restricted subsequence across
    two wires).  A candidate round is accepted only while total shifts stay
    within ``(1 + max_shift_overhead)`` of the starting cost and the
    max/mean wear ratio improves; the first rejected round stops the search.
    """
    if max_shift_overhead < 0:
        raise OptimizationError("max_shift_overhead must be >= 0")
    best = heuristic_placement(problem)
    best_report = wear_report(problem, best)
    budget = best_report.total_shifts * (1.0 + max_shift_overhead)
    config = problem.config
    for _ in range(max_rounds):
        if best_report.max_mean_shift_ratio <= 1.05:
            break
        hot = best_report.hottest_dbc
        shifts = best_report.per_dbc_shifts
        cold = min(range(config.num_dbcs), key=lambda i: shifts[i])
        if hot == cold:
            break
        hot_contents = best.dbc_contents(hot)
        cold_contents = best.dbc_contents(cold)
        if not hot_contents:
            break
        # Exchange a 1/stride share of the hot DBC's occupied offsets with
        # the cold DBC (free offset when available, else a swap with the
        # cold item at that offset), splitting the hot restricted
        # subsequence across two wires.  Coarse exchanges are tried first;
        # if the shift budget rejects them, finer strides follow.
        accepted = False
        for stride in (2, 4, 8):
            cold_occupied = set(cold_contents)
            mapping = dict(best.as_dict())
            for offset in sorted(hot_contents)[::stride]:
                item = hot_contents[offset]
                if offset not in cold_occupied:
                    mapping[item] = (cold, offset)
                    cold_occupied.add(offset)
                else:
                    partner = cold_contents[offset]
                    mapping[item] = (cold, offset)
                    mapping[partner] = (hot, offset)
            candidate = Placement(
                {item: Slot(*slot) for item, slot in mapping.items()}
            )
            candidate_report = wear_report(problem, candidate)
            if (
                candidate_report.total_shifts <= budget
                and candidate_report.max_mean_shift_ratio
                < best_report.max_mean_shift_ratio
            ):
                best = candidate
                best_report = candidate_report
                accepted = True
                break
        if not accepted:
            break
    return best


def lifetime_estimate_accesses(
    report: WearReport,
    shift_endurance: float = 1e16,
    trace_length: int = 1,
) -> float:
    """Replays of the trace until the hottest DBC exceeds its endurance.

    A coarse first-failure model: the wire with the highest shift exposure
    per replay dies first; leveling the exposure extends system lifetime
    proportionally to the max/mean ratio.
    """
    hottest = max(report.per_dbc_shifts, default=0)
    if hottest == 0:
        return float("inf")
    replays = shift_endurance / hottest
    return replays * trace_length
