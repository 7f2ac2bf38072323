"""Local-search refinement of placements (true-trace-cost objective).

Used both as the "+refinement" ablation arm (E10) and as a general-purpose
polish pass.  All moves are scored exactly, via the incremental delta engine
(:class:`repro.core.incremental.CostEvaluator`): a candidate costs
O(touched accesses) instead of a full O(trace) re-evaluation, so the same
``max_evaluations`` budget explores the same neighbourhood an order of
magnitude faster (E18).  Candidate enumeration, acceptance rules, and seeded
randomness are unchanged from the full-re-evaluation implementation, so
results are bit-identical; refinement can only ever improve the real
objective.

Each hill climber is one refinement pass of the evaluator
(:meth:`CostEvaluator.swap_pass`, :meth:`~CostEvaluator.reversal_pass`): a
first-improvement scan that probes candidates one at a time in a fixed
order, applies each improving move as soon as it finds one, and stops
after a pass that accepts nothing or when ``max_evaluations`` is spent
(the start counts as one evaluation, each probe as one more).  The cc kernel tier runs a whole pass
in one compiled call; the numpy tier runs the same scan over the single
probes.  Both reproduce one trajectory — placements, tie order and the
probe at which the budget runs out (``tests/test_local_search_golden.py``).
Simulated annealing draws random single moves and keeps the single probes.

* :func:`swap_refinement` — first-improvement hill climbing over pairwise
  item-slot swaps (including cross-DBC swaps) and moves to free slots.
* :func:`two_opt_refinement` — segment reversal within each DBC's occupied
  offsets (the classical 2-opt move for linear arrangements).
* :func:`simulated_annealing` — seeded SA over the same move set for harder
  instances; accepts uphill moves with Metropolis probability.
"""

from __future__ import annotations

import math
import random

from repro.core.incremental import CostEvaluator
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.errors import OptimizationError


def swap_refinement(
    problem: PlacementProblem,
    placement: Placement,
    max_passes: int = 3,
    max_evaluations: int = 20000,
) -> Placement:
    """First-improvement hill climbing over swaps and free-slot moves.

    Each pass probes every pairwise swap ``items[i] <-> items[j]`` for
    ``i < j`` (cross-DBC swaps included), then moves of every item to each
    slot free when its scan begins (:meth:`CostEvaluator.scan_swaps`).
    """
    evaluator = CostEvaluator(problem, placement)
    evaluator.swap_pass(max_passes, max_evaluations)
    return evaluator.placement()


def two_opt_refinement(
    problem: PlacementProblem,
    placement: Placement,
    max_passes: int = 3,
    max_evaluations: int = 20000,
) -> Placement:
    """Segment-reversal (2-opt) refinement within each DBC.

    Segments range over the offsets that hold traced items; an item the
    trace never touches keeps its slot.  Candidate ``(i, j)`` reverses
    ``offsets[i..j]`` (:meth:`CostEvaluator.scan_reversals`).
    """
    evaluator = CostEvaluator(problem, placement)
    evaluator.reversal_pass(max_passes, max_evaluations)
    return evaluator.placement()


def two_opt_then_swap(
    problem: PlacementProblem,
    placement: Placement,
    max_passes: int = 3,
    max_evaluations: int = 20000,
) -> Placement:
    """:func:`two_opt_refinement`, then :func:`swap_refinement` on its
    result, on one evaluator; each refinement has its own budget."""
    evaluator = CostEvaluator(problem, placement)
    evaluator.reversal_pass(max_passes, max_evaluations)
    evaluator.swap_pass(max_passes, max_evaluations)
    return evaluator.placement()


def simulated_annealing(
    problem: PlacementProblem,
    placement: Placement,
    seed: int = 0,
    initial_temperature: float | None = None,
    cooling: float = 0.95,
    steps_per_temperature: int = 50,
    min_temperature: float = 0.01,
    max_evaluations: int = 50000,
) -> Placement:
    """Seeded simulated annealing over swaps and free-slot moves.

    ``initial_temperature`` (``> 0``) defaults to 5% of the starting cost
    so the schedule adapts to instance scale.  Deterministic given ``seed`` (the
    random-number consumption pattern of the original full-re-evaluation
    implementation is preserved exactly).
    """
    if not 0.0 < cooling < 1.0:
        raise OptimizationError(f"cooling must be in (0, 1), got {cooling}")
    if initial_temperature is not None and not initial_temperature > 0.0:
        raise OptimizationError(
            f"initial_temperature must be > 0, got {initial_temperature}"
        )
    rng = random.Random(seed)
    evaluator = CostEvaluator(problem, placement)
    current_cost = evaluator.total
    best, best_cost = placement, current_cost
    temperature = (
        max(1.0, 0.05 * current_cost)
        if initial_temperature is None
        else initial_temperature
    )
    evaluations = 1
    items = list(problem.items)
    if len(items) < 2:
        return placement
    # Cached free-slot list, refreshed only after an accepted move changes
    # the occupancy (swaps never do).
    free_slots: list[Slot] | None = None
    while temperature > min_temperature and evaluations < max_evaluations:
        for _ in range(steps_per_temperature):
            if evaluations >= max_evaluations:
                break
            move: tuple
            if rng.random() < 0.7:
                item_a, item_b = rng.sample(items, 2)
                move = ("swap", item_a, item_b)
                delta = evaluator.swap_delta(item_a, item_b)
            else:
                if free_slots is None:
                    free_slots = evaluator.free_slots()
                if not free_slots:
                    item_a, item_b = rng.sample(items, 2)
                    move = ("swap", item_a, item_b)
                    delta = evaluator.swap_delta(item_a, item_b)
                else:
                    item = rng.choice(items)
                    slot = rng.choice(free_slots)
                    move = ("move", item, slot)
                    delta = evaluator.move_delta(item, slot)
            evaluations += 1
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                if move[0] == "swap":
                    evaluator.apply_swap(move[1], move[2])
                else:
                    evaluator.apply_move(move[1], move[2])
                    free_slots = None
                current_cost += delta
                if current_cost < best_cost:
                    best_cost = current_cost
                    best = evaluator.placement()
        temperature *= cooling
    return best
