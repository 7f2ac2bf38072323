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

The two hill climbers price their candidates a row at a time (one kernel
call per row, see :meth:`CostEvaluator.swap_deltas`), apply the row's
first improving move and resume at the next candidate with a recomputed
row; rows start short and double while nothing improves, so an accepted
move discards little work.  A row never extends past the remaining
``max_evaluations`` budget and only the probes up to the accepted one are
counted, so the trajectory — placements, tie order and the probe at which
the budget runs out — is the one-candidate-at-a-time scan's
(``tests/test_local_search_golden.py``).  Simulated annealing draws random
single moves and keeps the single probes.

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


#: Candidates in the first row of a scan and in the row after an accepted
#: move.  A row without an improvement doubles the next one, so a scan that
#: accepts nothing costs O(log n) kernel calls, while an accepted move
#: discards at most the rest of one short row.
_FIRST_ROW = 16


class _Budget:
    """Evaluations spent against ``max_evaluations`` (the start counts one)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 1


def _accepted(price, start: int, stop: int, budget: _Budget):
    """Indices in ``[start, stop)`` that a first-improvement scan accepts.

    ``price(lo, hi)`` returns the exact deltas of candidates ``lo..hi-1``
    in the current state.  The caller applies each yielded candidate before
    resuming, and the scan continues at the next candidate with a freshly
    priced row.  A row never reaches past the remaining budget and only the
    probes up to an accepted candidate are charged, so the scan visits,
    accepts and stops exactly where a one-probe-at-a-time scan does; once
    the budget is spent it yields nothing.
    """
    j, size = start, _FIRST_ROW
    while j < stop and budget.spent < budget.limit:
        hi = min(stop, j + size, j + budget.limit - budget.spent)
        hits = (price(j, hi) < 0).nonzero()[0]
        if not hits.size:
            budget.spent += hi - j
            j, size = hi, 2 * size
            continue
        k = int(hits[0])
        budget.spent += k + 1
        yield j + k
        j, size = j + k + 1, _FIRST_ROW


def swap_refinement(
    problem: PlacementProblem,
    placement: Placement,
    max_passes: int = 3,
    max_evaluations: int = 20000,
) -> Placement:
    """First-improvement hill climbing over swaps and free-slot moves.

    Candidates are priced a row at a time (:meth:`CostEvaluator.swap_deltas`
    / :meth:`~CostEvaluator.move_deltas`), see :func:`_accepted`.
    """
    evaluator = CostEvaluator(problem, placement)
    budget = _Budget(max_evaluations)
    items = list(problem.items)
    # The free-slot list only changes when a move (not a swap) is accepted;
    # hoisted out of the candidate loops and invalidated on acceptance.
    free_slots = evaluator.free_slots()
    free_dirty = False
    for _ in range(max_passes):
        improved = False
        for i, item_a in enumerate(items):
            # After an accepted swap the next row prices item_a in its new
            # slot.
            for j in _accepted(
                lambda lo, hi: evaluator.swap_deltas(item_a, items[lo:hi]),
                i + 1,
                len(items),
                budget,
            ):
                evaluator.apply_swap(item_a, items[j])
                improved = True
        for item in items:
            if free_dirty:
                free_slots = evaluator.free_slots()
                free_dirty = False
            for j in _accepted(
                lambda lo, hi: evaluator.move_deltas(item, free_slots[lo:hi]),
                0,
                len(free_slots),
                budget,
            ):
                evaluator.apply_move(item, free_slots[j])
                improved = True
                # Finish scanning the current snapshot (the remaining
                # slots are still free), then refresh for the next item.
                free_dirty = True
        if not improved:
            break
    return evaluator.placement()


def two_opt_refinement(
    problem: PlacementProblem,
    placement: Placement,
    max_passes: int = 3,
    max_evaluations: int = 20000,
) -> Placement:
    """Segment-reversal (2-opt) refinement within each DBC.

    Segments range over the offsets that hold traced items; an item the
    trace never touches keeps its slot.  Candidate ``j`` of row ``i``
    reverses ``offsets[i..j]`` (:meth:`CostEvaluator.reversal_deltas`).  A
    reversal leaves the occupied offsets unchanged, so after an accepted
    reversal the row resumes at end ``j + 1``.
    """
    evaluator = CostEvaluator(problem, placement)
    budget = _Budget(max_evaluations)
    traced = problem.item_index
    for _ in range(max_passes):
        improved = False
        for dbc in evaluator.dbcs_used():
            offsets = sorted(
                offset
                for offset, item in evaluator.dbc_contents(dbc).items()
                if item in traced
            )
            for i in range(len(offsets)):
                for j in _accepted(
                    lambda lo, hi: evaluator.reversal_deltas(
                        dbc, offsets[i:hi], first=lo - i
                    ),
                    i + 1,
                    len(offsets),
                    budget,
                ):
                    evaluator.apply_reversal(dbc, offsets[i : j + 1])
                    improved = True
        if not improved:
            break
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

    ``initial_temperature`` defaults to 5% of the starting cost so the
    schedule adapts to instance scale.  Deterministic given ``seed`` (the
    random-number consumption pattern of the original full-re-evaluation
    implementation is preserved exactly).
    """
    if not 0.0 < cooling < 1.0:
        raise OptimizationError(f"cooling must be in (0, 1), got {cooling}")
    rng = random.Random(seed)
    evaluator = CostEvaluator(problem, placement)
    current_cost = evaluator.total
    best, best_cost = placement, current_cost
    temperature = initial_temperature or max(1.0, 0.05 * current_cost)
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
            if rng.random() < 0.7 or len(items) < 2:
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
