"""Baseline placements the paper compares against.

* **Declaration order** — items packed in first-touch order; models what an
  SPM allocator with no shift awareness produces.
* **Random** — seeded shuffles; the evaluation averages several seeds.
* **Frequency (hot-near-port)** — the strongest shift-oblivious baseline:
  hottest items sit at the offsets closest to an access port.
"""

from __future__ import annotations

import random

from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.dwm.dbc import proximity_order
from repro.errors import CapacityError


def declaration_order_placement(problem: PlacementProblem) -> Placement:
    """Items in first-touch order, filling DBC 0, then DBC 1, …"""
    return Placement.from_order(list(problem.items), problem.config)


def random_placement(problem: PlacementProblem, seed: int = 0) -> Placement:
    """Items shuffled uniformly into the first ``ceil(n/L)`` DBCs."""
    rng = random.Random(seed)
    items = list(problem.items)
    rng.shuffle(items)
    return Placement.from_order(items, problem.config)


def frequency_placement(
    problem: PlacementProblem,
    distribute: str = "round_robin",
) -> Placement:
    """Hottest items at port-nearest offsets.

    ``distribute`` controls how items spread over DBCs:

    * ``"round_robin"`` — the hottest ``num_dbcs`` items each get the
      port-closest offset of their own DBC, the next wave the second-closest
      offsets, and so on.  Spreads heat so several DBCs stay near their
      ports.
    * ``"packed"`` — fill DBC 0 entirely with the hottest ``L`` items
      (closest offsets first), then DBC 1, …
    """
    config = problem.config
    hot = list(problem.hot_order)
    if len(hot) > config.capacity_words:
        raise CapacityError(
            f"{len(hot)} items exceed capacity {config.capacity_words}"
        )
    proximity = proximity_order(config)
    mapping: dict[str, Slot] = {}
    if distribute == "round_robin":
        num_dbcs = min(config.num_dbcs, max(1, problem.min_dbcs_needed))
        for index, item in enumerate(hot):
            dbc = index % num_dbcs
            rank = index // num_dbcs
            mapping[item] = Slot(dbc, proximity[rank])
    elif distribute == "packed":
        length = config.words_per_dbc
        for index, item in enumerate(hot):
            dbc = index // length
            rank = index % length
            mapping[item] = Slot(dbc, proximity[rank])
    else:
        raise ValueError(
            f"unknown distribute mode {distribute!r}; "
            "expected 'round_robin' or 'packed'"
        )
    return Placement(mapping)


def random_placement_mean_shifts(
    problem: PlacementProblem,
    seeds: range | list[int] = range(5),
) -> float:
    """Mean shift count of random placements over several seeds, priced
    in one :func:`~repro.core.cost.evaluate_placements_fast` call."""
    from repro.core.cost import evaluate_placements_fast

    costs = evaluate_placements_fast(
        problem, [random_placement(problem, seed) for seed in seeds]
    )
    return sum(costs) / len(costs)
