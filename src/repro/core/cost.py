"""Analytical shift-cost evaluation of a placement against a trace.

:func:`evaluate_placement` is the reference cost function used by every
optimizer: it walks the trace once maintaining a head state per DBC, exactly
mirroring :class:`repro.dwm.dbc.HeadModel` (tests assert the two agree).  It
is written dictionary-light so that local-search loops can call it thousands
of times on small traces.

Also provided:

* :func:`evaluate_placements_fast` — exact totals of many placements of one
  problem: the scalar walk on short traces, the vectorized engine's scan
  (:mod:`repro.memory.batch_sim`) from ``VECTORIZED_MIN_ACCESSES`` on.
  This is how the placement methods score their candidates.
* :func:`linear_arrangement_cost` — the pairwise-decomposed cost
  ``Σ w(u,v)·|pos(u)−pos(v)|`` of a single-DBC order, which equals the true
  trace cost for a single DBC with a single port under the lazy policy
  (up to the first access's port approach).  This is the objective the exact
  DP optimizes.
* :func:`shift_lower_bound` — a cheap instance-wide lower bound used by the
  branch-and-bound exact search.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import PortPolicy
from repro.errors import PlacementError


def evaluate_placement(
    problem: PlacementProblem,
    placement: Placement,
    validate: bool = True,
) -> int:
    """Total shift operations of running the trace under ``placement``.

    Exactly reproduces the event-driven simulator's shift count (the two are
    differentially tested); this function is the optimizer-facing hot path.
    """
    config = problem.config
    if validate:
        placement.validate(config, problem.items)
    ports = config.port_offsets
    eager = config.port_policy is PortPolicy.EAGER
    # Pre-resolve every item to (dbc, offset) once.
    slot_of: dict[str, tuple[int, int]] = {}
    for item in problem.items:
        slot = placement[item]
        slot_of[item] = (slot.dbc, slot.offset)
    heads: dict[int, int] = {}
    total = 0
    if len(ports) == 1:
        port = ports[0]
        for access in problem.trace:
            dbc, offset = slot_of[access.item]
            target = offset - port
            head = heads.get(dbc, 0)
            if eager:
                total += 2 * abs(target)
            else:
                total += abs(target - head)
                heads[dbc] = target
    else:
        for access in problem.trace:
            dbc, offset = slot_of[access.item]
            head = heads.get(dbc, 0)
            best_cost = None
            best_target = 0
            for port in ports:
                target = offset - port
                cost = abs(target - head)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_target = target
            if eager:
                # Cheapest approach from rest, then return to rest.
                approach = min(abs(offset - port) for port in ports)
                total += 2 * approach
            else:
                total += best_cost
                heads[dbc] = best_target
    return total


def evaluate_placements_fast(
    problem: PlacementProblem,
    placements: Sequence[Placement],
    validate: bool = True,
) -> list[int]:
    """Exact total shift counts of many placements of one problem.

    Below :data:`~repro.memory.batch_sim.VECTORIZED_MIN_ACCESSES` accesses
    each placement is walked by :func:`evaluate_placement` (numpy setup
    would dominate).  From there on the trace is resolved once and every
    placement is priced by the vectorized engine's scan, so eager,
    single-port lazy and multi-port lazy (compiled kernel) share one path.
    Either way the totals equal :func:`evaluate_placement`'s exactly.
    """
    # Lazy import: batch_sim imports repro.core, which imports this module.
    from repro.memory.batch_sim import (
        VECTORIZED_MIN_ACCESSES,
        _scan,
        _slot_arrays,
        resolve_trace,
    )

    config = problem.config
    if validate:
        for placement in placements:
            placement.validate(config, problem.items)
    if len(problem.trace) < VECTORIZED_MIN_ACCESSES:
        return [
            evaluate_placement(problem, placement, validate=False)
            for placement in placements
        ]
    resolved = resolve_trace(problem.trace)
    return [
        _scan(resolved, config, *_slot_arrays(resolved, placement))[1]
        for placement in placements
    ]


def per_dbc_costs(
    problem: PlacementProblem,
    placement: Placement,
) -> dict[int, int]:
    """Shift cost attributed to each DBC (sums to the total)."""
    config = problem.config
    placement.validate(config, problem.items)
    ports = config.port_offsets
    eager = config.port_policy is PortPolicy.EAGER
    heads: dict[int, int] = {}
    costs: dict[int, int] = {}
    for access in problem.trace:
        slot = placement[access.item]
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
            costs[slot.dbc] = costs.get(slot.dbc, 0) + 2 * approach
        else:
            costs[slot.dbc] = costs.get(slot.dbc, 0) + best_cost
            heads[slot.dbc] = best_target
    return costs


def linear_arrangement_cost(
    order: Sequence[str],
    affinity: dict[tuple[str, str], int],
) -> int:
    """Pairwise cost ``Σ w(u,v)·|pos(u)−pos(v)|`` of a linear order.

    For a *single* DBC with a *single* port and the lazy policy, the trace's
    intra-DBC shift cost equals exactly this quantity plus the initial port
    approach, because each consecutive access pair (u, v) contributes
    ``|pos(u) − pos(v)|`` shifts.  This is the Minimum Linear Arrangement
    objective over the affinity graph.
    """
    position = {item: index for index, item in enumerate(order)}
    if len(position) != len(order):
        raise PlacementError("order contains duplicate items")
    total = 0
    for (left, right), weight in affinity.items():
        if left in position and right in position:
            total += weight * abs(position[left] - position[right])
    return total


def shift_lower_bound(problem: PlacementProblem) -> int:
    """Instance-wide lower bound on the shift count of *any* placement.

    Three sound cases, by geometry:

    * **Eager policy** (any port count) — the total is exactly
      ``Σ_items freq(item) · 2·dist(offset(item))`` and the per-slot distance
      multiset is fixed by the geometry, so the minimum over injective
      assignments is the sorted pairing (rearrangement inequality): hottest
      items on the closest-to-port slots.  This bound is *tight* — some
      placement achieves it.
    * **Lazy, single port** — whenever ``n > num_dbcs``, capacity forces at
      least ``n − num_dbcs`` co-located item pairs (a partition into ``g ≤
      num_dbcs`` groups merges ``n − g`` times, and each merge co-locates at
      least one new pair).  A co-located adjacent pair (u, v) costs at least
      its full-trace affinity weight ``w(u, v)`` (restriction to the DBC's
      subsequence preserves adjacency, and ``|pos(u) − pos(v)| ≥ 1``).  An
      adversary co-locates the lightest pairs first — zero-weight pairs
      (never adjacent in the trace) before any weighted edge — so the bound
      is the sum of the smallest ``n − num_dbcs`` pairwise weights, zeros
      included.
    * **Lazy, multi port** — a co-located adjacent pair can be *free* (the
      head can leave u under one port with v under another), so the only
      sound cheap bound is 0.

    Used by the exhaustive search as an optimality early-exit; see
    :func:`single_dbc_lower_bound` for the per-order bound branch-and-bound
    uses inside one DBC.
    """
    config = problem.config
    n = problem.num_items
    if config.port_policy is PortPolicy.EAGER:
        # Distance multiset: each per-DBC offset distance repeated num_dbcs
        # times; pair ascending distances with descending frequencies.
        per_dbc = sorted(
            2 * min(abs(offset - port) for port in config.port_offsets)
            for offset in range(config.words_per_dbc)
        )
        frequencies = sorted(
            problem.trace.frequencies().values(), reverse=True
        )
        total = 0
        rank = 0
        for distance in per_dbc:
            for _ in range(config.num_dbcs):
                if rank >= len(frequencies):
                    return total
                total += frequencies[rank] * distance
                rank += 1
        return total
    if len(config.port_offsets) > 1:
        return 0
    forced_pairs = n - config.num_dbcs
    if forced_pairs <= 0:
        return 0
    zero_pairs = n * (n - 1) // 2 - len(problem.affinity)
    if forced_pairs <= zero_pairs:
        return 0
    weights = sorted(problem.affinity.values())
    return sum(weights[: forced_pairs - zero_pairs])


def single_dbc_lower_bound(
    remaining: Sequence[str],
    affinity: dict[tuple[str, str], int],
) -> int:
    """Lower bound on the MinLA cost of any order of ``remaining`` items.

    Every affinity edge between distinct items contributes at least
    ``weight * 1`` (adjacent positions); summing edge weights therefore lower
    bounds the arrangement cost.  Cheap and admissible — used to prune the
    exact search.
    """
    members = set(remaining)
    total = 0
    for (left, right), weight in affinity.items():
        if left in members and right in members and left != right:
            total += weight
    return total
