"""Analytical shift-cost evaluation of a placement against a trace.

:func:`evaluate_placement` is the scalar reference cost: it walks the trace
once with :func:`repro.dwm.dbc.port_access_cost`, keeping a head state per
DBC exactly as :class:`repro.dwm.dbc.HeadModel` does (tests assert the two
agree).  :func:`per_dbc_costs` is the same walk, attributed per DBC.  It is
a reference, not a hot path: the optimizers score through the vectorized
engine.

Also provided:

* :func:`evaluate_placements_fast` — exact totals of many placements of one
  problem through the vectorized engine's scan
  (:mod:`repro.memory.batch_sim`), on every trace length.  This is how the
  placement methods score their candidates.
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
from repro.dwm.dbc import port_access_cost
from repro.errors import PlacementError


def evaluate_placement(
    problem: PlacementProblem,
    placement: Placement,
    validate: bool = True,
) -> int:
    """Total shift operations of running the trace under ``placement``.

    The scalar reference: the sum of :func:`per_dbc_costs`.  The event
    simulator and the vectorized engine are differentially tested against
    it.
    """
    return sum(per_dbc_costs(problem, placement, validate).values())


def evaluate_placements_fast(
    problem: PlacementProblem,
    placements: Sequence[Placement],
    validate: bool = True,
) -> list[int]:
    """Exact total shift counts of many placements of one problem.

    The trace is resolved once (the resolution is cached on the trace) and
    every placement is priced by the vectorized engine's scan, so eager,
    single-port lazy and multi-port lazy (compiled kernel) share one path.
    The totals equal :func:`evaluate_placement`'s exactly.
    """
    # Lazy import: batch_sim imports repro.core, which imports this module.
    from repro.memory.batch_sim import _scan, resolve_trace, slot_arrays

    config = problem.config
    if validate:
        for placement in placements:
            placement.validate(config, problem.items)
    resolved = resolve_trace(problem.trace)
    return [
        _scan(resolved, config, *slot_arrays(resolved.items, placement))[1]
        for placement in placements
    ]


def per_dbc_costs(
    problem: PlacementProblem,
    placement: Placement,
    validate: bool = True,
) -> dict[int, int]:
    """Shift cost attributed to each DBC (sums to the total).

    Walks the trace one access at a time with
    :func:`~repro.dwm.dbc.port_access_cost`, keeping one head per DBC
    exactly as :class:`~repro.dwm.dbc.HeadModel` does.  Under the eager
    policy the head never leaves rest, so each access costs twice its
    nearest-port distance.
    """
    config = problem.config
    if validate:
        placement.validate(config, problem.items)
    ports = config.port_offsets
    eager = config.port_policy is PortPolicy.EAGER
    slot_of: dict[str, tuple[int, int]] = {}
    for item in problem.items:
        slot = placement[item]
        slot_of[item] = (slot.dbc, slot.offset)
    heads: dict[int, int] = {}
    costs: dict[int, int] = {}
    for access in problem.trace:
        dbc, offset = slot_of[access.item]
        cost, _port, head = port_access_cost(offset, heads.get(dbc, 0), ports)
        if eager:
            cost *= 2
        else:
            heads[dbc] = head
        costs[dbc] = costs.get(dbc, 0) + cost
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
            2 * port_access_cost(offset, 0, config.port_offsets)[0]
            for offset in range(config.words_per_dbc)
        )
        frequencies = sorted(problem.frequencies.values(), reverse=True)
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
