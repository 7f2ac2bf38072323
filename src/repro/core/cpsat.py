"""CP-SAT backend for the MinLA placement model (optional OR-Tools).

``repro.core.ilp`` writes the paper's ILP as exportable LP text; this
module is the in-process *solver* for the same model.  When OR-Tools is
installed, :func:`solve_minla_cpsat` builds the CP-SAT position model —

* ``pos[v] ∈ [0, n-1]`` position variables under ``AllDifferent``;
* ``d[u,v] ∈ [1, n-1]`` distance variables tied to ``|pos[u] − pos[v]|``
  (the lower bound of 1 is valid because positions are all-different, and
  it lets the solver certify chain-structured instances instantly);
* objective ``min Σ w(u,v)·d[u,v]``;
* **mirror symmetry breaking** — every arrangement and its reflection
  cost the same, so the heaviest-degree item is pinned to the lower half
  (``2·pos[anchor] ≤ n−1``), halving the search space;
* **warm start** — the chain/heuristic order is supplied via
  ``AddHint`` so the solver starts from a good incumbent.

Solving is fully deterministic (one worker, fixed seed).  When OR-Tools
is absent — it is an optional dependency — :func:`solve_minla` degrades
along the declarative ``ilp`` chain (``cpsat → dp``,
:data:`repro.robust.DEGRADATION_CHAINS`) to the subset DP of
:mod:`repro.core.exact`, recording the downgrade through
:func:`repro.robust.record_degradation`, and raises a typed
:class:`~repro.errors.OptimizationError` when the instance exceeds the
DP's budget instead of silently grinding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.cost import linear_arrangement_cost
from repro.core.exact import MAX_DP_ITEMS, minla_exact_order
from repro.core.ordering import greedy_chain_order
from repro.errors import OptimizationError
from repro.robust import record_degradation

__all__ = [
    "CPSAT_MAX_ITEMS",
    "DEFAULT_TIME_LIMIT",
    "MinlaSolution",
    "cpsat_available",
    "solve_minla",
    "solve_minla_cpsat",
]

#: Item-count cap for the CP-SAT model (certified optima reach hundreds of
#: items on structured affinity graphs; beyond this the model itself gets
#: unwieldy).
CPSAT_MAX_ITEMS = 400

#: Default solver wall-clock budget in seconds.
DEFAULT_TIME_LIMIT = 10.0


@dataclass(frozen=True)
class MinlaSolution:
    """One solved MinLA instance: order, objective, provenance."""

    order: tuple[str, ...]
    cost: int
    backend: str  # "cpsat" | "dp"
    certified: bool  # True iff the backend proved optimality

    def to_dict(self) -> dict:
        return {
            "order": list(self.order),
            "cost": self.cost,
            "backend": self.backend,
            "certified": self.certified,
        }


def cpsat_available() -> bool:
    """Whether the optional OR-Tools CP-SAT solver can be imported."""
    try:
        from ortools.sat.python import cp_model  # noqa: F401
    except Exception:  # pragma: no cover - exercised on the no-ortools leg
        return False
    return True


def _clean_pairs(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
) -> list[tuple[str, str, int]]:
    """Canonical positive-weight pairs restricted to ``items``, merged."""
    member = {item: index for index, item in enumerate(items)}
    merged: dict[tuple[str, str], int] = {}
    for (left, right), weight in affinity.items():
        if left in member and right in member and left != right and weight > 0:
            key = (left, right) if member[left] < member[right] else (right, left)
            merged[key] = merged.get(key, 0) + weight
    return sorted(
        (left, right, weight) for (left, right), weight in merged.items()
    )


def solve_minla_cpsat(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
    time_limit: float = DEFAULT_TIME_LIMIT,
    warm_start: Sequence[str] | None = None,
) -> MinlaSolution:
    """Solve one MinLA instance with CP-SAT (requires OR-Tools).

    Raises :class:`~repro.errors.OptimizationError` if OR-Tools is absent,
    the instance exceeds :data:`CPSAT_MAX_ITEMS`, or the solver finds no
    feasible arrangement inside ``time_limit`` (with a warm start supplied
    the hint is always feasible, so that last case means a solver bug).
    """
    if not cpsat_available():
        raise OptimizationError(
            "OR-Tools is not installed; solve_minla_cpsat needs the "
            "optional ortools dependency"
        )
    from ortools.sat.python import cp_model

    items = list(items)
    n = len(items)
    if n == 0:
        raise OptimizationError("cannot solve a MinLA instance over zero items")
    if n > CPSAT_MAX_ITEMS:
        raise OptimizationError(
            f"CP-SAT MinLA supports at most {CPSAT_MAX_ITEMS} items, got {n}"
        )
    if n == 1:
        return MinlaSolution((items[0],), 0, "cpsat", True)
    pairs = _clean_pairs(items, affinity)
    model = cp_model.CpModel()
    pos = {item: model.NewIntVar(0, n - 1, f"pos_{i}") for i, item in enumerate(items)}
    model.AddAllDifferent(list(pos.values()))
    objective_terms = []
    for left, right, weight in pairs:
        diff = model.NewIntVar(-(n - 1), n - 1, f"diff_{left}_{right}")
        model.Add(diff == pos[left] - pos[right])
        # Positions are AllDifferent, so |pos[left] - pos[right]| >= 1; the
        # tightened domain lets propagation alone certify chain instances.
        dist = model.NewIntVar(1, n - 1, f"d_{left}_{right}")
        model.AddAbsEquality(dist, diff)
        objective_terms.append(weight * dist)
    model.Minimize(sum(objective_terms))
    # Mirror symmetry: reflection preserves cost; pin the heaviest-degree
    # item (ties by first-touch rank) into the lower half.
    degree = {item: 0 for item in items}
    for left, right, weight in pairs:
        degree[left] += weight
        degree[right] += weight
    rank = {item: index for index, item in enumerate(items)}
    anchor = max(items, key=lambda item: (degree[item], -rank[item]))
    model.Add(2 * pos[anchor] <= n - 1)
    hint = list(warm_start) if warm_start is not None else greedy_chain_order(
        items, affinity
    )
    if sorted(hint) == sorted(items):
        hint_pos = {item: position for position, item in enumerate(hint)}
        # Respect the symmetry-breaking constraint: reflect the hint if it
        # puts the anchor in the upper half (reflection preserves cost).
        if 2 * hint_pos[anchor] > n - 1:
            hint_pos = {item: n - 1 - position for item, position in hint_pos.items()}
        for item in items:
            model.AddHint(pos[item], hint_pos[item])
    solver = cp_model.CpSolver()
    solver.parameters.max_time_in_seconds = float(time_limit)
    solver.parameters.num_search_workers = 1
    solver.parameters.random_seed = 0
    status = solver.Solve(model)
    if status not in (cp_model.OPTIMAL, cp_model.FEASIBLE):
        raise OptimizationError(
            f"CP-SAT found no arrangement within {time_limit}s "
            f"(status {solver.StatusName(status)})"
        )
    order = tuple(
        sorted(items, key=lambda item: solver.Value(pos[item]))
    )
    cost = linear_arrangement_cost(list(order), affinity)
    return MinlaSolution(order, cost, "cpsat", status == cp_model.OPTIMAL)


def solve_minla(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
    time_limit: float = DEFAULT_TIME_LIMIT,
    warm_start: Sequence[str] | None = None,
) -> MinlaSolution:
    """Solve MinLA with the best available backend (the ``ilp`` chain).

    Best-first: CP-SAT (optional dependency, certifies up to hundreds of
    items), then the subset DP (``n ≤ 16``).  Skipping CP-SAT records a
    degradation on the ``ilp`` chain; an instance no available backend
    can take raises a typed error naming both budgets.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        raise OptimizationError("cannot solve a MinLA instance over zero items")
    if cpsat_available():
        if n <= CPSAT_MAX_ITEMS:
            return solve_minla_cpsat(
                items, affinity, time_limit=time_limit, warm_start=warm_start
            )
        raise OptimizationError(
            f"instance of {n} items exceeds the CP-SAT cap "
            f"({CPSAT_MAX_ITEMS} items)"
        )
    record_degradation(
        "ilp", "cpsat", "dp", "ortools unavailable", warn=False
    )
    if n > MAX_DP_ITEMS:
        raise OptimizationError(
            f"instance of {n} items exceeds every available MinLA backend: "
            f"install ortools for CP-SAT (≤{CPSAT_MAX_ITEMS} items), or stay "
            f"within the subset DP (≤{MAX_DP_ITEMS} items)"
        )
    order = minla_exact_order(items, affinity)
    return MinlaSolution(
        tuple(order), linear_arrangement_cost(order, affinity), "dp", True
    )
