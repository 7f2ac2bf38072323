"""High-level placement API.

:func:`optimize_placement` is the one-call entry point used by the examples
and the benchmark harness: give it a trace (and optionally a geometry) and a
method name, get back a :class:`~repro.core.problem.PlacementResult` holding
the placement, its exact shift count, and the algorithm runtime.

Available methods (see :data:`ALGORITHMS`):

``declaration``, ``random``, ``frequency``, ``heuristic`` (the paper's
algorithm), ``heuristic+ls`` (with local-search polish), ``grouping_only``,
``ordering_only`` (ablations), ``spectral``, ``annealing``,
``shiftsreduce`` (bidirectional placement, arXiv 1903.03597),
``generalized`` (port-aware strategies, arXiv 1912.03507), ``exact``
(small instances only).

Staged pipeline
---------------
:func:`optimize_placement` is a thin composition of three explicit stages,
each independently callable:

1. :func:`resolve_placement` — trace + geometry → validated
   :class:`~repro.core.problem.PlacementProblem`, with the trace's dense
   arrays resolved once (and shared by every later consumer of the same
   trace object);
2. :func:`plan_placement` — problem + method → :class:`PlacementPlan`
   (the chosen placement plus the algorithm runtime);
3. :func:`execute_plan` — problem + plan → evaluated
   :class:`~repro.core.problem.PlacementResult`.

Long-running services hold the resolved problem across many requests,
interleave planning and execution of different jobs, and can shed or
preempt between stages; the composition is bit-identical to calling
:func:`optimize_placement` directly (``tests/test_serve_stages.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.baselines import (
    declaration_order_placement,
    frequency_placement,
    random_placement,
)
from repro.core.community import community_placement
from repro.core.cost import evaluate_placements_fast
from repro.core.exact import (
    MAX_BRUTE_FORCE_ITEMS,
    exact_single_dbc_placement,
    exhaustive_placement,
)
from repro.core.generalized import generalized_placement
from repro.core.heuristic import (
    grouping_only_placement,
    heuristic_placement,
    ordering_only_placement,
)
from repro.core.shiftsreduce import shiftsreduce_placement
from repro.core.local_search import (
    simulated_annealing,
    swap_refinement,
    two_opt_refinement,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem, PlacementResult
from repro.core.spectral import spectral_placement
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace


def _exact_dispatch(problem: PlacementProblem, **kwargs) -> Placement:
    """Strongest exact method the instance admits.

    Single-port lazy geometries: the MinLA subset DP when everything fits
    one DBC (n ≤ 16), else the set-partition DP (n ≤ 12).  Anything else
    falls back to the guarded brute force.
    """
    from repro.core.exact_partition import (
        MAX_PARTITION_ITEMS,
        exact_partitioned_placement,
    )
    from repro.dwm.config import PortPolicy

    single_port_lazy = (
        problem.config.num_ports == 1
        and problem.config.port_policy is PortPolicy.LAZY
    )
    if single_port_lazy and problem.num_items <= problem.config.words_per_dbc:
        if problem.num_items <= 16 and problem.config.num_dbcs == 1:
            return exact_single_dbc_placement(problem)
    if single_port_lazy and problem.num_items <= MAX_PARTITION_ITEMS:
        return exact_partitioned_placement(problem)
    return exhaustive_placement(
        problem, max_items=kwargs.get("max_items", MAX_BRUTE_FORCE_ITEMS)
    )


def _heuristic_with_ls(problem: PlacementProblem, **kwargs) -> Placement:
    placement = heuristic_placement(problem)
    placement = two_opt_refinement(
        problem,
        placement,
        max_evaluations=kwargs.get("max_evaluations", 5000),
    )
    return swap_refinement(
        problem,
        placement,
        max_evaluations=kwargs.get("max_evaluations", 5000),
    )


ALGORITHMS: dict[str, Callable[..., Placement]] = {
    "declaration": lambda problem, **kw: declaration_order_placement(problem),
    "random": lambda problem, **kw: random_placement(problem, seed=kw.get("seed", 0)),
    "frequency": lambda problem, **kw: frequency_placement(
        problem, distribute=kw.get("distribute", "round_robin")
    ),
    "heuristic": lambda problem, **kw: heuristic_placement(
        problem,
        refine_groups=kw.get("refine_groups", True),
        num_groups=kw.get("num_groups"),
    ),
    "heuristic+ls": _heuristic_with_ls,
    "grouping_only": lambda problem, **kw: grouping_only_placement(problem),
    "ordering_only": lambda problem, **kw: ordering_only_placement(problem),
    "spectral": lambda problem, **kw: spectral_placement(problem),
    "community": lambda problem, **kw: community_placement(problem),
    "shiftsreduce": lambda problem, **kw: shiftsreduce_placement(
        problem, num_groups=kw.get("num_groups")
    ),
    "generalized": lambda problem, **kw: generalized_placement(
        problem, num_groups=kw.get("num_groups")
    ),
    "annealing": lambda problem, **kw: simulated_annealing(
        problem,
        heuristic_placement(problem),
        seed=kw.get("seed", 0),
        max_evaluations=kw.get("max_evaluations", 20000),
    ),
    "exact": _exact_dispatch,
}


# Optional process-global placement cache.  The core layer must not import
# the analysis layer, so the cache object (repro.analysis.cache.ResultCache)
# is injected through this hook; ``None`` means caching is off.  The hook
# only requires ``lookup_placement``/``store_placement`` methods.
_PLACEMENT_CACHE = None


def set_placement_cache(cache):
    """Install (or, with ``None``, remove) the global placement cache.

    Returns the previously installed cache so callers can scope activation
    with try/finally.
    """
    global _PLACEMENT_CACHE
    previous = _PLACEMENT_CACHE
    _PLACEMENT_CACHE = cache
    return previous


def get_placement_cache():
    """The currently installed placement cache, or ``None``."""
    return _PLACEMENT_CACHE


def build_problem(
    trace: AccessTrace,
    config: DWMConfig | None = None,
    words_per_dbc: int = 64,
    num_ports: int = 1,
) -> PlacementProblem:
    """Wrap a trace into a problem, sizing the array to fit if needed."""
    if config is None:
        config = DWMConfig.for_items(
            trace.num_items,
            words_per_dbc=words_per_dbc,
            num_ports=num_ports,
        )
    return PlacementProblem(trace=trace, config=config)


@dataclass(frozen=True)
class PlacementPlan:
    """Output of the planning stage: a placement awaiting evaluation.

    Carries everything :func:`execute_plan` needs plus the bookkeeping
    (method, kwargs, algorithm runtime) that ends up in the final
    :class:`~repro.core.problem.PlacementResult`.
    """

    method: str
    placement: Placement
    runtime_seconds: float
    kwargs: dict = field(default_factory=dict)


def resolve_placement(
    trace: AccessTrace,
    config: DWMConfig | None = None,
) -> PlacementProblem:
    """Stage 1: wrap ``trace`` into a validated problem, resolving once.

    For in-memory traces the dense per-access arrays are resolved eagerly
    and cached on the trace object, so every later stage — and every other
    request sharing the same trace object, which is how the placement
    server amortises resolution across its clients — reuses them instead
    of re-running the O(accesses) Python loop.
    """
    problem = build_problem(trace, config)
    if isinstance(trace, AccessTrace):
        from repro.memory.batch_sim import resolve_trace

        resolve_trace(trace)
    return problem


def plan_placement(
    problem: PlacementProblem,
    method: str = "heuristic",
    **kwargs,
) -> PlacementPlan:
    """Stage 2: run the placement algorithm (the compute-heavy stage)."""
    if method not in ALGORITHMS:
        raise OptimizationError(
            f"unknown method {method!r}; available: {sorted(ALGORITHMS)}"
        )
    from repro.obs.metrics import get_registry
    from repro.obs.tracing import trace_span

    registry = get_registry()
    registry.inc("optimize.runs", method=method)
    start = time.perf_counter()
    with trace_span("optimize", method=method):
        placement = ALGORITHMS[method](problem, **kwargs)
    runtime = time.perf_counter() - start
    registry.observe("optimize.seconds", runtime, method=method)
    return PlacementPlan(
        method=method,
        placement=placement,
        runtime_seconds=runtime,
        kwargs=dict(kwargs),
    )


def execute_plan(
    problem: PlacementProblem,
    plan: PlacementPlan,
) -> PlacementResult:
    """Stage 3: validate the planned placement and evaluate it exactly."""
    plan.placement.validate(problem.config, problem.items)
    (shifts,) = evaluate_placements_fast(
        problem, [plan.placement], validate=False
    )
    return PlacementResult(
        method=plan.method,
        placement=plan.placement,
        total_shifts=shifts,
        runtime_seconds=plan.runtime_seconds,
        details={
            "num_accesses": len(problem.trace),
            "num_items": problem.trace.num_items,
            "config": problem.config.describe(),
            "trace": problem.trace.name,
        },
    )


def optimize_placement(
    trace: AccessTrace,
    config: DWMConfig | None = None,
    method: str = "heuristic",
    **kwargs,
) -> PlacementResult:
    """Run a placement algorithm and evaluate it exactly.

    Composes the staged pipeline (:func:`resolve_placement` →
    :func:`plan_placement` → :func:`execute_plan`) behind the original
    one-call signature, with the injected result cache consulted between
    resolution and planning.

    Parameters
    ----------
    trace:
        The access trace to place for.
    config:
        Array geometry; defaults to the smallest single-port array with
        64-word DBCs that fits the trace's items.
    method:
        Algorithm name from :data:`ALGORITHMS`.
    kwargs:
        Passed through to the algorithm (``seed``, ``max_evaluations``, …).

    Returns
    -------
    PlacementResult
        Placement, exact total shift count, runtime, and bookkeeping.
    """
    if method not in ALGORITHMS:
        raise OptimizationError(
            f"unknown method {method!r}; available: {sorted(ALGORITHMS)}"
        )
    if not isinstance(trace, AccessTrace) and hasattr(trace, "sample_trace"):
        # Out-of-core traces (repro.trace.binio.StreamingTrace) are placed
        # from a bounded-size sample: the sample covers every item (so the
        # placement is complete) and approximates the affinity statistics;
        # the placement's true cost is then evaluated exactly by whichever
        # engine replays the full trace.
        sampled = trace.sample_trace()
        result = optimize_placement(sampled, config, method=method, **kwargs)
        result.details["sampled_from"] = trace.name
        result.details["sampled_accesses"] = len(sampled)
        result.details["full_accesses"] = len(trace)
        return result
    problem = resolve_placement(trace, config)
    cache = _PLACEMENT_CACHE
    if cache is not None:
        cached = cache.lookup_placement(trace, problem.config, method, kwargs)
        if cached is not None:
            return cached
    plan = plan_placement(problem, method, **kwargs)
    result = execute_plan(problem, plan)
    if cache is not None:
        cache.store_placement(trace, problem.config, method, kwargs, result)
    return result


def compare_methods(
    trace: AccessTrace,
    config: DWMConfig | None = None,
    methods: tuple[str, ...] = ("declaration", "random", "frequency", "heuristic"),
    **kwargs,
) -> dict[str, PlacementResult]:
    """Run several methods on the same problem (one row of the E3 figure)."""
    return {
        method: optimize_placement(trace, config, method=method, **kwargs)
        for method in methods
    }
