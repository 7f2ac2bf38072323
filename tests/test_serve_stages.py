"""Staged optimize pipeline: resolve → plan → execute ≡ the monolith.

``optimize_placement`` is now a composition of three explicit stages so
the serving layer can resolve a trace once, plan remotely, and execute
against shared state.  These tests pin the refactor's contract:

* composing the stages by hand is **bit-identical** to calling the
  monolith, across every port policy and a spread of algorithms;
* each stage honours its own contract (validation, typed errors,
  metadata);
* requests racing on one trace object share the arrays it built.
"""

import random
import threading

import pytest

from repro.core.api import (
    ALGORITHMS,
    PlacementPlan,
    build_problem,
    execute_plan,
    optimize_placement,
    plan_placement,
    resolve_placement,
)
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import OptimizationError, PlacementError
from repro.obs import MetricsRegistry, set_registry
from repro.trace.model import AccessTrace


def make_trace(seed: int = 11, items: int = 14, length: int = 900) -> AccessTrace:
    rng = random.Random(seed)
    return AccessTrace(
        [
            (f"v{rng.randrange(items)}", rng.choice("RW"))
            for _ in range(length)
        ],
        name=f"stages-{seed}",
    )


CONFIGS = [
    # (label, words_per_dbc, num_ports, policy)
    ("1-port lazy", 8, 1, PortPolicy.LAZY),
    ("2-port lazy", 8, 2, PortPolicy.LAZY),
    ("4-port lazy", 16, 4, PortPolicy.LAZY),
    ("2-port eager", 8, 2, PortPolicy.EAGER),
]

METHODS = [
    ("heuristic", {}),
    ("frequency", {}),
    ("declaration", {}),
    ("random", {"seed": 5}),
]


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


class TestStagedEqualsMonolith:
    @pytest.mark.parametrize(
        "label,words,ports,policy", CONFIGS, ids=[c[0] for c in CONFIGS]
    )
    @pytest.mark.parametrize(
        "method,kwargs", METHODS, ids=[m[0] for m in METHODS]
    )
    def test_bit_identical_costs(self, label, words, ports, policy, method, kwargs):
        trace = make_trace()
        config = DWMConfig.for_items(
            trace.num_items,
            words_per_dbc=words,
            num_ports=ports,
            port_policy=policy,
        )
        mono = optimize_placement(trace, config, method=method, **kwargs)

        staged_trace = make_trace()  # fresh object: no shared resolution
        problem = resolve_placement(staged_trace, config)
        plan = plan_placement(problem, method, **kwargs)
        staged = execute_plan(problem, plan)

        assert staged.total_shifts == mono.total_shifts
        assert staged.placement.as_dict() == mono.placement.as_dict()
        assert staged.method == mono.method
        assert staged.details["config"] == mono.details["config"]

    def test_annealing_seeded_bit_identical(self):
        trace = make_trace(seed=3)
        config = DWMConfig.for_items(trace.num_items, words_per_dbc=8)
        kwargs = {"seed": 9}
        mono = optimize_placement(trace, config, method="annealing", **kwargs)
        problem = resolve_placement(make_trace(seed=3), config)
        staged = execute_plan(
            problem, plan_placement(problem, "annealing", **kwargs)
        )
        assert staged.total_shifts == mono.total_shifts
        assert staged.placement.as_dict() == mono.placement.as_dict()


class TestStageContracts:
    def test_resolve_builds_problem_and_resolves_trace(self):
        trace = make_trace()
        problem = resolve_placement(trace)
        assert problem.trace is trace
        assert problem.resolved is trace._resolved
        # Idempotent: the same problem geometry as build_problem.
        reference = build_problem(make_trace())
        assert problem.config.describe() == reference.config.describe()

    def test_plan_unknown_method_is_typed(self):
        problem = resolve_placement(make_trace())
        with pytest.raises(OptimizationError, match="unknown method"):
            plan_placement(problem, "does-not-exist")
        with pytest.raises(OptimizationError, match="unknown method"):
            optimize_placement(make_trace(), method="does-not-exist")

    def test_plan_carries_method_runtime_and_kwargs(self):
        problem = resolve_placement(make_trace())
        plan = plan_placement(problem, "random", seed=4)
        assert isinstance(plan, PlacementPlan)
        assert plan.method == "random"
        assert plan.kwargs == {"seed": 4}
        assert plan.runtime_seconds >= 0.0

    def test_execute_validates_placement(self):
        problem = resolve_placement(make_trace())
        good = plan_placement(problem, "heuristic")
        # Drop one item: execute must refuse the incomplete placement.
        mapping = good.placement.as_dict()
        mapping.pop(next(iter(mapping)))
        from repro.core.placement import Placement

        bad = PlacementPlan(
            method="heuristic",
            placement=Placement(mapping),
            runtime_seconds=0.0,
        )
        with pytest.raises(PlacementError):
            execute_plan(problem, bad)

    def test_monolith_counts_one_run(self, registry):
        optimize_placement(make_trace(), method="heuristic")
        assert registry.counter_value("optimize.runs", method="heuristic") == 1

    def test_all_algorithms_registered(self):
        # The staged planner serves exactly the monolith's method table.
        problem = resolve_placement(make_trace(seed=2, items=8, length=200))
        for method in ALGORITHMS:
            if method == "exact":
                continue  # exponential; covered by its own suite
            plan = plan_placement(problem, method)
            result = execute_plan(problem, plan)
            assert result.total_shifts >= 0


class TestSharedResolution:
    def test_concurrent_optimize_shares_one_resolution(self):
        trace = make_trace(seed=22)
        resolved = trace._resolved
        config = DWMConfig.for_items(trace.num_items, words_per_dbc=8)
        barrier = threading.Barrier(2)
        results = {}

        def worker(method):
            barrier.wait()
            results[method] = optimize_placement(trace, config, method=method)

        threads = [
            threading.Thread(target=worker, args=(m,))
            for m in ("heuristic", "frequency")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert trace._resolved is resolved
        for method, result in results.items():
            alone = optimize_placement(make_trace(seed=22), config, method=method)
            assert result.placement == alone.placement
            assert result.total_shifts == alone.total_shifts
        assert sorted(results) == ["frequency", "heuristic"]
