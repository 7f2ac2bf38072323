"""Differential tests: incremental deltas ≡ reference evaluator, exactly.

Property-style coverage over random traces for every port policy × port
count combination: :class:`CostEvaluator` totals and swap/move/reversal
deltas, apply/undo sequences, the batch vectorised evaluator, and the
tightened instance-wide lower bound all agree with (or soundly bound) the
reference :func:`evaluate_placement`.
"""

import random

import numpy as np
import pytest

from repro.core import kernels
from repro.core.api import build_problem
from repro.core.baselines import random_placement
from repro.core.cost import (
    evaluate_placement,
    evaluate_placements_fast,
    shift_lower_bound,
)
from repro.core.exact import exhaustive_placement
from repro.core.incremental import CostEvaluator
from repro.core.local_search import (
    simulated_annealing,
    swap_refinement,
    two_opt_refinement,
)
from repro.core.placement import Placement, Slot
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError, PlacementError
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, zipf_trace

GEOMETRIES = [
    (1, "lazy"),
    (1, "eager"),
    (2, "lazy"),
    (2, "eager"),
    (4, "lazy"),
    (4, "eager"),
]


def _tiered(params):
    """``params`` once per kernel tier: the active tier keeps the plain id,
    the forced numpy tier (``REPRO_KERNEL=numpy``) appends ``-numpy``."""
    tiered = []
    for values in params:
        values = values if isinstance(values, tuple) else (values,)
        plain = "-".join(str(value) for value in values)
        tiered.append(pytest.param(*values, "active", id=plain))
        tiered.append(pytest.param(*values, "numpy", id=f"{plain}-numpy"))
    return tiered


def _random_problem(ports, policy, seed, num_items=24, length=400):
    trace = markov_trace(
        num_items, length, locality=0.75, seed=seed, write_fraction=0.25
    )
    config = DWMConfig.for_items(
        trace.num_items, words_per_dbc=8, num_ports=ports, port_policy=policy
    )
    return build_problem(trace, config)


class TestCostEvaluatorDeltas:
    @pytest.mark.parametrize(
        "ports,policy,kernel_tier", _tiered(GEOMETRIES), indirect=["kernel_tier"]
    )
    def test_total_matches_reference(self, ports, policy, kernel_tier):
        problem = _random_problem(ports, policy, seed=3)
        for seed in range(3):
            placement = random_placement(problem, seed)
            evaluator = CostEvaluator(problem, placement)
            assert evaluator.total == evaluate_placement(problem, placement)

    @pytest.mark.parametrize(
        "ports,policy,kernel_tier", _tiered(GEOMETRIES), indirect=["kernel_tier"]
    )
    def test_swap_and_move_deltas_exact(self, ports, policy, kernel_tier):
        problem = _random_problem(ports, policy, seed=5)
        placement = random_placement(problem, 0)
        evaluator = CostEvaluator(problem, placement)
        rng = random.Random(17)
        items = list(problem.items)
        for _ in range(25):
            item_a, item_b = rng.sample(items, 2)
            delta = evaluator.swap_delta(item_a, item_b)
            candidate = evaluator.placement().with_swapped(item_a, item_b)
            reference = evaluate_placement(problem, candidate, validate=False)
            assert delta == reference - evaluator.total
        for _ in range(15):
            free = evaluator.free_slots()
            if not free:
                break
            item = rng.choice(items)
            slot = rng.choice(free)
            delta = evaluator.move_delta(item, slot)
            candidate = evaluator.placement().with_moved(item, slot)
            reference = evaluate_placement(problem, candidate, validate=False)
            assert delta == reference - evaluator.total

    @pytest.mark.parametrize(
        "ports,policy,kernel_tier", _tiered(GEOMETRIES), indirect=["kernel_tier"]
    )
    def test_reversal_deltas_exact(self, ports, policy, kernel_tier):
        problem = _random_problem(ports, policy, seed=7)
        placement = random_placement(problem, 2)
        evaluator = CostEvaluator(problem, placement)
        for dbc in evaluator.dbcs_used():
            offsets = sorted(evaluator.dbc_contents(dbc))
            for i in range(len(offsets)):
                for j in range(i + 1, len(offsets)):
                    segment = offsets[i : j + 1]
                    delta = evaluator.reversal_delta(dbc, segment)
                    contents = evaluator.dbc_contents(dbc)
                    mapping = dict(evaluator.placement().as_dict())
                    for source, target in zip(segment, reversed(segment)):
                        mapping[contents[source]] = (dbc, target)
                    reference = evaluate_placement(
                        problem, Placement(mapping), validate=False
                    )
                    assert delta == reference - evaluator.total

    @pytest.mark.parametrize(
        "ports,policy,kernel_tier", _tiered(GEOMETRIES), indirect=["kernel_tier"]
    )
    def test_apply_undo_sequences(self, ports, policy, kernel_tier):
        problem = _random_problem(ports, policy, seed=11)
        placement = random_placement(problem, 1)
        evaluator = CostEvaluator(problem, placement)
        rng = random.Random(23)
        items = list(problem.items)
        totals = [evaluator.total]
        for _ in range(30):
            choice = rng.random()
            if choice < 0.5:
                item_a, item_b = rng.sample(items, 2)
                evaluator.apply_swap(item_a, item_b)
            elif choice < 0.8:
                free = evaluator.free_slots()
                if free:
                    evaluator.apply_move(rng.choice(items), rng.choice(free))
                else:
                    item_a, item_b = rng.sample(items, 2)
                    evaluator.apply_swap(item_a, item_b)
            else:
                dbc = rng.choice(evaluator.dbcs_used())
                offsets = sorted(evaluator.dbc_contents(dbc))
                if len(offsets) >= 2:
                    evaluator.apply_reversal(dbc, offsets)
                else:
                    item_a, item_b = rng.sample(items, 2)
                    evaluator.apply_swap(item_a, item_b)
            # After every committed move the running total stays exact.
            assert evaluator.total == evaluate_placement(
                problem, evaluator.placement(), validate=False
            )
            totals.append(evaluator.total)
        for step in range(30):
            evaluator.undo()
            assert evaluator.total == totals[-2 - step]
        assert evaluator.placement() == placement

    @pytest.mark.parametrize(
        "ports,kernel_tier", _tiered([2, 4]), indirect=["kernel_tier"]
    )
    def test_long_multi_port_subsequences_use_vector_path(
        self, ports, kernel_tier
    ):
        # Per-DBC chains of hundreds of accesses replay through the kernel
        # tier (cc walk, or the numpy closed form / Hillis–Steele scan);
        # totals and deltas must still match the scalar reference exactly.
        trace = markov_trace(24, 6000, locality=0.8, seed=41, write_fraction=0.2)
        config = DWMConfig.for_items(
            24, words_per_dbc=8, num_ports=ports, port_policy="lazy"
        )
        problem = build_problem(trace, config)
        placement = random_placement(problem, 0)
        evaluator = CostEvaluator(problem, placement)
        assert min(
            len(evaluator.dbc_contents(dbc)) for dbc in evaluator.dbcs_used()
        ) >= 1
        assert evaluator.total == evaluate_placement(problem, placement)
        rng = random.Random(43)
        items = list(problem.items)
        for _ in range(20):
            item_a, item_b = rng.sample(items, 2)
            delta = evaluator.swap_delta(item_a, item_b)
            reference = evaluate_placement(
                problem,
                evaluator.placement().with_swapped(item_a, item_b),
                validate=False,
            )
            assert delta == reference - evaluator.total
        for _ in range(10):
            item_a, item_b = rng.sample(items, 2)
            evaluator.apply_swap(item_a, item_b)
            assert evaluator.total == evaluate_placement(
                problem, evaluator.placement(), validate=False
            )

    def test_untraced_items_block_slots_but_cost_nothing(self):
        trace = AccessTrace(["a", "b", "a", "c"], name="tiny")
        config = DWMConfig.with_uniform_ports(words_per_dbc=4, num_dbcs=2)
        problem = build_problem(trace, config)
        placement = Placement(
            {"a": (0, 0), "b": (0, 1), "c": (0, 2), "ghost": (1, 0)}
        )
        evaluator = CostEvaluator(problem, placement)
        assert evaluator.total == evaluate_placement(
            problem, placement, validate=False
        )
        # The ghost's slot is occupied and its DBC counts as used.
        assert Slot(1, 0) not in evaluator.free_slots()
        assert 1 in evaluator.dbcs_used()
        with pytest.raises(PlacementError):
            evaluator.move_delta("a", Slot(1, 0))
        assert "ghost" in evaluator.placement()

    def test_error_paths(self):
        problem = _random_problem(1, "lazy", seed=13)
        placement = random_placement(problem, 0)
        evaluator = CostEvaluator(problem, placement)
        with pytest.raises(PlacementError):
            evaluator.undo()
        with pytest.raises(PlacementError):
            evaluator.swap_delta("no-such-item", list(problem.items)[0])
        occupied = evaluator.slot_of(list(problem.items)[1])
        with pytest.raises(PlacementError):
            evaluator.move_delta(list(problem.items)[0], occupied)


def _row_problem(ports, policy, seed):
    """22 traced items on DBCs 0-2, an untraced ``ghost`` alone on DBC 3
    and an empty DBC 4: rows mix same-DBC and cross-DBC candidates and
    free slots on DBCs that hold no traced item."""
    trace = markov_trace(22, 400, locality=0.75, seed=seed, write_fraction=0.25)
    config = DWMConfig.for_items(
        40, words_per_dbc=8, num_ports=ports, port_policy=policy
    )
    problem = build_problem(trace, config)
    mapping = dict(random_placement(problem, seed).as_dict())
    mapping["ghost"] = (3, 5)
    return problem, Placement(mapping)


#: Budgets for the pass/scan comparisons; all but the last end mid-pass.
PASS_BUDGETS = (1, 7, 40, 333, 20000)


def _pass_record(evaluator):
    return (
        evaluator.placement(),
        evaluator.total,
        evaluator.delta_evaluations,
        evaluator.applied_moves,
    )


def _assert_pass_matches_scan(problem, placement, budget):
    """``swap_pass`` / ``reversal_pass`` leave what the single-probe scans
    leave: placement, total and the probe and move counters."""
    for compiled, scan in (
        (CostEvaluator.swap_pass, CostEvaluator.scan_swaps),
        (CostEvaluator.reversal_pass, CostEvaluator.scan_reversals),
    ):
        refined = CostEvaluator(problem, placement)
        reference = CostEvaluator(problem, placement)
        compiled(refined, 3, budget)
        scan(reference, 3, budget)
        assert _pass_record(refined) == _pass_record(reference)
        assert refined.total == evaluate_placement(
            problem, refined.placement(), validate=False
        )


class TestRowProbes:
    """The candidate rows of the refinement passes.

    ``swap_pass`` and ``reversal_pass`` scan every candidate row of
    ``swap_refinement`` / ``two_opt_refinement`` in one call (compiled on
    the cc tier); they must leave exactly what the single-probe scans
    ``scan_swaps`` / ``scan_reversals`` leave.
    """

    @pytest.mark.parametrize(
        "ports,policy,kernel_tier", _tiered(GEOMETRIES), indirect=["kernel_tier"]
    )
    def test_rows_equal_single_probes(self, ports, policy, kernel_tier):
        problem, placement = _row_problem(ports, policy, seed=3)
        for budget in PASS_BUDGETS:
            _assert_pass_matches_scan(problem, placement, budget)

    @pytest.mark.parametrize(
        "ports,policy,kernel_tier", _tiered(GEOMETRIES), indirect=["kernel_tier"]
    )
    def test_rows_track_apply_and_undo(self, ports, policy, kernel_tier):
        # A pass starts from the assignment that applies and undos left,
        # and the evaluator keeps pricing exactly after it.
        problem, placement = _row_problem(ports, policy, seed=7)
        evaluator = CostEvaluator(problem, placement)
        items = list(problem.items)
        rng = random.Random(11)
        for step in range(6):
            undoable = 0
            for _ in range(4):
                choice = rng.random()
                undoable += 1
                if choice < 0.4:
                    evaluator.apply_swap(*rng.sample(items, 2))
                elif choice < 0.7:
                    evaluator.apply_move(
                        rng.choice(items), rng.choice(evaluator.free_slots())
                    )
                elif choice < 0.85:
                    dbc = rng.choice([0, 1, 2])
                    evaluator.apply_reversal(
                        dbc, sorted(evaluator.dbc_contents(dbc))[1:]
                    )
                elif undoable > 1:
                    evaluator.undo()
                    undoable -= 2
                else:
                    undoable -= 1
            start = evaluator.placement()
            _assert_pass_matches_scan(problem, start, 50 + 40 * step)
            refine = evaluator.swap_pass if step % 2 else evaluator.reversal_pass
            refine(3, 50 + 40 * step)
            with pytest.raises(PlacementError):
                evaluator.undo()
            assert evaluator.total == evaluate_placement(
                problem, evaluator.placement(), validate=False
            )
            item_a, item_b = rng.sample(items, 2)
            delta = evaluator.swap_delta(item_a, item_b)
            assert delta == evaluate_placement(
                problem,
                evaluator.placement().with_swapped(item_a, item_b),
                validate=False,
            ) - evaluator.total

    def test_rows_count_every_delta(self):
        # Each probe counts once; the start counts as one evaluation.
        problem, placement = _row_problem(2, "lazy", seed=3)
        for budget, probes in ((-5, 0), (0, 0), (1, 0), (2, 1), (12, 11)):
            for refine in (CostEvaluator.swap_pass, CostEvaluator.reversal_pass):
                evaluator = CostEvaluator(problem, placement)
                refine(evaluator, 3, budget)
                assert evaluator.delta_evaluations == probes
                if probes == 0:
                    assert evaluator.placement() == placement
                    assert evaluator.applied_moves == 0

    def test_row_error_paths(self):
        problem, placement = _row_problem(1, "lazy", seed=3)
        for outside in ((5, 0), (0, 8)):
            mapping = dict(placement.as_dict())
            mapping[list(problem.items)[0]] = outside
            evaluator = CostEvaluator(problem, Placement(mapping), validate=False)
            for refine in (evaluator.swap_pass, evaluator.reversal_pass):
                with pytest.raises(PlacementError, match="outside the geometry"):
                    refine(3, 100)
        evaluator = CostEvaluator(problem, placement)
        with pytest.raises(TypeError):
            evaluator.swap_pass(1.5, 100)


class TestPassBounds:
    """What a refinement pass accepts on every tier: any Python int budget,
    a negative budget as no probe, and no slot outside the geometry."""

    @pytest.mark.parametrize("kernel_tier", ["active", "numpy"], indirect=True)
    def test_huge_budget_runs_to_convergence(self, kernel_tier):
        problem, placement = _row_problem(2, "lazy", seed=5)
        for refine in (swap_refinement, two_opt_refinement):
            converged = refine(
                problem, placement, max_passes=50, max_evaluations=10**7
            )
            for huge in (10**30, 2**64 + 5):
                assert refine(
                    problem, placement, max_passes=huge, max_evaluations=huge
                ) == converged

    @pytest.mark.parametrize("kernel_tier", ["active", "numpy"], indirect=True)
    def test_negative_budget_makes_no_moves(self, kernel_tier):
        problem, placement = _row_problem(2, "eager", seed=5)
        for refine in (swap_refinement, two_opt_refinement):
            assert refine(problem, placement, max_evaluations=-(10**30)) == placement
            assert refine(problem, placement, max_passes=-1) == placement

    @pytest.mark.parametrize("kernel_tier", ["active", "numpy"], indirect=True)
    def test_slot_outside_geometry_is_rejected(self, kernel_tier):
        problem, placement = _row_problem(2, "lazy", seed=5)
        for outside in ((5, 0), (40, 3), (1, 8), (0, 10**6)):
            for name in ("ghost", list(problem.items)[3]):
                mapping = dict(placement.as_dict())
                mapping[name] = outside
                evaluator = CostEvaluator(
                    problem, Placement(mapping), validate=False
                )
                before = evaluator.placement()
                for refine in (evaluator.swap_pass, evaluator.reversal_pass):
                    with pytest.raises(PlacementError):
                        refine(3, 500)
                assert evaluator.placement() == before


    def test_compiled_pass_rejects_a_malformed_state(self):
        tier = kernels.active()
        if tier.swap_pass is None:
            pytest.skip("the active tier has no compiled pass")
        problem, placement = _row_problem(2, "lazy", seed=5)
        evaluator = CostEvaluator(problem, placement)
        for name, bad in (("scratch", 3), ("dbc_pos", 1), ("rest", 0)):
            state = evaluator._refine_state()
            setattr(state, name, np.zeros(bad, dtype=np.int64))
            with pytest.raises(ValueError, match=name):
                tier.swap_pass(state, 3, 100)
        state = evaluator._refine_state()
        state.occupied = state.occupied.astype(np.int32)
        with pytest.raises(ValueError, match="occupied"):
            tier.reversal_pass(state, 3, 100)


class TestSharedPositionIndex:
    def test_evaluators_and_group_views_share_one_index(self):
        trace = markov_trace(22, 400, locality=0.75, seed=4)
        lazy, eager = (
            build_problem(
                trace,
                DWMConfig.for_items(
                    trace.num_items, words_per_dbc=8, num_ports=2,
                    port_policy=policy,
                ),
            )
            for policy in ("lazy", "eager")
        )
        item_pos, item_start = lazy.resolved.item_positions
        first = CostEvaluator(lazy, random_placement(lazy, seed=1))
        second = CostEvaluator(lazy, random_placement(lazy, seed=2))
        for evaluator in (first, second):
            state = evaluator._refine_state()
            assert state.item_pos is item_pos
            assert state.item_start is item_start
        # Another geometry over the same trace reads the same index.
        # One group's positions (what the exact solvers walk) are a view
        # of that index.
        assert eager.resolved.positions_of([0]).base is item_pos
        assert eager.frequencies == dict(
            zip(trace.items, [int(n) for n in item_start[1:] - item_start[:-1]])
        )


class TestBatchFastEval:
    @pytest.mark.parametrize("ports,policy", GEOMETRIES)
    def test_batch_matches_reference(self, ports, policy):
        problem = _random_problem(ports, policy, seed=19)
        placements = [random_placement(problem, seed) for seed in range(4)]
        batch = evaluate_placements_fast(problem, placements)
        for placement, cost in zip(placements, batch):
            assert cost == evaluate_placement(problem, placement)

    @pytest.mark.parametrize("ports,policy", [
        (1, "lazy"), (2, "lazy"), (3, "lazy"), (1, "eager"), (2, "eager"),
    ])
    @pytest.mark.parametrize("length", [1, 128, 2047, 2048])
    def test_batch_at_threshold(self, length, ports, policy):
        problem = _random_problem(ports, policy, seed=23, length=length)
        placements = [random_placement(problem, seed) for seed in range(4)]
        assert evaluate_placements_fast(problem, placements) == [
            evaluate_placement(problem, placement) for placement in placements
        ]

    def test_auto_on_long_trace(self):
        trace = zipf_trace(32, 6000, alpha=1.2, seed=4)
        problem = build_problem(trace, words_per_dbc=16)
        placement = random_placement(problem, 0)
        assert evaluate_placements_fast(problem, [placement]) == [
            evaluate_placement(problem, placement)
        ]


class TestRefinersOnEngine:
    @pytest.mark.parametrize("ports,policy", GEOMETRIES)
    def test_refinement_monotone_and_exact(self, ports, policy):
        problem = _random_problem(ports, policy, seed=29)
        start = random_placement(problem, 3)
        start_cost = evaluate_placement(problem, start)
        for refiner in (swap_refinement, two_opt_refinement):
            refined = refiner(problem, start, max_evaluations=1500)
            refined.validate(problem.config, problem.items)
            assert evaluate_placement(problem, refined) <= start_cost
        annealed = simulated_annealing(
            problem, start, seed=5, max_evaluations=1500
        )
        annealed.validate(problem.config, problem.items)
        assert evaluate_placement(problem, annealed) <= start_cost

    @pytest.mark.parametrize("temperature", [0.0, -3.0, float("nan")])
    def test_simulated_annealing_rejects_non_positive_temperature(
        self, temperature
    ):
        # An explicit 0.0 must not fall back to the default, nor a negative
        # value return the start unrefined.
        problem = _random_problem(1, "lazy", seed=31)
        start = random_placement(problem, 0)
        with pytest.raises(OptimizationError, match="initial_temperature"):
            simulated_annealing(problem, start, initial_temperature=temperature)
        assert evaluate_placement(
            problem,
            simulated_annealing(
                problem, start, initial_temperature=0.5, max_evaluations=400
            ),
        ) < evaluate_placement(problem, start)

    def test_simulated_annealing_deterministic(self):
        problem = _random_problem(2, "lazy", seed=31)
        start = random_placement(problem, 0)
        first = simulated_annealing(problem, start, seed=9, max_evaluations=2000)
        second = simulated_annealing(problem, start, seed=9, max_evaluations=2000)
        assert first == second


class TestShiftLowerBound:
    def _tiny_problem(self, ports, policy, seed):
        rng = random.Random(seed)
        items = [f"v{i}" for i in range(5)]
        accesses = [rng.choice(items) for _ in range(40)]
        trace = AccessTrace(accesses, name=f"tiny{seed}")
        config = DWMConfig.for_items(
            trace.num_items, words_per_dbc=3, num_ports=ports, port_policy=policy
        )
        return build_problem(trace, config)

    @pytest.mark.parametrize("ports,policy", [(1, "lazy"), (1, "eager"), (2, "eager")])
    def test_bound_below_exhaustive_optimum(self, ports, policy):
        for seed in range(4):
            problem = self._tiny_problem(ports, policy, seed)
            bound = shift_lower_bound(problem)
            optimum = evaluate_placement(
                problem, exhaustive_placement(problem), validate=False
            )
            assert bound <= optimum

    def test_bound_below_random_placements(self):
        for ports, policy in GEOMETRIES:
            problem = _random_problem(ports, policy, seed=37)
            bound = shift_lower_bound(problem)
            for seed in range(3):
                placement = random_placement(problem, seed)
                assert bound <= evaluate_placement(problem, placement)

    def test_lazy_forced_sharing_is_nontrivial(self):
        # Dense adjacency + more items than DBCs forces a positive bound.
        items = [f"v{i}" for i in range(6)]
        accesses = []
        for i in range(len(items)):
            for j in range(len(items)):
                if i != j:
                    accesses += [items[i], items[j]] * 3
        trace = AccessTrace(accesses, name="dense")
        config = DWMConfig.with_uniform_ports(words_per_dbc=3, num_dbcs=2)
        problem = build_problem(trace, config)
        assert shift_lower_bound(problem) > 0

    def test_eager_bound_is_tight_for_isolated_items(self):
        # One hot item per DBC sitting on the port: optimum = bound = 0.
        trace = AccessTrace(["a", "b"] * 10, name="pair")
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=4, num_dbcs=2, port_policy="eager"
        )
        problem = build_problem(trace, config)
        port = config.port_offsets[0]
        placement = Placement({"a": (0, port), "b": (1, port)})
        assert shift_lower_bound(problem) == 0
        assert evaluate_placement(problem, placement) == 0
