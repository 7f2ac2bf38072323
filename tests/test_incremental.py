"""Differential tests: incremental deltas ≡ reference evaluator, exactly.

Property-style coverage over random traces for every port policy × port
count combination: :class:`CostEvaluator` totals and swap/move/reversal
deltas, apply/undo sequences, the batch vectorised evaluator, and the
tightened instance-wide lower bound all agree with (or soundly bound) the
reference :func:`evaluate_placement`.
"""

import random

import pytest

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
from repro.errors import PlacementError
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


def _assert_rows_match_single_probes(evaluator, items, rng):
    for item in rng.sample(items, 2):
        others = [other for other in items if other != item]
        assert evaluator.swap_deltas(item, others).tolist() == [
            evaluator.swap_delta(item, other) for other in others
        ]
        slots = evaluator.free_slots() + [Slot(4, 0), Slot(4, 7)]
        assert evaluator.move_deltas(item, slots).tolist() == [
            evaluator.move_delta(item, slot) for slot in slots
        ]
    dbc = rng.choice([0, 1, 2])
    offsets = sorted(evaluator.dbc_contents(dbc))
    for i in range(len(offsets) - 1):
        for first in (1, 3):
            assert evaluator.reversal_deltas(
                dbc, offsets[i:], first=first
            ).tolist() == [
                evaluator.reversal_delta(dbc, offsets[i : k + 1])
                for k in range(i + first, len(offsets))
            ]


class TestRowProbes:
    @pytest.mark.parametrize(
        "ports,policy,kernel_tier", _tiered(GEOMETRIES), indirect=["kernel_tier"]
    )
    def test_rows_equal_single_probes(self, ports, policy, kernel_tier):
        problem, placement = _row_problem(ports, policy, seed=3)
        evaluator = CostEvaluator(problem, placement)
        _assert_rows_match_single_probes(
            evaluator, list(problem.items), random.Random(5)
        )

    @pytest.mark.parametrize(
        "ports,policy,kernel_tier", _tiered(GEOMETRIES), indirect=["kernel_tier"]
    )
    def test_rows_track_apply_and_undo(self, ports, policy, kernel_tier):
        # Rows priced before each step cache the per-DBC layout; a layout
        # that outlives an apply or undo prices the old assignment.
        problem, placement = _row_problem(ports, policy, seed=7)
        evaluator = CostEvaluator(problem, placement)
        items = list(problem.items)
        rng = random.Random(11)
        for _ in range(10):
            _assert_rows_match_single_probes(evaluator, items, rng)
            choice = rng.random()
            if choice < 0.3:
                evaluator.apply_swap(*rng.sample(items, 2))
            elif choice < 0.55:
                evaluator.apply_move(
                    rng.choice(items), rng.choice(evaluator.free_slots())
                )
            elif choice < 0.75:
                dbc = rng.choice([0, 1, 2])
                evaluator.apply_reversal(
                    dbc, sorted(evaluator.dbc_contents(dbc))[1:]
                )
            elif evaluator.applied_moves:
                evaluator.undo()
        _assert_rows_match_single_probes(evaluator, items, rng)

    def test_rows_count_every_delta(self):
        problem, placement = _row_problem(2, "lazy", seed=3)
        evaluator = CostEvaluator(problem, placement)
        items = list(problem.items)
        evaluator.swap_deltas(items[0], items[1:6])
        evaluator.move_deltas(items[0], evaluator.free_slots()[:3])
        evaluator.reversal_deltas(0, list(range(8)), first=5)
        assert evaluator.delta_evaluations == 5 + 3 + 3

    def test_row_error_paths(self):
        problem, placement = _row_problem(1, "lazy", seed=3)
        evaluator = CostEvaluator(problem, placement)
        items = list(problem.items)
        with pytest.raises(PlacementError):
            evaluator.swap_deltas(items[0], ["ghost"])
        with pytest.raises(PlacementError):
            evaluator.move_deltas(items[0], [Slot(3, 5)])
        for outside in (Slot(5, 0), Slot(0, 8)):
            with pytest.raises(PlacementError):
                evaluator.move_deltas(items[0], [outside])
        with pytest.raises(PlacementError):
            evaluator.reversal_deltas(3, [4, 5])
        with pytest.raises(PlacementError):
            evaluator.reversal_deltas(0, [0, 1, 2], first=-1)


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
