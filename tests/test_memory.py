"""Unit and differential tests for the memory subsystem."""

import pytest

from repro.core.baselines import declaration_order_placement, random_placement
from repro.core.cost import evaluate_placement, per_dbc_costs
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.energy import DWMEnergyModel, SRAMEnergyModel
from repro.errors import PlacementError
from repro.memory.result import SimulationResult
from repro.memory.spm import ScratchpadMemory, simulate_placement
from repro.memory.sram import SRAMScratchpad
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, zipf_trace


@pytest.fixture
def problem():
    trace = markov_trace(12, 300, locality=0.8, seed=31, write_fraction=0.3)
    config = DWMConfig(words_per_dbc=8, num_dbcs=2, port_offsets=(0,))
    return PlacementProblem(trace=trace, config=config)


class TestScratchpadSimulation:
    def test_counts_reads_writes(self, problem):
        placement = declaration_order_placement(problem)
        sim = ScratchpadMemory(problem.config, placement).simulate(problem.trace)
        reads, writes = problem.trace.read_write_counts()
        assert sim.reads == reads
        assert sim.writes == writes
        assert sim.accesses == len(problem.trace)

    def test_per_dbc_shifts_sum(self, problem):
        placement = declaration_order_placement(problem)
        sim = ScratchpadMemory(problem.config, placement).simulate(problem.trace)
        assert sum(sim.per_dbc_shifts) == sim.shifts

    def test_uncovered_item_raises(self, problem):
        placement = Placement({"v0": (0, 0)})
        spm = ScratchpadMemory(problem.config, placement)
        with pytest.raises(PlacementError):
            spm.simulate(problem.trace)

    def test_max_access_shifts_bounded(self, problem):
        eager = PlacementProblem(
            trace=problem.trace,
            config=DWMConfig(
                words_per_dbc=8,
                num_dbcs=2,
                port_offsets=(4,),
                port_policy=PortPolicy.EAGER,
            ),
        )
        for case in (problem, eager):
            placement = random_placement(case, 0)
            sim = ScratchpadMemory(case.config, placement).simulate(case.trace)
            assert 0 <= sim.max_access_shifts <= case.config.max_shift_distance


class TestDifferentialSimVsEvaluator:
    """The analytical evaluator and the event simulator must agree exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_placements_agree(self, problem, seed):
        placement = random_placement(problem, seed)
        sim = ScratchpadMemory(problem.config, placement).simulate(problem.trace)
        assert sim.shifts == evaluate_placement(problem, placement)

    @pytest.mark.parametrize("ports", [(0,), (0, 7), (3,), (2, 5)])
    def test_port_layouts_agree(self, ports):
        trace = zipf_trace(10, 200, seed=3)
        config = DWMConfig(words_per_dbc=8, num_dbcs=2, port_offsets=ports)
        problem = PlacementProblem(trace=trace, config=config)
        placement = random_placement(problem, 1)
        sim = ScratchpadMemory(config, placement).simulate(trace)
        assert sim.shifts == evaluate_placement(problem, placement)

    def test_eager_policy_agrees(self):
        trace = markov_trace(8, 150, seed=2)
        config = DWMConfig(
            words_per_dbc=8, num_dbcs=1, port_offsets=(0,),
            port_policy=PortPolicy.EAGER,
        )
        problem = PlacementProblem(trace=trace, config=config)
        placement = declaration_order_placement(problem)
        sim = ScratchpadMemory(config, placement).simulate(trace)
        assert sim.shifts == evaluate_placement(problem, placement)

    def test_per_dbc_attribution_agrees(self, problem):
        placement = random_placement(problem, 2)
        sim = ScratchpadMemory(problem.config, placement).simulate(problem.trace)
        analytical = per_dbc_costs(problem, placement)
        for dbc, shifts in enumerate(sim.per_dbc_shifts):
            assert analytical.get(dbc, 0) == shifts


class TestFunctionalSimulation:
    """The bit-true device model must agree and preserve data integrity."""

    def test_matches_fast_engine(self, problem):
        placement = declaration_order_placement(problem)
        spm = ScratchpadMemory(problem.config, placement)
        fast = spm.simulate(problem.trace)
        functional = spm.simulate_functional(problem.trace)
        assert functional.shifts == fast.shifts
        assert functional.reads == fast.reads
        assert functional.writes == fast.writes

    def test_multi_port_functional(self):
        trace = markov_trace(10, 120, seed=9, write_fraction=0.4)
        config = DWMConfig(words_per_dbc=8, num_dbcs=2, port_offsets=(1, 6))
        problem = PlacementProblem(trace=trace, config=config)
        placement = declaration_order_placement(problem)
        spm = ScratchpadMemory(config, placement)
        assert spm.simulate_functional(trace).shifts == spm.simulate(trace).shifts

    def test_details_flag(self, problem):
        placement = declaration_order_placement(problem)
        spm = ScratchpadMemory(problem.config, placement)
        assert spm.simulate_functional(problem.trace).details["functional"]


class TestSimulationResult:
    def make(self, shifts=10, reads=5, writes=5):
        return SimulationResult(
            trace_name="t", config_description="c",
            shifts=shifts, reads=reads, writes=writes,
        )

    def test_shifts_per_access(self):
        assert self.make().shifts_per_access == 1.0

    def test_energy_breakdown(self):
        breakdown = self.make().energy(DWMEnergyModel())
        assert breakdown.total_energy_pj > 0
        assert breakdown.shift_energy_pj > 0

    def test_sram_reference_has_no_shift_energy(self):
        reference = self.make().sram_reference(SRAMEnergyModel())
        assert reference.shift_energy_pj == 0.0

    def test_normalized_shifts(self):
        assert self.make(shifts=5).normalized_shifts(self.make(shifts=10)) == 0.5

    def test_normalized_zero_baseline(self):
        zero = self.make(shifts=0)
        assert zero.normalized_shifts(zero) == 0.0
        assert self.make(shifts=1).normalized_shifts(zero) == float("inf")

    def test_speedup_over(self):
        fast = self.make(shifts=0)
        slow = self.make(shifts=100)
        assert fast.speedup_over(slow) > 1.0


class TestSRAMScratchpad:
    def test_counts_accesses(self):
        trace = AccessTrace([("a", "R"), ("b", "W"), ("a", "R")])
        sim = SRAMScratchpad(capacity_words=16).simulate(trace)
        assert sim.reads == 2
        assert sim.writes == 1
        assert sim.shifts == 0

    def test_placement_insensitive_by_construction(self):
        trace = markov_trace(6, 100, seed=0)
        sram = SRAMScratchpad(capacity_words=8)
        assert sram.simulate(trace).shifts == 0

    def test_simulate_placement_convenience(self, problem):
        placement = declaration_order_placement(problem)
        fast = simulate_placement(problem.trace, problem.config, placement)
        functional = simulate_placement(
            problem.trace, problem.config, placement, functional=True
        )
        assert fast.shifts == functional.shifts
