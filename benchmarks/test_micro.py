"""Micro-benchmarks of the library's hot paths (true pytest-benchmark runs).

Unlike the E1–E16 artifact benches (single-shot pedantic runs that print
tables), these measure steady-state performance of the primitives a
downstream user exercises in a loop: the cost evaluators, the simulator, and
the placement heuristic.
"""

import pytest

from repro.core.api import build_problem
from repro.core.baselines import random_placement
from repro.core.cost import evaluate_placement, evaluate_placements_fast
from repro.core.heuristic import heuristic_placement
from repro.dwm.config import DWMConfig
from repro.memory.spm import ScratchpadMemory
from repro.trace.synthetic import markov_trace


@pytest.fixture(scope="module")
def workload():
    trace = markov_trace(64, 20000, locality=0.8, seed=99)
    config = DWMConfig.for_items(trace.num_items, words_per_dbc=32)
    problem = build_problem(trace, config)
    problem.index_sequence  # warm the cached views
    problem.affinity
    placement = random_placement(problem, 0)
    return problem, placement


def test_scalar_evaluator(benchmark, workload):
    problem, placement = workload
    result = benchmark(evaluate_placement, problem, placement, False)
    assert result > 0


def test_vectorised_evaluator(benchmark, workload):
    problem, placement = workload
    scalar = evaluate_placement(problem, placement, validate=False)
    result = benchmark(evaluate_placements_fast, problem, [placement], False)
    assert result == [scalar]


def test_event_simulator(benchmark, workload):
    problem, placement = workload
    spm = ScratchpadMemory(problem.config, placement)
    result = benchmark(spm.simulate, problem.trace)
    assert result.shifts == evaluate_placement(problem, placement, False)


def test_heuristic_placement(benchmark, workload):
    problem, _placement = workload
    placement = benchmark(heuristic_placement, problem)
    placement.validate(problem.config, problem.items)
