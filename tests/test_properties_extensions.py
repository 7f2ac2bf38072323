"""Property-based tests (hypothesis) for the extension subsystems."""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.allocation import DataObject, _knapsack_select
from repro.core.baselines import random_placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.dwm.reliability import reliability_report
from repro.memory.cache import CacheGeometry, compare_cache_policies
from repro.memory.timing import TimingParams, TimingSimulator
from repro.trace.model import Access, AccessKind, AccessTrace

item_names = st.integers(min_value=0, max_value=9).map(lambda i: f"v{i}")

accesses = st.builds(
    Access,
    item=item_names,
    kind=st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
)

traces = st.lists(accesses, min_size=1, max_size=50).map(
    lambda records: AccessTrace(records, name="hyp-ext")
)


@st.composite
def placed_problems(draw):
    trace = draw(traces)
    words = draw(st.integers(min_value=10, max_value=20))
    dbcs = draw(st.integers(min_value=1, max_value=3))
    config = DWMConfig(words_per_dbc=words, num_dbcs=dbcs, port_offsets=(0,))
    while config.capacity_words < trace.num_items:  # pragma: no cover
        config = config.resized(num_dbcs=config.num_dbcs + 1)
    problem = PlacementProblem(trace=trace, config=config)
    seed = draw(st.integers(min_value=0, max_value=50))
    return problem, random_placement(problem, seed)


# ---------------------------------------------------------------------------
# Timing: overlap dominance and accounting
# ---------------------------------------------------------------------------

@given(data=placed_problems())
@settings(max_examples=40, deadline=None)
def test_overlap_never_slower(data):
    problem, placement = data
    simulator = TimingSimulator(problem.config, placement)
    serial = simulator.run(problem.trace, overlap=False)
    overlapped = simulator.run(problem.trace, overlap=True)
    assert overlapped.total_cycles <= serial.total_cycles
    # Component accounting is identical; only scheduling differs.
    assert overlapped.shift_cycles == serial.shift_cycles
    assert overlapped.port_cycles == serial.port_cycles


@given(data=placed_problems())
@settings(max_examples=25, deadline=None)
def test_nonblocking_loads_never_slower(data):
    problem, placement = data
    blocking = TimingSimulator(problem.config, placement, TimingParams())
    decoupled = TimingSimulator(
        problem.config, placement, TimingParams(blocking_loads=False)
    )
    assert (
        decoupled.run(problem.trace).total_cycles
        <= blocking.run(problem.trace).total_cycles
    )


@given(data=placed_problems())
@settings(max_examples=25, deadline=None)
def test_overlapped_time_at_least_port_serialisation(data):
    """The shared data port lower-bounds any schedule."""
    problem, placement = data
    simulator = TimingSimulator(
        problem.config, placement, TimingParams(blocking_loads=False)
    )
    overlapped = simulator.run(problem.trace, overlap=True)
    assert overlapped.total_cycles >= overlapped.port_cycles


# ---------------------------------------------------------------------------
# Cache: policy-invariant hits, honest accounting
# ---------------------------------------------------------------------------

@given(
    trace=traces,
    ways=st.integers(min_value=2, max_value=6),
    sets=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_cache_hit_rate_policy_invariant(trace, ways, sets):
    geometry = CacheGeometry(
        num_sets=sets,
        ways=ways,
        dbc_config=DWMConfig(words_per_dbc=8, num_dbcs=sets, port_offsets=(0,)),
    )
    results = compare_cache_policies(trace, geometry)
    hit_counts = {result.hits for result in results.values()}
    assert len(hit_counts) == 1
    for result in results.values():
        assert result.accesses == len(trace)
        assert result.shifts >= result.reorg_shifts >= 0
    assert results["static"].reorg_swaps == 0


@given(trace=traces)
@settings(max_examples=20, deadline=None)
def test_cache_capacity_bounds_misses(trace):
    """With capacity >= working set, misses = cold misses exactly."""
    geometry = CacheGeometry(
        num_sets=1,
        ways=10,
        dbc_config=DWMConfig(words_per_dbc=16, num_dbcs=1, port_offsets=(0,)),
    )
    results = compare_cache_policies(trace, geometry)
    for result in results.values():
        assert result.misses == trace.num_items


# ---------------------------------------------------------------------------
# Allocation: knapsack optimality
# ---------------------------------------------------------------------------

@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8),
    benefit_values=st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        min_size=8, max_size=8,
    ),
    capacity=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=50, deadline=None)
def test_knapsack_matches_brute_force(sizes, benefit_values, capacity):
    objects = [
        DataObject(
            name=f"o{i}",
            items=tuple(f"o{i}[{k}]" for k in range(size)),
            accesses=1,
        )
        for i, size in enumerate(sizes)
    ]
    benefits = benefit_values[: len(objects)]
    chosen = _knapsack_select(objects, benefits, capacity)
    chosen_value = sum(benefits[i] for i in chosen)
    chosen_size = sum(objects[i].size_words for i in chosen)
    assert chosen_size <= capacity
    best = 0.0
    for mask in itertools.product((0, 1), repeat=len(objects)):
        size = sum(
            objects[i].size_words for i, bit in enumerate(mask) if bit
        )
        if size > capacity:
            continue
        value = sum(
            max(0.0, benefits[i]) for i, bit in enumerate(mask) if bit
        )
        best = max(best, value)
    assert chosen_value >= best - 1e-6


# ---------------------------------------------------------------------------
# Reliability: monotonicity and composition
# ---------------------------------------------------------------------------

@given(
    per_dbc=st.lists(st.integers(min_value=0, max_value=10000), min_size=1, max_size=6),
    rate=st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
)
@settings(max_examples=60)
def test_reliability_composition(per_dbc, rate):
    report = reliability_report(
        sum(per_dbc), per_dbc_shifts=tuple(per_dbc), shift_error_rate=rate
    )
    probabilities = report.per_dbc_error_free_probability()
    product = 1.0
    for probability in probabilities:
        product *= probability
    assert abs(product - report.error_free_probability) < 1e-9
    assert 0.0 <= report.error_free_probability <= 1.0


@given(
    shifts_low=st.integers(min_value=0, max_value=10**6),
    extra=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=60)
def test_reliability_monotone_in_shifts(shifts_low, extra):
    rate = 1e-6
    low = reliability_report(shifts_low, shift_error_rate=rate)
    high = reliability_report(shifts_low + extra, shift_error_rate=rate)
    assert high.expected_position_errors > low.expected_position_errors
    assert high.error_free_probability < low.error_free_probability or rate == 0


# ---------------------------------------------------------------------------
# ILP: formulation equivalence on random small instances
# ---------------------------------------------------------------------------

@given(
    n=st.integers(min_value=2, max_value=5),
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=10, max_size=10),
)
@settings(max_examples=25, deadline=None)
def test_ilp_formulation_matches_dp(n, weights):
    from tests.test_ilp import check_formulation

    items = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(items, 2))
    affinity = {
        pair: weight for pair, weight in zip(pairs, weights) if weight > 0
    }
    check_formulation(items, affinity)
