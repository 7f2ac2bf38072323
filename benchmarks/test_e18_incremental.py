"""E18 — incremental delta-evaluation throughput (the optimizer hot path).

Measures candidate-evaluations/second of the incremental engine
(:class:`repro.core.incremental.CostEvaluator` swap deltas) against full
re-evaluation (:func:`repro.core.cost.evaluate_placement` on a rebuilt
placement per candidate) on an E9-scale instance: a 10⁵-access trace.
Reproduction target: ≥10× more evaluated moves per second, with every delta
exactly matching the reference evaluator.  The informational pass column
counts the evaluations per second inside one ``swap_refinement`` pass
(:meth:`CostEvaluator.swap_pass`, one compiled call on the cc tier) that
its budget ends part-way through the swap candidates; the pass must leave
what the single-probe scan leaves (placement, total, probe count).  The
structured
numbers land in ``results/BENCH_e18.json`` so future changes can track the
perf trajectory.
"""

import json
import random
import time

from repro.analysis.experiments import ExperimentOutput
from repro.analysis.report import format_table
from repro.core.api import build_problem
from repro.core.baselines import random_placement
from repro.core.cost import evaluate_placement
from repro.core.incremental import CostEvaluator
from repro.dwm.config import DWMConfig
from repro.perf import measure_throughput, speedup
from repro.trace.synthetic import markov_trace

#: Geometries measured; the single-port lazy row is the headline number.
GEOMETRIES = (
    (1, "lazy"),
    (2, "lazy"),
    (1, "eager"),
)

NUM_ITEMS = 128
NUM_ACCESSES = 100_000
#: Probes of each timed refinement pass (its budget ends the pass early).
PASS_PROBES = 1000


def _measure_geometry(ports, policy, min_seconds):
    trace = markov_trace(
        NUM_ITEMS, NUM_ACCESSES, locality=0.85, seed=18, write_fraction=0.2
    )
    config = DWMConfig.for_items(
        NUM_ITEMS, words_per_dbc=32, num_ports=ports, port_policy=policy
    )
    problem = build_problem(trace, config)
    placement = random_placement(problem, 0)
    items = list(problem.items)

    evaluator = CostEvaluator(problem, placement)
    # Exactness spot-check before timing anything.
    check_rng = random.Random(7)
    exact = True
    for _ in range(10):
        item_a, item_b = check_rng.sample(items, 2)
        delta = evaluator.swap_delta(item_a, item_b)
        reference = evaluate_placement(
            problem, placement.with_swapped(item_a, item_b), validate=False
        )
        exact = exact and (delta == reference - evaluator.total)

    # One swap_refinement pass must leave what the single-probe scan leaves.
    passes = []
    for refine in (CostEvaluator.swap_pass, CostEvaluator.scan_swaps):
        refined = CostEvaluator(problem, placement)
        refine(refined, 1, PASS_PROBES + 1)
        passes.append(
            (refined.placement(), refined.total, refined.delta_evaluations)
        )
    pass_exact = passes[0] == passes[1]

    incremental_rng = random.Random(42)

    def incremental_candidate():
        item_a, item_b = incremental_rng.sample(items, 2)
        evaluator.swap_delta(item_a, item_b)

    full_rng = random.Random(42)

    def full_candidate():
        item_a, item_b = full_rng.sample(items, 2)
        evaluate_placement(
            problem, placement.with_swapped(item_a, item_b), validate=False
        )

    incremental_candidate()  # warm caches before timing
    full_candidate()
    incremental = measure_throughput(
        incremental_candidate, min_seconds=min_seconds
    )
    full = measure_throughput(
        full_candidate, min_seconds=min_seconds, max_operations=50
    )
    # Time only the pass: each run starts from a fresh evaluator.
    pass_seconds = pass_probes = 0.0
    while pass_seconds < min_seconds or pass_probes < 3 * PASS_PROBES:
        refined = CostEvaluator(problem, placement)
        start = time.perf_counter()
        refined.swap_pass(1, PASS_PROBES + 1)
        pass_seconds += time.perf_counter() - start
        pass_probes += refined.delta_evaluations
    return {
        "ports": ports,
        "policy": policy,
        "incremental_evals_per_sec": incremental.ops_per_second,
        "full_evals_per_sec": full.ops_per_second,
        "pass_evals_per_sec": pass_probes / pass_seconds,
        "speedup": speedup(incremental, full),
        "deltas_exact": exact,
        "pass_exact": pass_exact,
    }


def run_e18(min_seconds: float = 0.3) -> ExperimentOutput:
    rows = [
        _measure_geometry(ports, policy, min_seconds)
        for ports, policy in GEOMETRIES
    ]
    rendered = format_table(
        (
            "geometry", "full evals/s", "incremental evals/s", "pass evals/s",
            "speedup", "exact",
        ),
        [
            (
                f"P={row['ports']},{row['policy']}",
                f"{row['full_evals_per_sec']:,.0f}",
                f"{row['incremental_evals_per_sec']:,.0f}",
                f"{row['pass_evals_per_sec']:,.0f}",
                f"{row['speedup']:.1f}x",
                "yes" if row["deltas_exact"] and row["pass_exact"] else "NO",
            )
            for row in rows
        ],
        title=(
            f"Candidate-evaluation throughput, {NUM_ACCESSES:,}-access trace, "
            f"{NUM_ITEMS} items (E18)"
        ),
    )
    data = {
        "num_items": NUM_ITEMS,
        "num_accesses": NUM_ACCESSES,
        "by_geometry": {
            f"{row['ports']}p-{row['policy']}": row for row in rows
        },
        "headline_speedup": rows[0]["speedup"],
    }
    return ExperimentOutput(
        "e18", "Incremental evaluation throughput", data, rendered
    )


def test_e18_incremental_speedup(benchmark, record_artifact, results_dir):
    output = benchmark.pedantic(run_e18, rounds=1, iterations=1)
    record_artifact(output)
    (results_dir / "BENCH_e18.json").write_text(
        json.dumps(output.data, indent=2) + "\n", encoding="utf-8"
    )
    for row in output.data["by_geometry"].values():
        assert row["deltas_exact"]
        assert row["pass_exact"]
        if row["ports"] == 1:
            # Reproduction target: ≥10× more candidate evaluations per
            # second than full re-evaluation on the 10⁵-access instance.
            assert row["speedup"] >= 10.0
        else:
            # Multi-port lazy deltas replay whole affected-DBC chains (the
            # port choice is state-dependent); the vectorised automaton
            # lands ~10× here, asserted with headroom for noisy machines.
            assert row["speedup"] >= 5.0
