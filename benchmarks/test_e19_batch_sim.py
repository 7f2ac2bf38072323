"""E19 — batch simulation throughput, parallel sweeps, warm-cache reruns.

Four measurements of the throughput stack on the evaluation workloads:

1. **Simulation throughput** — simulations/second of the vectorized engine
   (:func:`repro.memory.batch_sim.simulate_vectorized`, over the resolution
   the trace caches) vs the scalar ``DWMArrayModel`` replay on a
   10⁵-access trace, with an exactness spot-check per geometry.  Reproduction target: ≥20×
   on the single-port lazy headline row.
2. **Parallel orchestration** — wall-clock of a 4-worker sweep grid and a
   2-worker ``run_experiments`` subset vs their serial baselines, with
   records/renders verified identical.  The ≥2.5× target is asserted only
   on machines with ≥4 CPUs (recorded regardless — a 1-CPU container can
   only confirm determinism, not speedup).
3. **Persistent cache** — a cold then warm run of the E4 sweep against a
   scratch cache directory; the warm rerun must hit for every placement
   (zero misses), render identically, and not be slower.
4. **Size sweep** — per-call time of the scalar reference against the
   vectorized path at 128–8,192 accesses (1- and 2-port lazy), for
   ``ScratchpadMemory.simulate`` and for candidate scoring
   (``evaluate_placement`` against ``evaluate_placements_fast``), with
   the trace resolution cached as the placement methods see it.  Two
   trace shapes per size — a hot working set (48 items) and an item-heavy
   uniform trace (as many names as accesses) — plus the two most
   item-heavy suite kernels, ``transpose`` and ``spmv``, at their own
   length.  This is the measurement behind sending every in-memory trace
   to the vectorized path; rows where the scalar walk is faster are
   recorded as measured, not gated.

Structured numbers land in ``results/BENCH_e19.json`` for the perf
trajectory; the table goes to ``results/e19.txt``.
"""

import json
import os
import tempfile

from repro.analysis.cache import cache_scope
from repro.analysis.experiments import ExperimentOutput, run_e4, run_experiments
from repro.analysis.parallel import resolve_jobs
from repro.analysis.report import format_table
from repro.analysis.sweep import sweep
from repro.core.api import build_problem
from repro.core.baselines import random_placement
from repro.core.cost import evaluate_placement, evaluate_placements_fast
from repro.dwm.config import DWMConfig
from repro.memory.spm import ScratchpadMemory
from repro.perf import Stopwatch, measure_throughput, speedup
from repro.memory.batch_sim import resolve_trace
from repro.trace.kernels import KERNELS
from repro.trace.synthetic import markov_trace, uniform_trace

#: Geometries measured; the single-port lazy row is the headline number.
GEOMETRIES = (
    (1, "lazy"),
    (2, "lazy"),
    (1, "eager"),
)

NUM_ITEMS = 96
NUM_ACCESSES = 100_000

SWEEP_JOBS = 4
EXPERIMENT_JOBS = 2

#: Size sweep: trace lengths, lazy port counts and trace shapes.
SWEEP_LENGTHS = (128, 512, 2_048, 8_192)
SWEEP_PORTS = (1, 2)
SWEEP_SHAPES = ("hot", "item-heavy")
SWEEP_KERNELS = ("transpose", "spmv")


def _strip_runtime(records):
    return [
        (r.trace, r.method, r.words_per_dbc, r.num_ports, r.num_dbcs,
         r.total_shifts, r.num_accesses)
        for r in records
    ]


def _measure_geometry(ports, policy, min_seconds):
    trace = markov_trace(
        NUM_ITEMS, NUM_ACCESSES, locality=0.85, seed=19, write_fraction=0.2
    )
    config = DWMConfig.for_items(
        NUM_ITEMS, words_per_dbc=32, num_ports=ports, port_policy=policy
    )
    placement = random_placement(build_problem(trace, config), 0)
    spm = ScratchpadMemory(config, placement)

    # Exactness spot-check before timing anything.
    scalar_result = spm.simulate(trace, engine="scalar")
    vectorized_result = spm.simulate(trace, engine="vectorized")
    exact = (
        scalar_result.shifts == vectorized_result.shifts
        and scalar_result.per_dbc_shifts == vectorized_result.per_dbc_shifts
        and scalar_result.max_access_shifts == vectorized_result.max_access_shifts
    )

    # The trace caches its resolution, so repeated vectorized runs measure
    # the per-placement scan cost — the quantity sweeps and DSE pay.
    vectorized = measure_throughput(
        lambda: spm.simulate(trace, engine="vectorized"),
        min_seconds=min_seconds,
    )
    scalar = measure_throughput(
        lambda: spm.simulate(trace, engine="scalar"),
        min_seconds=min_seconds,
        max_operations=20,
    )
    return {
        "ports": ports,
        "policy": policy,
        "scalar_sims_per_sec": scalar.ops_per_second,
        "vectorized_sims_per_sec": vectorized.ops_per_second,
        "speedup": speedup(vectorized, scalar),
        "exact": exact,
    }


def _measure_parallel():
    """Wall-clock of parallel vs serial sweep grid and experiments subset.

    Records the *requested* job counts and the *effective* worker counts
    (``resolve_jobs`` caps at the host CPU count) next to the logical CPU
    count, so a recorded speedup can never masquerade as a 4-worker result
    measured on a 1-CPU container — and ``repro bench compare`` annotates
    rather than gates speedups across hosts with different capacity.
    """
    traces = [markov_trace(48, 20_000, seed=seed) for seed in range(4)]
    grid = dict(words_per_dbc_values=(16, 32), num_ports_values=(1, 2))
    with Stopwatch() as serial_watch:
        serial_records = sweep(traces, jobs=1, **grid)
    with Stopwatch() as parallel_watch:
        parallel_records = sweep(traces, jobs=SWEEP_JOBS, **grid)
    identical = _strip_runtime(serial_records) == _strip_runtime(parallel_records)

    experiment_ids = ["e1", "e9"]
    with Stopwatch() as experiments_serial_watch:
        serial_outputs = run_experiments(experiment_ids, jobs=1)
    with Stopwatch() as experiments_parallel_watch:
        parallel_outputs = run_experiments(experiment_ids, jobs=EXPERIMENT_JOBS)
    # E9 renders measured runtimes (non-deterministic); compare e1 only.
    experiments_identical = (
        serial_outputs[0].rendered == parallel_outputs[0].rendered
    )
    return {
        "cpu_count": os.cpu_count(),
        "sweep_jobs": SWEEP_JOBS,
        "effective_sweep_workers": resolve_jobs(SWEEP_JOBS),
        "effective_experiment_workers": resolve_jobs(EXPERIMENT_JOBS),
        "sweep_cells": len(serial_records),
        "sweep_serial_seconds": serial_watch.seconds,
        "sweep_parallel_seconds": parallel_watch.seconds,
        "sweep_speedup": serial_watch.seconds / max(parallel_watch.seconds, 1e-9),
        "sweep_records_identical": identical,
        "experiment_ids": experiment_ids,
        "experiments_jobs": EXPERIMENT_JOBS,
        "experiments_serial_seconds": experiments_serial_watch.seconds,
        "experiments_parallel_seconds": experiments_parallel_watch.seconds,
        "experiments_speedup": (
            experiments_serial_watch.seconds
            / max(experiments_parallel_watch.seconds, 1e-9)
        ),
        "experiments_rendered_identical": experiments_identical,
    }


def _measure_cache():
    """Cold vs warm E4 run against a scratch cache directory."""
    with tempfile.TemporaryDirectory(prefix="repro-e19-cache-") as tmp:
        with cache_scope(enabled=True, root=tmp) as cache:
            with Stopwatch() as cold_watch:
                cold = run_e4()
            cold_hits, cold_misses = cache.hits, cache.misses
            with Stopwatch() as warm_watch:
                warm = run_e4()
            warm_hits = cache.hits - cold_hits
            warm_misses = cache.misses - cold_misses
            entries = len(cache)
    return {
        "cold_seconds": cold_watch.seconds,
        "warm_seconds": warm_watch.seconds,
        "warmup_speedup": cold_watch.seconds / max(warm_watch.seconds, 1e-9),
        "cold_hits": cold_hits,
        "cold_misses": cold_misses,
        "warm_hits": warm_hits,
        "warm_misses": warm_misses,
        "entries": entries,
        "rendered_identical": cold.rendered == warm.rendered,
    }


def _sweep_trace(shape, length):
    if shape == "hot":
        return markov_trace(48, length, locality=0.85, seed=19)
    if shape == "item-heavy":
        return uniform_trace(length, length, seed=19)
    return KERNELS[shape](seed=1)


def _per_call_us(operation, min_seconds):
    operation()  # first call pays one-off setup (slot arrays, kernels)
    return 1e6 / measure_throughput(operation, min_seconds=min_seconds).ops_per_second


def _measure_size_point(shape, length, ports, min_seconds):
    trace = _sweep_trace(shape, length)
    config = DWMConfig.for_items(
        trace.num_items, words_per_dbc=16, num_ports=ports
    )
    problem = build_problem(trace, config)
    placement = random_placement(problem, 0)
    spm = ScratchpadMemory(config, placement)
    resolve_trace(trace)

    scalar_result = spm.simulate(trace, engine="scalar")
    vectorized_result = spm.simulate(trace, engine="vectorized")
    simulate_exact = (
        scalar_result.shifts == vectorized_result.shifts
        and scalar_result.per_dbc_shifts == vectorized_result.per_dbc_shifts
        and scalar_result.max_access_shifts == vectorized_result.max_access_shifts
    )
    score_exact = evaluate_placements_fast(problem, [placement]) == [
        evaluate_placement(problem, placement)
    ]

    simulate_scalar = _per_call_us(
        lambda: spm.simulate(trace, engine="scalar"), min_seconds
    )
    simulate_vectorized = _per_call_us(
        lambda: spm.simulate(trace, engine="vectorized"), min_seconds
    )
    score_scalar = _per_call_us(
        lambda: evaluate_placement(problem, placement, validate=False),
        min_seconds,
    )
    score_vectorized = _per_call_us(
        lambda: evaluate_placements_fast(problem, [placement], validate=False),
        min_seconds,
    )
    return {
        "shape": shape,
        "accesses": len(trace),
        "items": trace.num_items,
        "ports": ports,
        "simulate_scalar_us": simulate_scalar,
        "simulate_vectorized_us": simulate_vectorized,
        "simulate_speedup": simulate_scalar / simulate_vectorized,
        "simulate_exact": simulate_exact,
        "score_scalar_us": score_scalar,
        "score_vectorized_us": score_vectorized,
        "score_speedup": score_scalar / score_vectorized,
        "score_exact": score_exact,
    }


def _measure_size_sweep(min_seconds):
    points = [
        (shape, length) for shape in SWEEP_SHAPES for length in SWEEP_LENGTHS
    ] + [(kernel, None) for kernel in SWEEP_KERNELS]
    return [
        _measure_size_point(shape, length, ports, min_seconds)
        for shape, length in points
        for ports in SWEEP_PORTS
    ]


def run_e19(min_seconds: float = 0.3) -> ExperimentOutput:
    simulation_rows = [
        _measure_geometry(ports, policy, min_seconds)
        for ports, policy in GEOMETRIES
    ]
    parallel = _measure_parallel()
    cache = _measure_cache()
    size_sweep = _measure_size_sweep(min_seconds / 2)

    table_rows = [
        (
            f"P={row['ports']},{row['policy']}",
            f"{row['scalar_sims_per_sec']:.1f}",
            f"{row['vectorized_sims_per_sec']:.1f}",
            f"{row['speedup']:.1f}x",
            "yes" if row["exact"] else "NO",
        )
        for row in simulation_rows
    ]
    table_rows.append(
        (
            f"sweep x{parallel['effective_sweep_workers']}/"
            f"{parallel['sweep_jobs']} workers",
            f"{parallel['sweep_serial_seconds']:.2f}s",
            f"{parallel['sweep_parallel_seconds']:.2f}s",
            f"{parallel['sweep_speedup']:.2f}x",
            "yes" if parallel["sweep_records_identical"] else "NO",
        )
    )
    table_rows.append(
        (
            f"experiments x{parallel['effective_experiment_workers']}/"
            f"{parallel['experiments_jobs']} workers",
            f"{parallel['experiments_serial_seconds']:.2f}s",
            f"{parallel['experiments_parallel_seconds']:.2f}s",
            f"{parallel['experiments_speedup']:.2f}x",
            "yes" if parallel["experiments_rendered_identical"] else "NO",
        )
    )
    table_rows.append(
        (
            "E4 warm-cache rerun",
            f"{cache['cold_seconds']:.2f}s",
            f"{cache['warm_seconds']:.2f}s",
            f"{cache['warmup_speedup']:.1f}x",
            "yes" if cache["rendered_identical"] else "NO",
        )
    )
    rendered = format_table(
        ("measurement", "baseline", "optimized", "speedup", "identical"),
        table_rows,
        title=(
            f"Batch simulation / orchestration / cache throughput, "
            f"{NUM_ACCESSES:,}-access trace (E19, {parallel['cpu_count']} CPU)"
        ),
    )
    sweep_rows = [
        (
            row["shape"],
            f"{row['accesses']:,}",
            str(row["items"]),
            f"P={row['ports']}",
            f"{row['simulate_scalar_us']:.0f}",
            f"{row['simulate_vectorized_us']:.0f}",
            f"{row['simulate_speedup']:.2f}x",
            f"{row['score_scalar_us']:.0f}",
            f"{row['score_vectorized_us']:.0f}",
            f"{row['score_speedup']:.2f}x",
            "yes" if row["simulate_exact"] and row["score_exact"] else "NO",
        )
        for row in size_sweep
    ]
    rendered += "\n\n" + format_table(
        (
            "trace", "accesses", "items", "ports",
            "sim scalar us", "sim vector us", "sim speedup",
            "score scalar us", "score vector us", "score speedup",
            "identical",
        ),
        sweep_rows,
        title=(
            "Scalar reference vs vectorized path per call, lazy, "
            "16 words/DBC, resolution cached (E19 size sweep)"
        ),
    )
    data = {
        "num_items": NUM_ITEMS,
        "num_accesses": NUM_ACCESSES,
        "simulation": {
            f"{row['ports']}p-{row['policy']}": row for row in simulation_rows
        },
        "parallel": parallel,
        "cache": cache,
        "size_sweep": {
            f"{row['shape']}-{row['accesses']}-{row['ports']}p": row
            for row in size_sweep
        },
        "headline_speedup": simulation_rows[0]["speedup"],
    }
    return ExperimentOutput("e19", "Batch simulation throughput", data, rendered)


def test_e19_batch_sim(benchmark, record_artifact, results_dir):
    output = benchmark.pedantic(run_e19, rounds=1, iterations=1)
    record_artifact(output)
    (results_dir / "BENCH_e19.json").write_text(
        json.dumps(output.data, indent=2) + "\n", encoding="utf-8"
    )
    for row in output.data["simulation"].values():
        assert row["exact"]
        if row["ports"] == 1 and row["policy"] == "lazy":
            # Reproduction target: ≥20× simulation throughput on the
            # 10⁵-access trace (vectorized batch engine vs scalar replay).
            assert row["speedup"] >= 20.0
        else:
            assert row["speedup"] >= 10.0
    parallel = output.data["parallel"]
    assert parallel["sweep_records_identical"]
    assert parallel["experiments_rendered_identical"]
    assert parallel["effective_sweep_workers"] == min(
        SWEEP_JOBS, os.cpu_count() or 1
    )
    if parallel["effective_sweep_workers"] >= 4:
        # Reproduction target: ≥2.5× wall-clock for the 4-worker sweep.
        # Only assertable with real parallel hardware; on smaller hosts the
        # measured number is still recorded in BENCH_e19.json.
        assert parallel["sweep_speedup"] >= 2.5
    for row in output.data["size_sweep"].values():
        assert row["simulate_exact"]
        assert row["score_exact"]
    cache = output.data["cache"]
    assert cache["rendered_identical"]
    assert cache["warm_misses"] == 0
    assert cache["warm_hits"] > 0
    assert cache["warm_hits"] == cache["cold_misses"]
    assert cache["warm_seconds"] <= cache["cold_seconds"]
