"""E22 — compiled kernel throughput, pool dispatch and trace pickling.

Microbenchmark of the two native-speed hot paths introduced by the
worker-pool/kernel rework:

1. **Compiled lazy kernel** — 2-port lazy ``swap_delta`` probes per second
   through :class:`repro.core.incremental.CostEvaluator` on the active
   kernel tier (cc when a C compiler is available) vs the numpy tier of
   :mod:`repro.core.kernels` forced via ``REPRO_KERNEL=numpy`` (closed-form
   two-port walk, ``searchsorted``-mask merge).  Reproduction target:
   ≥3,510 evals/s on the 10⁵-access instance (≥10× the ~350/s pre-kernel
   baseline), asserted whenever the cc tier is active, on the median of
   ``KERNEL_RUNS`` timed runs per tier.  Every probed delta is checked
   against the from-scratch reference evaluator before timing.
2. **Pool dispatch** — per-task round-trip cost of a warm persistent
   :class:`repro.analysis.pool.WorkerPool` vs the old fork-per-task model
   (a fresh process spawned, run and joined per task).  The pool is driven
   directly so the measurement works on any host regardless of the
   ``resolve_jobs`` CPU cap.
3. **Trace pickle round-trip** — a 10⁵-access trace pickled as its
   resolved arrays (``AccessTrace.__reduce__``, how tasks carry traces to
   pool workers) vs its :class:`~repro.trace.model.Access` records: bytes,
   and median dumps/loads seconds of ``PICKLE_RUNS`` runs each.  Two pool
   workers unpickle the trace and return its fingerprint and array
   digests, which must equal the parent's.

Structured numbers land in ``results/BENCH_e22.json``; the rendered table
goes to ``results/e22.txt``.
"""

import hashlib
import json
import os
import pickle
import random
import statistics

from repro.analysis import pool as pool_mod
from repro.analysis.experiments import ExperimentOutput
from repro.analysis.report import format_table
from repro.core import kernels
from repro.core.api import build_problem
from repro.core.baselines import random_placement
from repro.core.cost import evaluate_placement
from repro.core.incremental import CostEvaluator
from repro.dwm.config import DWMConfig
from repro.memory.batch_sim import resolve_trace
from repro.perf import Stopwatch, measure_throughput, speedup
from repro.trace.synthetic import markov_trace

NUM_ITEMS = 128
NUM_ACCESSES = 100_000

#: Reproduction target for 2-port lazy deltas with a compiled backend.
KERNEL_EVALS_PER_SEC_TARGET = 3_510.0
#: Timed probe runs per kernel tier.  The reported rate is the median run,
#: so one run slowed by other load on a shared host does not set it.
KERNEL_RUNS = 5

POOL_SIZE = 2
POOL_TASKS = 64
SPAWN_TASKS = 8
#: Timed dumps/loads runs per representation; each reported time is the median.
PICKLE_RUNS = 5


def _noop_task(value):
    return value


def _trace_digest(trace):
    """Fingerprint and array digests of a trace, as a worker sees it."""
    resolved = resolve_trace(trace)
    return (
        trace.fingerprint(),
        hashlib.sha256(resolved.item_at.tobytes()).hexdigest(),
        hashlib.sha256(resolved.is_write.tobytes()).hexdigest(),
    )


def _build_instance():
    trace = markov_trace(
        NUM_ITEMS, NUM_ACCESSES, locality=0.85, seed=22, write_fraction=0.2
    )
    config = DWMConfig.for_items(
        NUM_ITEMS, words_per_dbc=32, num_ports=2, port_policy="lazy"
    )
    problem = build_problem(trace, config)
    placement = random_placement(problem, 0)
    return trace, problem, placement


def _measure_evaluator(problem, placement, min_seconds):
    """2p-lazy swap_delta throughput with the currently selected backend:
    the median of :data:`KERNEL_RUNS` timed runs, and the per-run rates."""
    evaluator = CostEvaluator(problem, placement)
    items = list(problem.items)

    check_rng = random.Random(7)
    exact = True
    for _ in range(10):
        item_a, item_b = check_rng.sample(items, 2)
        delta = evaluator.swap_delta(item_a, item_b)
        reference = evaluate_placement(
            problem, placement.with_swapped(item_a, item_b), validate=False
        )
        exact = exact and (delta == reference - evaluator.total)

    probe_rng = random.Random(42)

    def probe():
        item_a, item_b = probe_rng.sample(items, 2)
        evaluator.swap_delta(item_a, item_b)

    probe()  # warm caches before timing
    runs = sorted(
        (measure_throughput(probe, min_seconds=min_seconds)
         for _ in range(KERNEL_RUNS)),
        key=lambda run: run.ops_per_second,
    )
    return runs[len(runs) // 2], [run.ops_per_second for run in runs], exact


def _measure_kernel(problem, placement, min_seconds):
    selected, selected_runs, exact = _measure_evaluator(
        problem, placement, min_seconds
    )
    backend = kernels.backend_name()

    # Force the numpy fallback for the in-process baseline, then restore.
    previous = os.environ.get(kernels.KERNEL_ENV)
    os.environ[kernels.KERNEL_ENV] = "numpy"
    kernels.reset_backend()
    try:
        numpy_result, numpy_runs, numpy_exact = _measure_evaluator(
            problem, placement, min_seconds
        )
    finally:
        if previous is None:
            os.environ.pop(kernels.KERNEL_ENV, None)
        else:
            os.environ[kernels.KERNEL_ENV] = previous
        kernels.reset_backend()
    return {
        "backend": backend,
        "compiled": kernels.describe()["compiled"],
        "kernel_evals_per_sec": selected.ops_per_second,
        "numpy_evals_per_sec": numpy_result.ops_per_second,
        "kernel_runs_evals_per_sec": selected_runs,
        "numpy_runs_evals_per_sec": numpy_runs,
        "kernel_vs_numpy_speedup": speedup(selected, numpy_result),
        "deltas_exact": exact and numpy_exact,
    }


def _measure_pool():
    """Warm persistent-pool dispatch vs the old process-per-task model."""
    import multiprocessing

    pool_mod.shutdown_pools()
    pool = pool_mod.get_pool(POOL_SIZE)
    tasks = list(range(POOL_TASKS))
    pool.run(_noop_task, tasks, propagate=True)  # warm the workers
    with Stopwatch() as pool_watch:
        results = pool.run(_noop_task, tasks, propagate=True)
    dispatch_ok = results == tasks
    pool_per_task = pool_watch.seconds / POOL_TASKS

    ctx = multiprocessing.get_context()
    with Stopwatch() as spawn_watch:
        for value in range(SPAWN_TASKS):
            proc = ctx.Process(target=_noop_task, args=(value,))
            proc.start()
            proc.join()
    spawn_per_task = spawn_watch.seconds / SPAWN_TASKS
    return {
        "pool_size": POOL_SIZE,
        "pool_tasks": POOL_TASKS,
        "pool_per_task_seconds": pool_per_task,
        "spawn_per_task_seconds": spawn_per_task,
        "dispatch_speedup": spawn_per_task / max(pool_per_task, 1e-9),
        "results_identical": dispatch_ok,
    }


def _median_seconds(fn):
    times = []
    for _ in range(PICKLE_RUNS):
        with Stopwatch() as watch:
            fn()
        times.append(watch.seconds)
    return statistics.median(times)


def _measure_pickle(trace):
    """The trace pickled as arrays vs as records, and its worker round trip."""
    pool = pool_mod.get_pool(POOL_SIZE)
    # Sent before the parent computes the fingerprint, so workers hash arrays.
    fingerprint_carried = trace._fingerprint is not None
    results = pool.run(_trace_digest, [trace, trace], propagate=True)
    roundtrip_ok = results == [_trace_digest(trace)] * 2

    arrays = pickle.dumps(trace)
    records = tuple(trace)
    objects = pickle.dumps(records)
    return {
        "num_accesses": len(trace),
        "arrays_bytes": len(arrays),
        "objects_bytes": len(objects),
        "arrays_dumps_seconds": _median_seconds(lambda: pickle.dumps(trace)),
        "arrays_loads_seconds": _median_seconds(lambda: pickle.loads(arrays)),
        "objects_dumps_seconds": _median_seconds(lambda: pickle.dumps(records)),
        "objects_loads_seconds": _median_seconds(lambda: pickle.loads(objects)),
        "worker_fingerprint_carried": fingerprint_carried,
        "roundtrip_identical": roundtrip_ok,
    }


def run_e22(min_seconds: float = 0.3) -> ExperimentOutput:
    trace, problem, placement = _build_instance()
    kernel = _measure_kernel(problem, placement, min_seconds)
    pool = _measure_pool()
    pickled = _measure_pickle(trace)
    pool_mod.shutdown_pools()

    table_rows = [
        (
            f"2p-lazy deltas ({kernel['backend']})",
            f"{kernel['numpy_evals_per_sec']:,.0f}/s",
            f"{kernel['kernel_evals_per_sec']:,.0f}/s",
            f"{kernel['kernel_vs_numpy_speedup']:.1f}x",
            "yes" if kernel["deltas_exact"] else "NO",
        ),
        (
            f"dispatch ({POOL_TASKS} tasks, {POOL_SIZE} workers)",
            f"{pool['spawn_per_task_seconds'] * 1e3:.1f}ms/task",
            f"{pool['pool_per_task_seconds'] * 1e3:.2f}ms/task",
            f"{pool['dispatch_speedup']:.0f}x",
            "yes" if pool["results_identical"] else "NO",
        ),
        (
            f"trace pickle ({len(trace):,} accesses)",
            f"{pickled['objects_bytes'] / 1e6:.2f} MB records",
            f"{pickled['arrays_bytes'] / 1e6:.2f} MB arrays",
            f"{pickled['objects_bytes'] / pickled['arrays_bytes']:.1f}x",
            "yes" if pickled["roundtrip_identical"] else "NO",
        ),
        (
            "  dumps / loads",
            f"{pickled['objects_dumps_seconds'] * 1e3:.0f} / "
            f"{pickled['objects_loads_seconds'] * 1e3:.0f} ms",
            f"{pickled['arrays_dumps_seconds'] * 1e3:.2f} / "
            f"{pickled['arrays_loads_seconds'] * 1e3:.2f} ms",
            "-",
            "-",
        ),
    ]
    rendered = format_table(
        ("measurement", "baseline", "optimized", "speedup", "identical"),
        table_rows,
        title=(
            f"Compiled kernel / pool dispatch / trace pickle microbench "
            f"(E22, backend={kernel['backend']}, {os.cpu_count()} CPU)"
        ),
    )
    data = {
        "num_items": NUM_ITEMS,
        "num_accesses": NUM_ACCESSES,
        "cpu_count": os.cpu_count(),
        "kernel": kernel,
        "pool": pool,
        "pickle": pickled,
    }
    return ExperimentOutput(
        "e22", "Kernel + pool dispatch microbenchmark", data, rendered
    )


def test_e22_pool_kernel(benchmark, record_artifact, results_dir):
    output = benchmark.pedantic(run_e22, rounds=1, iterations=1)
    record_artifact(output)
    (results_dir / "BENCH_e22.json").write_text(
        json.dumps(output.data, indent=2) + "\n", encoding="utf-8"
    )
    kernel = output.data["kernel"]
    assert kernel["deltas_exact"]
    if kernel["compiled"]:
        # Reproduction target: ≥10× the ~350/s pre-kernel 2p-lazy rate.
        assert kernel["kernel_evals_per_sec"] >= KERNEL_EVALS_PER_SEC_TARGET
        assert kernel["kernel_vs_numpy_speedup"] >= 2.0
    pool = output.data["pool"]
    assert pool["results_identical"]
    # A warm dispatch must beat spawning a process per task comfortably.
    assert pool["dispatch_speedup"] >= 5.0
    assert output.data["pickle"]["roundtrip_identical"]
