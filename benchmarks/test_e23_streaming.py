"""E23 — out-of-core streaming engine: throughput, resident set, stitch.

Benchmarks the chunked streaming engine (:mod:`repro.memory.stream_sim`)
against the in-memory vectorized engine on a 10⁶-access trace:

1. **Throughput** — accesses/second of the sequential streaming scan over
   a packed ``.rtb`` file vs the warm in-memory vectorized engine (its
   resolved arrays already cached — the best case for in-memory).
   Reproduction target: streaming ≥0.8× the in-memory rate.  Both run
   the same compiled interleaved scan, in-memory over the resolved item
   indices and streaming over the mapped ``uint32`` records (masking the
   write bit in the same pass), so the ratio sits near 1.
2. **Peak resident set** — two fresh subprocesses replay the same packed
   trace, one through the streaming engine (bounded windows), one by
   materialising and running the vectorized engine.  Peak-RSS deltas over
   each child's post-import baseline are compared; the streaming delta
   must stay under 25% of the materialised one (peak RSS of a fork made
   after the imports, so the import transient is not counted).
3. **Parallel span scan** — the pool-parallel path with 2 workers (one
   contiguous span of chunks per worker, stitched in the parent); its
   speedup over sequential streaming is recorded, not gated, and its
   results asserted identical.

Each engine's rate is the median of :data:`TIMED_RUNS` timed runs, taken
round-robin across the three engines after one warm-up run each (which
also starts the pool), so a change in the host's load moves all three
alike and one slow run moves none of them.

Structured numbers land in ``results/BENCH_e23.json``; the rendered table
goes to ``results/e23.txt``.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.analysis.experiments import ExperimentOutput
from repro.analysis.report import format_table
from repro.core.api import build_problem
from repro.core.baselines import frequency_placement
from repro.dwm.config import DWMConfig
from repro.memory.batch_sim import simulate_vectorized
from repro.memory.stream_sim import simulate_streaming
from repro.perf import Stopwatch
from repro.trace.binio import open_binary, save_binary
from repro.trace.synthetic import markov_trace

NUM_ITEMS = 256
NUM_ACCESSES = 1_000_000

#: Reproduction targets (ISSUE acceptance): streaming throughput within
#: 20% of in-memory, streaming peak-RSS delta under a quarter of the
#: materialised engine's.
THROUGHPUT_FLOOR = 0.8
RSS_BUDGET = 0.25

PARALLEL_JOBS = 2
#: Timed runs per engine; each reported rate is the median run.
TIMED_RUNS = 7
RSS_CHUNK_SIZE = 1 << 15

_RSS_CHILD = r"""
import json, os, resource, sys
mode, trace_path, placement_path, chunk_size = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
)
from repro.cli import load_placement_json
from repro.memory.batch_sim import simulate_vectorized
from repro.memory.stream_sim import simulate_streaming
from repro.trace.binio import open_binary

placement, config = load_placement_json(placement_path)


def peak_rss_kib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure():
    baseline_kib = peak_rss_kib()
    stream = open_binary(trace_path)
    if mode == "stream":
        result = simulate_streaming(
            stream, config, placement, chunk_size=chunk_size
        )
    else:
        trace = stream.to_trace()
        result = simulate_vectorized(trace, config, placement)
    return {
        "delta_bytes": (peak_rss_kib() - baseline_kib) * 1024,
        "shifts": result.shifts,
    }


# The import transient peaks far above the engines' working sets, so the
# post-import high watermark would mask both runs.  A forked child's
# peak-RSS watermark starts at its resident set at the fork (Linux), so
# the engine runs in a fork and the delta measures only its own
# footprint.  Pages the fork shares with this process but never copied
# (library text, mapped files) count against the engine when it touches
# them, so the delta can only come out larger.
watermark_reset = hasattr(os, "fork") and sys.platform.startswith("linux")
if watermark_reset:
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        with os.fdopen(write_end, "w") as pipe:
            pipe.write(json.dumps(measure()))
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        out = json.loads(pipe.read())
    os.waitpid(pid, 0)
else:
    out = measure()
out["watermark_reset"] = watermark_reset
print(json.dumps(out))
"""


def _build_instance():
    trace = markov_trace(
        NUM_ITEMS, NUM_ACCESSES, locality=0.85, seed=23, write_fraction=0.2
    )
    config = DWMConfig.for_items(
        NUM_ITEMS, words_per_dbc=32, num_ports=2, port_policy="lazy"
    )
    placement = frequency_placement(build_problem(trace, config))
    return trace, config, placement


def _placement_payload(placement, config):
    return {
        "config": {
            "words_per_dbc": config.words_per_dbc,
            "num_dbcs": config.num_dbcs,
            "port_offsets": list(config.port_offsets),
            "port_policy": config.port_policy.value,
        },
        "placement": {
            item: {"dbc": slot.dbc, "offset": slot.offset}
            for item, slot in placement.items()
        },
    }


def _measure_rss(trace_path: Path, placement_path: Path) -> dict:
    """Peak-RSS delta of each engine in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = {}
    for mode in ("stream", "materialize"):
        proc = subprocess.run(
            [
                sys.executable, "-c", _RSS_CHILD,
                mode, str(trace_path), str(placement_path),
                str(RSS_CHUNK_SIZE),
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        out[mode] = json.loads(proc.stdout)
    return out


def run_e23() -> ExperimentOutput:
    trace, config, placement = _build_instance()
    with tempfile.TemporaryDirectory(prefix="e23-") as tmp:
        trace_path = Path(tmp) / "e23.rtb"
        with Stopwatch() as pack_watch:
            save_binary(trace, trace_path)
        file_bytes = trace_path.stat().st_size
        stream = open_binary(trace_path)

        engines = {
            "inmem": lambda: simulate_vectorized(trace, config, placement),
            "stream": lambda: simulate_streaming(stream, config, placement),
            "parallel": lambda: simulate_streaming(
                stream, config, placement, jobs=PARALLEL_JOBS
            ),
        }
        # Warm every engine (resolution, page cache, pool start-up), then
        # time them round-robin.
        results = {name: run() for name, run in engines.items()}
        seconds = {name: [] for name in engines}
        for _ in range(TIMED_RUNS):
            for name, run in engines.items():
                with Stopwatch() as watch:
                    results[name] = run()
                seconds[name].append(watch.seconds)
        inmem, streamed, parallel = (
            results["inmem"], results["stream"], results["parallel"]
        )
        from repro.analysis import pool as pool_mod

        pool_mod.shutdown_pools()

        placement_path = Path(tmp) / "placement.json"
        placement_path.write_text(
            json.dumps(_placement_payload(placement, config)),
            encoding="utf-8",
        )
        rss = _measure_rss(trace_path, placement_path)

    runs = {
        name: [NUM_ACCESSES / max(run, 1e-9) for run in times]
        for name, times in seconds.items()
    }
    inmem_rate, stream_rate, parallel_rate = (
        statistics.median(runs[name]) for name in ("inmem", "stream", "parallel")
    )
    stream_delta = rss["stream"]["delta_bytes"]
    materialize_delta = rss["materialize"]["delta_bytes"]
    rss_ratio = stream_delta / max(materialize_delta, 1)
    results_identical = (
        streamed.shifts == inmem.shifts == parallel.shifts
        == rss["stream"]["shifts"] == rss["materialize"]["shifts"]
        and streamed.per_dbc_shifts == inmem.per_dbc_shifts
        and streamed.max_access_shifts == inmem.max_access_shifts
        and parallel.per_dbc_shifts == inmem.per_dbc_shifts
        and parallel.max_access_shifts == inmem.max_access_shifts
    )

    table_rows = [
        (
            "throughput (accesses/s)",
            f"{inmem_rate:,.0f}",
            f"{stream_rate:,.0f}",
            f"{stream_rate / inmem_rate:.2f}x",
        ),
        (
            f"parallel scan ({PARALLEL_JOBS} workers)",
            f"{stream_rate:,.0f}",
            f"{parallel_rate:,.0f}",
            f"{parallel_rate / stream_rate:.2f}x",
        ),
        (
            "peak RSS delta (fresh process)",
            f"{materialize_delta / 2**20:.1f} MiB",
            f"{stream_delta / 2**20:.1f} MiB",
            f"{rss_ratio:.2f}x",
        ),
        (
            "pack + stitch",
            f"{pack_watch.seconds:.2f}s pack",
            f"{streamed.details['stitch_seconds'] * 1e3:.1f}ms stitch",
            "-",
        ),
    ]
    rendered = format_table(
        ("measurement", "in-memory / sequential", "streaming", "ratio"),
        table_rows,
        title=(
            f"Out-of-core streaming engine (E23, {NUM_ACCESSES:,} accesses, "
            f"{file_bytes / 2**20:.1f} MiB packed, {os.cpu_count()} CPU)"
        ),
    )
    data = {
        "num_items": NUM_ITEMS,
        "num_accesses": NUM_ACCESSES,
        "cpu_count": os.cpu_count(),
        "packed_file_bytes": file_bytes,
        "pack_seconds": pack_watch.seconds,
        "scan": {
            "inmem_accesses_per_sec": inmem_rate,
            "stream_accesses_per_sec": stream_rate,
            "stream_vs_inmem_throughput": stream_rate / inmem_rate,
            "timed_runs": TIMED_RUNS,
            "inmem_runs_accesses_per_sec": runs["inmem"],
            "stream_runs_accesses_per_sec": runs["stream"],
            "num_chunks": streamed.details["num_chunks"],
            "stitch_seconds": streamed.details["stitch_seconds"],
        },
        "parallel": {
            "jobs": PARALLEL_JOBS,
            "parallel_accesses_per_sec": parallel_rate,
            "parallel_vs_sequential_speedup": parallel_rate / stream_rate,
            "parallel_runs_accesses_per_sec": runs["parallel"],
        },
        "rss": {
            "stream_delta_bytes": stream_delta,
            "materialize_delta_bytes": materialize_delta,
            "stream_rss_ratio": rss_ratio,
            "watermark_reset": bool(rss["stream"]["watermark_reset"]),
            "rss_within_budget": bool(rss_ratio < RSS_BUDGET),
        },
        "results_identical": bool(results_identical),
    }
    return ExperimentOutput(
        "e23", "Out-of-core streaming engine benchmark", data, rendered
    )


def test_e23_streaming(benchmark, record_artifact, results_dir):
    output = benchmark.pedantic(run_e23, rounds=1, iterations=1)
    record_artifact(output)
    (results_dir / "BENCH_e23.json").write_text(
        json.dumps(output.data, indent=2) + "\n", encoding="utf-8"
    )
    assert output.data["results_identical"]
    scan = output.data["scan"]
    assert scan["stream_vs_inmem_throughput"] >= THROUGHPUT_FLOOR
    rss = output.data["rss"]
    if rss["watermark_reset"]:
        # Without the Linux watermark reset the deltas are masked by the
        # import transient and the budget cannot be judged.
        assert rss["rss_within_budget"], rss
