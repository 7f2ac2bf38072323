"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of
a traced replay of the same schedule (plus an untraced run for
``trace_overhead``).  Every run of a workload happens in fresh child
processes (``perfbench/child.py``) with ``PYTHONHASHSEED`` pinned, the
compiled-kernel cache in ``.perfbench/kernels`` warmed beforehand, and
``REPRO_OBS=0`` unless traced.  ``setup_s`` is the median over three
fresh processes.  Exits 2 without a result when the checkout holds no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
SETUP_RUNS = 3


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: Path, traced: bool) -> dict:
    env = dict(os.environ)
    state = root / ".perfbench"
    (state / "tmp").mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        REPRO_KERNEL_CACHE=str(state / "kernels"),
        TMPDIR=str(state / "tmp"),
    )
    if traced:
        env.pop("REPRO_OBS", None)
    else:
        env["REPRO_OBS"] = "0"
    return env


def run_child(root: Path, args, mode: str, spans_out: Path | None = None) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", args.scale,
        "--mode", mode,
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    env = child_env(root, traced=mode == "traced")
    t0 = time.monotonic()
    proc = subprocess.run(
        command + ["--t0", repr(t0)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} run exited {proc.returncode}")
    return json.loads(lines[-1])


def kernel_backend(root: Path) -> str:
    """Load (and on first use compile) the kernel backend; returns its name."""
    probe = (
        "import json; from repro.core import kernels; "
        "print(json.dumps(kernels.describe()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=root, env=child_env(root, False),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["backend"]


def metric_specs(trace: bool) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in group}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("suite", "large", "stream", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no src/repro under {root}; run from a repository checkout")
    try:
        backend = kernel_backend(root)
        if args.trace:
            runs = [run_child(root, args, "measure")]
            spans_out = root / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
            traced = run_child(root, args, "traced", spans_out)
            runs.append(traced)
        else:
            runs = [run_child(root, args, "setup") for _ in range(SETUP_RUNS - 1)]
            runs.append(run_child(root, args, "measure"))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))

    main_run = runs[-1]
    measured = [run for run in runs if "attempted" in run]
    attempted = sum(run["attempted"] for run in measured)
    failed = sum(run["failed"] for run in measured)
    mismatched = [run["backend"] for run in runs if run["backend"] != backend]
    if mismatched:
        print(f"# kernel backend {mismatched} differs from {backend}: run failed")
        failed = attempted
    for run in measured:
        for error in run["errors"]:
            print(f"# failed op: {error}")
    print(f"# kernel backend: {backend}")
    print(f"# op classes: {json.dumps(main_run['class_counts'])}")
    print(f"# class p50 ms: {json.dumps(main_run['class_p50_ms'])}")
    print(f"# latency samples: {main_run['samples']} "
          f"({main_run['beyond_p90']} beyond p90)")

    if args.trace:
        values = dict(main_run["layers"])
        values["loadgen.late_p90_ms"] = main_run["late_p90_ms"]
        values["trace_overhead"] = main_run["ops_per_s"] / runs[0]["ops_per_s"]
        print(f"# span tree: {spans_out.relative_to(root)}")
    else:
        values = {name: main_run[name] for name in
                  ("ops_per_s", "p50_ms", "p90_ms", "peak_rss_mb",
                   "shifts_per_access")}
        values["setup_s"] = statistics.median(run["setup_s"] for run in runs)
    units = metric_specs(bool(args.trace))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
