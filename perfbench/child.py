"""One workload run in a fresh process (started by ``perfbench/run.py``).

Modes:

``setup``
    set up the workload, run its warm-up ops, report ``setup_s`` and exit;
``measure``
    set up, warm up, run the timed schedule untraced and report the
    end-to-end figures;
``traced``
    the same schedule with span wrappers installed; also reports the
    per-layer metrics and writes the per-op span tree as JSON.

``setup_s`` runs from ``--t0`` (``time.monotonic()`` read by the parent
just before it started this process) to the first timed op.  Like every
latency it is divided by the host slowdown the reference loop measured
around it (``workloads.host_slowdown``).  The last stdout line is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def harrell_davis(sorted_values: list[float], q: float) -> float:
    """Harrell–Davis estimate of the ``q`` quantile of an ascending list.

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights, so the estimate does not jump between two neighbouring ops
    the way one order statistic of ~100 ops does.  Order statistics whose
    weight is negligible are left out, so a failed op (``inf``) far from
    the quantile does not swamp it; one near it makes the result ``inf``.
    """
    import numpy as np

    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1], left=0.0, right=1.0)
    weights = np.diff(cdf)
    return sum(
        weight * value
        for weight, value in zip(weights, sorted_values)
        if weight > 1e-9
    )


def summarize(workload, records, warmup, wall: float) -> dict:
    """End-to-end figures of one timed loop."""
    # A failed op counts as slower than every latency limit.
    latencies = sorted(
        record.latency if record.ok else math.inf for record in records
    )
    done = sum(record.ok for record in records)
    p50 = harrell_davis(latencies, 0.5)
    p90 = harrell_davis(latencies, 0.9)
    by_class: dict[str, list[float]] = {cls: [] for cls in workload.classes()}
    for record in records:
        by_class.setdefault(record.op.cls, []).append(
            record.latency if record.ok else math.inf
        )
    counts = {cls: len(values) for cls, values in by_class.items()}
    class_p50_ms = {
        cls: round(1e3 * percentile(sorted(values), 0.5), 3)
        for cls, values in by_class.items()
        if values
    }
    lates = sorted(record.late for record in records)
    errors = [
        f"{record.op.cls}: {record.error}"
        for record in list(warmup) + list(records)
        if not record.ok
    ]
    return {
        "attempted": len(records) + len(warmup),
        "failed": len(errors),
        "errors": errors[:5],
        "ops_per_s": done / wall,
        "p50_ms": 1e3 * p50 if math.isfinite(p50) else 1e12,
        "p90_ms": 1e3 * p90 if math.isfinite(p90) else 1e12,
        "samples": len(latencies),
        "beyond_p90": len(latencies) - math.ceil(0.9 * len(latencies)),
        "class_counts": counts,
        "class_p50_ms": class_p50_ms,
        "peak_rss_mb": workload.peak_rss_mb(),
        "shifts_per_access": workload.shifts_per_access(records, warmup),
        "late_p90_ms": 1e3 * percentile(lates, 0.9),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--mode", choices=("setup", "measure", "traced"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, fresh_workdir, host_slowdown, remove_workdir

    start_slowdown = host_slowdown()
    recorder = None
    kwargs = {}
    if args.mode == "traced":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        if args.workload == "serve":
            kwargs["traced_server"] = True
    workdir = fresh_workdir(Path.cwd() / ".perfbench")
    workload = WORKLOADS[args.workload](
        args.seed, args.scale, workdir, recorder=recorder, **kwargs
    )
    try:
        workload.setup()
        ops = workload.schedule(args.seconds)
        warmup = workload.run_warmup()
        setup_s = time.monotonic() - args.t0
        setup_s /= (start_slowdown + host_slowdown()) / 2
        from repro.core import kernels

        result = {"setup_s": setup_s, "backend": kernels.describe()["backend"]}
        if args.mode != "setup":
            records, wall = workload.run_timed(ops)
            if recorder is not None:
                recorder.active = False
            workload.verify(records, warmup)
            result.update(summarize(workload, records, warmup, wall))
            if recorder is not None:
                result["layers"] = {
                    **spans.layer_report(recorder.spans),
                    **workload.layer_extras(),
                }
                if args.workload == "serve":
                    client_s = sum(record.info["client_s"] for record in records)
                    result["layers"]["serve.transport_s"] = max(
                        0.0, client_s - result["layers"]["serve.server_s"]
                    )
                    # Client spans have no children; transport is the
                    # residual of client time over server time instead.
                    result["layers"]["unattributed_share"] = 0.0
                if args.spans_out:
                    Path(args.spans_out).write_text(
                        json.dumps(
                            {"workload": args.workload, "seed": args.seed,
                             "spans": len(recorder.spans),
                             "tree": spans.span_tree(recorder.spans)},
                        )
                    )
    finally:
        workload.close()
        remove_workdir(workdir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
