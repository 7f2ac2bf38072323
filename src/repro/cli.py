"""Command-line interface for the repro toolkit.

Subcommands mirror the library workflow:

* ``repro trace generate`` — produce a trace from a benchmark kernel or a
  synthetic generator and write it to ``.jsonl``/``.trc``.
* ``repro trace info`` — print the statistics row (the E1 columns) of a
  trace file.
* ``repro trace pack`` — convert a text trace to the memory-mapped binary
  format (``.rtb``) consumed by the out-of-core streaming engine.
* ``repro place`` — optimize a placement for a trace file and emit it as
  JSON (consumable by an SPM allocator / linker script).
* ``repro simulate`` — run a trace against a placement on the device model
  and print the shift/latency/energy report.
* ``repro experiments`` — regenerate evaluation artifacts (E1–E14).
* ``repro cache`` — inspect or clear the persistent placement-result cache.
* ``repro bench`` — normalize benchmark artifacts into run manifests and
  diff two of them with the regression gate (``repro bench compare``).
* ``repro obs`` — dump the live observability state (metric snapshot,
  span trees) or pretty-print a saved run manifest.

All geometry flags default to the library defaults (64-word DBCs, one
centred port, lazy shifting).  The heavy subcommands (``experiments``,
``dse``) accept ``--jobs N`` to fan work out over a process pool (also via
the ``REPRO_JOBS`` env var) and use the persistent result cache by default
(``--no-cache`` to disable, ``--cache-dir`` / ``REPRO_CACHE_DIR`` to
relocate it).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from repro.analysis.cache import ResultCache, cache_scope
from repro.util import atomic_write_text
from repro.analysis.experiments import EXPERIMENTS, run_experiments
from repro.analysis.report import format_table
from repro.core.api import ALGORITHMS, optimize_placement
from repro.core.placement import Placement, Slot
from repro.dwm.config import DWMConfig
from repro.dwm.energy import DWMEnergyModel
from repro.errors import ReproError
from repro.memory.spm import ScratchpadMemory
from repro.trace import io as trace_io
from repro.trace.kernels import KERNELS
from repro.trace.stats import compute_stats, shift_locality_score
from repro.trace.synthetic import GENERATORS


def _config_from_args(args, num_items: int) -> DWMConfig:
    """Build the array geometry requested on the command line."""
    if args.num_dbcs is not None:
        return DWMConfig.with_uniform_ports(
            words_per_dbc=args.words_per_dbc,
            num_dbcs=args.num_dbcs,
            num_ports=args.ports,
            port_policy=args.policy,
        )
    return DWMConfig.for_items(
        num_items,
        words_per_dbc=args.words_per_dbc,
        num_ports=args.ports,
        port_policy=args.policy,
    )


def _add_perf_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the heavy subcommands (experiments, dse)."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_JOBS env var, else serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent placement-result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: REPRO_CACHE_DIR or ~/.cache/repro-dwm)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any single task exceeding this wall-clock budget",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry attempts per failed/timed-out task (default: 0)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="journal completed tasks to FILE (JSONL) as they finish",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore completed tasks from --checkpoint instead of rerunning",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a run manifest (metric snapshot + span trees) to PATH",
    )


def _journal_from_args(args):
    """Open the checkpoint journal requested by --checkpoint/--resume."""
    from repro.analysis.checkpoint import CheckpointJournal

    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint FILE")
    if not args.checkpoint:
        return None
    journal = CheckpointJournal(args.checkpoint, resume=args.resume)
    if args.resume and journal.restored:
        print(
            f"resuming from {args.checkpoint}: "
            f"{journal.restored} completed task(s) restored"
            + (f", {journal.corrupt_lines} corrupt line(s) skipped"
               if journal.corrupt_lines else ""),
            file=sys.stderr,
        )
    return journal


def _write_metrics_manifest(args, kind: str, run_id: str) -> None:
    """Honour ``--metrics-out``: persist the run's observability snapshot."""
    if not getattr(args, "metrics_out", None):
        return
    import time

    from repro.obs import collect_manifest, write_manifest

    manifest = collect_manifest(kind, run_id, created_unix=time.time())
    write_manifest(manifest, args.metrics_out)
    print(f"wrote metrics manifest to {args.metrics_out}", file=sys.stderr)


def _report_failures(outputs, label: str) -> int:
    """Print any TaskFailure slots; returns how many there were."""
    from repro.analysis.parallel import TaskFailure

    failures = [o for o in outputs if isinstance(o, TaskFailure)]
    for failure in failures:
        print(
            f"error: {label} task #{failure.index} failed "
            f"({failure.kind} after {failure.attempts} attempt(s)): "
            f"{failure.error}",
            file=sys.stderr,
        )
    return len(failures)


def _add_geometry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--words-per-dbc", type=int, default=64, metavar="L",
        help="words per domain block cluster (default: 64)",
    )
    parser.add_argument(
        "--ports", type=int, default=1, metavar="P",
        help="access ports per DBC, evenly spaced (default: 1)",
    )
    parser.add_argument(
        "--num-dbcs", type=int, default=None, metavar="N",
        help="DBC count (default: smallest that fits the trace)",
    )
    parser.add_argument(
        "--policy", choices=("lazy", "eager"), default="lazy",
        help="shift policy between accesses (default: lazy)",
    )


def _load_trace_arg(path: str | Path):
    """Load a trace file of any supported format.

    ``.rtb`` opens as an out-of-core :class:`repro.trace.binio.StreamingTrace`
    (nothing materialised); ``.jsonl``/``.trc`` load in memory.
    """
    from repro.trace import binio

    if Path(path).suffix == binio.BINARY_SUFFIX:
        return binio.open_binary(path)
    return trace_io.load(path)


# ---------------------------------------------------------------------------
# trace generate / trace info / trace pack
# ---------------------------------------------------------------------------

def cmd_trace_generate(args) -> int:
    source = args.source
    if source in KERNELS:
        trace = KERNELS[source](seed=args.seed) if args.seed is not None else KERNELS[source]()
    elif source in GENERATORS:
        if source in ("loop_nest", "pingpong", "stencil"):
            trace = GENERATORS[source](seed=args.seed or 0)
        else:
            trace = GENERATORS[source](
                args.items, args.accesses, seed=args.seed or 0
            )
    else:
        known = sorted(KERNELS) + sorted(GENERATORS)
        print(f"error: unknown source {source!r}; choose from: {', '.join(known)}",
              file=sys.stderr)
        return 2
    # Kernel metadata may hold non-serialisable results; IO drops those.
    trace_io.save(trace, args.output)
    print(f"wrote {len(trace)} accesses ({trace.num_items} items) to {args.output}")
    return 0


def cmd_trace_pack(args) -> int:
    """Convert a text trace into the binary streaming format."""
    from repro.trace import binio

    header = trace_io.peek_header(args.trace)
    count = binio.pack(
        trace_io.iter_accesses(args.trace),
        args.output,
        name=args.name or header["name"],
        metadata=header["metadata"],
    )
    size = Path(args.output).stat().st_size
    print(
        f"packed {count} accesses into {args.output} "
        f"({size / 1024:.1f} KiB, {4} bytes/access + header/meta)"
    )
    return 0


def cmd_trace_info(args) -> int:
    trace = _load_trace_arg(args.trace)
    from repro.trace.binio import StreamingTrace

    if isinstance(trace, StreamingTrace):
        # Header/meta only plus one bounded-memory pass for the R/W split;
        # the affinity statistics would materialise the trace.
        reads, writes = trace.read_write_counts()
        total = len(trace)
        rows = [
            ("name", trace.name),
            ("accesses", total),
            ("items", trace.num_items),
            ("reads", reads),
            ("writes", writes),
            ("write fraction", f"{writes / total:.3f}" if total else "n/a"),
            ("fingerprint", trace.fingerprint()[:16] + "…"),
            ("file size (KiB)", f"{trace.path.stat().st_size / 1024:.1f}"),
        ]
        print(
            format_table(
                ("metric", "value"), rows, title=f"binary trace {args.trace}"
            )
        )
        return 0
    stats = compute_stats(trace)
    rows = [
        ("name", stats.name),
        ("accesses", stats.num_accesses),
        ("items", stats.num_items),
        ("reads", stats.reads),
        ("writes", stats.writes),
        ("write fraction", f"{stats.write_fraction:.3f}"),
        ("mean reuse distance", f"{stats.mean_reuse_distance:.2f}"),
        ("unique affinity pairs", stats.unique_pairs),
        ("hottest item", f"{stats.top_item} ({stats.max_item_frequency})"),
        ("locality score", f"{shift_locality_score(trace):.3f}"),
    ]
    print(format_table(("metric", "value"), rows, title=f"trace {args.trace}"))
    return 0


# ---------------------------------------------------------------------------
# place
# ---------------------------------------------------------------------------

def cmd_place(args) -> int:
    trace = _load_trace_arg(args.trace)
    config = _config_from_args(args, trace.num_items)
    if args.export_ilp:
        from repro.core.ilp import minla_lp_text
        from repro.trace.stats import affinity_graph
        from repro.trace.binio import StreamingTrace

        if isinstance(trace, StreamingTrace):
            raise ReproError(
                "--export-ilp needs an in-memory trace; pass the original "
                ".jsonl/.trc file (the affinity graph materialises every "
                "access)"
            )

        text, num_vars, num_constraints = minla_lp_text(
            list(trace.items), affinity_graph(trace)
        )
        atomic_write_text(args.export_ilp, text)
        print(f"wrote ILP ({num_vars} vars, "
              f"{num_constraints} constraints) to {args.export_ilp}",
              file=sys.stderr)
    result = optimize_placement(trace, config, method=args.method)
    baseline = optimize_placement(trace, config, method="declaration")
    payload = {
        "trace": trace.name,
        "method": args.method,
        "config": {
            "words_per_dbc": config.words_per_dbc,
            "num_dbcs": config.num_dbcs,
            "port_offsets": list(config.port_offsets),
            "port_policy": config.port_policy.value,
        },
        "total_shifts": result.total_shifts,
        "baseline_shifts": baseline.total_shifts,
        "placement": {
            item: {"dbc": slot.dbc, "offset": slot.offset}
            for item, slot in sorted(result.placement.items())
        },
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        atomic_write_text(args.output, text + "\n")
        print(f"wrote placement to {args.output}")
    else:
        print(text)
    reduction = (
        100.0 * (baseline.total_shifts - result.total_shifts)
        / baseline.total_shifts
        if baseline.total_shifts
        else 0.0
    )
    print(
        f"# {args.method}: {result.total_shifts} shifts "
        f"({reduction:+.1f}% vs declaration), "
        f"{result.runtime_seconds * 1e3:.1f} ms",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def load_placement_json(path: str | Path) -> tuple[Placement, DWMConfig]:
    """Read a placement JSON produced by ``repro place``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    config_dict = payload["config"]
    config = DWMConfig(
        words_per_dbc=config_dict["words_per_dbc"],
        num_dbcs=config_dict["num_dbcs"],
        port_offsets=tuple(config_dict["port_offsets"]),
        port_policy=config_dict.get("port_policy", "lazy"),
    )
    placement = Placement(
        {
            item: Slot(slot["dbc"], slot["offset"])
            for item, slot in payload["placement"].items()
        }
    )
    return placement, config


def cmd_simulate(args) -> int:
    trace = _load_trace_arg(args.trace)
    placement, config = load_placement_json(args.placement)
    spm = ScratchpadMemory(config, placement)
    sim = spm.simulate(
        trace,
        engine=args.engine,
        chunk_size=args.chunk_size,
        jobs=args.jobs,
    )
    breakdown = sim.energy(DWMEnergyModel())
    rows = [
        ("config", config.describe()),
        ("engine", sim.details.get("engine", args.engine)),
        ("accesses", sim.accesses),
        ("shifts", sim.shifts),
        ("shifts/access", f"{sim.shifts_per_access:.3f}"),
        ("max shifts in one access", sim.max_access_shifts),
        ("latency (ns)", f"{breakdown.latency_ns:.1f}"),
        ("shift latency share", f"{breakdown.shift_latency_share:.1%}"),
        ("dynamic energy (pJ)", f"{breakdown.dynamic_energy_pj:.1f}"),
        ("total energy (pJ)", f"{breakdown.total_energy_pj:.1f}"),
    ]
    print(format_table(("metric", "value"), rows,
                       title=f"simulation of {trace.name}"))
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def cmd_experiments(args) -> int:
    targets = args.ids or ["all"]
    if targets == ["all"]:
        targets = list(EXPERIMENTS)
    sections: list[str] = []
    journal = _journal_from_args(args)
    try:
        with cache_scope(enabled=not args.no_cache, root=args.cache_dir):
            outputs = run_experiments(
                targets,
                jobs=args.jobs,
                timeout=args.task_timeout,
                retries=args.retries,
                checkpoint=journal,
            )
    finally:
        if journal is not None:
            journal.close()
    failed = _report_failures(outputs, "experiment")
    from repro.analysis.parallel import TaskFailure

    outputs = [o for o in outputs if not isinstance(o, TaskFailure)]
    for index, output in enumerate(outputs):
        # A blank line separates sections; the last ends with the table, so
        # a one-experiment run prints exactly what results/<id>.txt holds.
        if index:
            print()
        print(output.rendered)
        sections.append(
            f"## {output.experiment_id.upper()} — {output.title}\n\n"
            f"```\n{output.rendered}\n```\n"
        )
    if args.output:
        report = (
            "# repro — experiment report\n\n"
            "Regenerated by `repro experiments`.\n\n" + "\n".join(sections)
        )
        atomic_write_text(args.output, report)
        print(f"wrote report to {args.output}", file=sys.stderr)
    _write_metrics_manifest(args, "experiments", ",".join(targets))
    return 1 if failed else 0


def cmd_dse(args) -> int:
    """Design-space exploration with Pareto filtering."""
    from repro.analysis.dse import explore, knee_point, pareto_front, render_front

    trace = trace_io.load(args.trace)
    lengths = [int(v) for v in args.lengths.split(",")]
    ports = [int(v) for v in args.port_counts.split(",")]
    journal = _journal_from_args(args)
    try:
        with cache_scope(enabled=not args.no_cache, root=args.cache_dir):
            points = explore(
                trace, lengths=lengths, ports=ports, method=args.method,
                jobs=args.jobs,
                timeout=args.task_timeout,
                retries=args.retries,
                checkpoint=journal,
            )
    finally:
        if journal is not None:
            journal.close()
    failed = _report_failures(points, "design point")
    from repro.analysis.parallel import TaskFailure

    points = [p for p in points if not isinstance(p, TaskFailure)]
    if not points:
        print("error: every design point failed", file=sys.stderr)
        return 1
    front = pareto_front(points)
    print(render_front(points, front))
    print(f"\nbalanced (knee) design: {knee_point(front).label}")
    _write_metrics_manifest(args, "dse", trace.name)
    return 1 if failed else 0


def cmd_cache(args) -> int:
    """Inspect or clear the persistent placement-result cache."""
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    entries = len(cache)
    rows = [
        ("location", str(cache.root)),
        ("entries", entries),
        ("corrupt (quarantined)", cache.corrupt_count()),
        ("size (KiB)", f"{cache.size_bytes() / 1024:.1f}"),
    ]
    print(format_table(("field", "value"), rows, title="placement-result cache"))
    return 0


def cmd_bench(args) -> int:
    """Normalize benchmark artifacts / run the regression comparison gate."""
    from repro.analysis.benchref import compare_files, normalize, source_from_path

    if args.bench_command == "normalize":
        try:
            payload = json.loads(Path(args.file).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ReproError(f"{args.file}: not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ReproError(f"{args.file}: expected a JSON object")
        if payload.get("manifest"):
            raise ReproError(f"{args.file}: already a run manifest")
        source = args.source or source_from_path(args.file)
        manifest = normalize(payload, source)
        text = manifest.to_json()
        if args.output:
            atomic_write_text(args.output, text + "\n")
            print(f"wrote manifest ({len(manifest.metrics)} metrics) "
                  f"to {args.output}", file=sys.stderr)
        else:
            print(text)
        return 0
    # compare
    overrides = {}
    for override in args.set or []:
        pattern, _, value = override.partition("=")
        if not pattern or not value:
            raise ReproError(
                f"--set expects METRIC_GLOB=PERCENT, got {override!r}"
            )
        try:
            overrides[pattern] = float(value) / 100.0
        except ValueError:
            raise ReproError(f"--set tolerance {value!r} is not a number")
    report = compare_files(
        args.baseline,
        args.candidate,
        default_tolerance=args.tolerance / 100.0,
        tolerances=overrides or None,
    )
    if args.json:
        print(json.dumps(
            {
                "baseline": args.baseline,
                "candidate": args.candidate,
                "ok": report.ok,
                "notes": report.notes,
                "regressions": [d.name for d in report.regressions],
                "deltas": [
                    {
                        "name": d.name,
                        "baseline": d.baseline,
                        "candidate": d.candidate,
                        "relative_change": d.relative_change,
                        "direction": d.direction,
                        "status": d.status,
                    }
                    for d in report.deltas
                ],
            },
            indent=2,
        ))
    else:
        print(report.render())
    if not report.ok:
        print(
            f"error: {len(report.regressions)} metric regression(s) vs "
            f"{args.baseline}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_obs(args) -> int:
    """Dump the live observability state or pretty-print a manifest file."""
    from repro.obs import (
        collect_manifest,
        get_tracer,
        read_manifest,
        render_spans,
    )

    if args.manifest:
        manifest = read_manifest(args.manifest)
        title = f"manifest {args.manifest}"
    else:
        manifest = collect_manifest("obs-dump", "live")
        title = "live observability snapshot"
    if args.json:
        print(manifest.to_json())
        return 0
    rows = [
        ("kind", manifest.kind),
        ("run id", manifest.run_id),
        ("schema version", manifest.schema_version),
        ("package version", manifest.package_version),
        ("git sha", manifest.git_sha),
        ("python", manifest.python_version),
        ("platform", manifest.platform),
        ("metrics", len(manifest.metrics)),
        ("spans", len(manifest.spans)),
    ]
    print(format_table(("field", "value"), rows, title=title))
    for name in sorted(manifest.metrics):
        print(f"  {name} = {manifest.metrics[name]}")
    if not args.manifest:
        spans = get_tracer().roots()
        if spans:
            print("\nspan trees:")
            print(render_spans(spans))
    return 0


def cmd_fuzz(args) -> int:
    """Run the differential conformance fuzzer across all cost engines."""
    from repro.obs import get_registry
    from repro.verify import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        budget_seconds=args.budget_seconds,
        out=args.out,
        shrink=not args.no_shrink,
        brute_force_limit=args.brute_force_limit,
        progress=lambda message: print(f"  {message}"),
    )
    registry = get_registry()
    rows = [
        ("seed", report.seed),
        ("cases run", f"{report.cases_run}/{report.cases_requested}"),
        ("elapsed (s)", f"{report.elapsed_seconds:.1f}"),
        ("findings", len(report.findings)),
        ("cases/s", f"{report.cases_run / report.elapsed_seconds:.1f}"
         if report.elapsed_seconds else "n/a"),
        ("budget hit", "yes" if report.stopped_on_budget else "no"),
    ]
    print(format_table(("field", "value"), rows, title="conformance fuzz sweep"))
    if report.findings:
        print("\nviolations:")
        for finding in report.findings:
            print(f"  case {finding.index}: {', '.join(finding.kinds)}")
            print(f"    original: {finding.case.describe()}")
            print(f"    shrunk:   {finding.shrunk.describe()}")
        if report.artifact_paths:
            print("\nartifacts (JSON repro + regression snippet):")
            for path in report.artifact_paths:
                print(f"  {path}")
        print(
            "\npaste the artifact's `regression_test` into tests/ to pin "
            "the repro."
        )
        return 1
    checked = int(registry.counter_value("fuzz.cases"))
    print(f"\nall invariants held across {checked} case(s)")
    return 0


def cmd_kernels(args) -> int:
    """Report which compiled lazy-cost kernel backend is active and why."""
    from repro.core import kernels

    info = kernels.describe()
    if getattr(args, "json", False):
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    rows = [(key, str(value)) for key, value in sorted(info.items())]
    print(format_table(("field", "value"), rows, title="lazy-cost kernel backend"))
    return 0


def cmd_fsck(args) -> int:
    """Verify (and optionally repair) on-disk artifacts.

    Handles the three artifact families the toolkit persists: binary
    traces (``.rtb``), placement-cache directories, and checkpoint
    journals.  Exit code 0 means every artifact is healthy (or was
    repaired); 1 means at least one needs ``--repair`` or is beyond
    salvage.
    """
    from repro.fsck import fsck_path

    reports = [fsck_path(path, repair=args.repair) for path in args.paths]
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2,
                         sort_keys=True))
    else:
        for report in reports:
            print(report.render())
        if any(r.status == "salvageable" for r in reports) and not args.repair:
            print("# rerun with --repair to salvage", file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


def cmd_chaos(args) -> int:
    """Chaos soak: randomized failpoint schedules over real workloads."""
    from repro.chaos.soak import run_soak

    def progress(message: str) -> None:
        print(message, file=sys.stderr)

    report = run_soak(
        seed=args.seed,
        schedules=args.schedules,
        workdir=args.workdir,
        out=args.out,
        progress=None if args.quiet else progress,
    )
    outcomes = ", ".join(
        f"{count} {name}" for name, count in sorted(report.outcome_counts().items())
    )
    repaired = sum(1 for entry in report.fsck if entry["ok"])
    print(
        f"chaos soak seed={report.seed}: {len(report.runs)} schedule(s) "
        f"({outcomes}); fsck repaired {repaired}/{len(report.fsck)} "
        f"artifact(s); {report.elapsed_seconds:.1f}s"
    )
    if report.degradations:
        for edge, count in sorted(report.degradations.items()):
            print(f"  degradation {edge}: {count}")
    if not report.ok:
        for run in report.runs:
            if not run.ok:
                print(
                    f"VIOLATION schedule {run.index}: {run.outcome} "
                    f"{run.error} leaks={run.leaks} spec={run.spec}",
                    file=sys.stderr,
                )
        for entry in report.fsck:
            if not entry["ok"]:
                print(
                    f"VIOLATION fsck {entry['artifact']}: {entry['status']} "
                    f"({entry['detail']})",
                    file=sys.stderr,
                )
        return 1
    return 0


def cmd_system(args) -> int:
    """Full-system comparison: all-DRAM vs SPM(oblivious) vs SPM(shift-aware)."""
    from repro.memory.hierarchy import system_comparison

    trace = trace_io.load(args.trace)
    capacity = max(
        args.words_per_dbc,
        int(trace.num_items * args.capacity_fraction),
    )
    num_dbcs = max(1, capacity // args.words_per_dbc)
    config = DWMConfig.with_uniform_ports(
        words_per_dbc=args.words_per_dbc,
        num_dbcs=num_dbcs,
        num_ports=args.ports,
    )
    results = system_comparison(trace, config)
    baseline = results["all_dram"]
    rows = [
        (
            label,
            result.total_cycles,
            f"{result.cycles_per_access:.2f}",
            f"{baseline.total_cycles / result.total_cycles:.2f}x",
            result.spm_accesses,
        )
        for label, result in results.items()
    ]
    print(
        format_table(
            ("configuration", "cycles", "cycles/access", "speedup", "SPM hits"),
            rows,
            title=(
                f"system study of {trace.name} "
                f"(SPM = {config.capacity_words} words)"
            ),
        )
    )
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived placement/simulation service (docs/SERVING.md)."""
    import threading

    from repro.serve.server import PlacementServer, announce_payload

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    server = PlacementServer(
        cache=cache,
        host=args.host,
        port=args.port,
        pool_workers=args.pool_workers,
        rate=args.rate,
        burst=args.burst,
        max_queue=args.max_queue,
        spool_dir=args.spool_dir,
        log_path=args.log,
    )

    def _announce() -> None:
        try:
            server.wait_until_listening(timeout=30.0)
        except TimeoutError:  # pragma: no cover - startup failure path
            return
        # One machine-readable line so wrappers learn the bound port
        # (required when --port 0 asks the OS to pick a free one).
        print(json.dumps(announce_payload(server)), flush=True)

    threading.Thread(target=_announce, daemon=True).start()
    # Blocks until /v1/shutdown or a signal.  SIGTERM arrives here as
    # KeyboardInterrupt (handler installed in main()); the server tears
    # down pools first, then main()'s interrupt path re-runs the same
    # idempotent cleanup and exits 130.
    server.run()
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DWM shift-minimizing data placement toolkit (DAC'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_parser = sub.add_parser("trace", help="generate or inspect traces")
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    generate = trace_sub.add_parser("generate", help="produce a trace file")
    generate.add_argument("source", help="kernel or generator name")
    generate.add_argument("-o", "--output", required=True,
                          help="output path (.jsonl or .trc)")
    generate.add_argument("--items", type=int, default=32,
                          help="items for synthetic generators (default: 32)")
    generate.add_argument("--accesses", type=int, default=1000,
                          help="accesses for synthetic generators (default: 1000)")
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(func=cmd_trace_generate)

    info = trace_sub.add_parser("info", help="print trace statistics")
    info.add_argument("trace", help="trace file (.jsonl, .trc or .rtb)")
    info.set_defaults(func=cmd_trace_info)

    pack = trace_sub.add_parser(
        "pack",
        help="convert a text trace to the mmap binary format (.rtb) "
             "for out-of-core streaming simulation",
    )
    pack.add_argument("trace", help="input trace file (.jsonl or .trc)")
    pack.add_argument("output", help="output path (conventionally .rtb)")
    pack.add_argument("--name", default=None,
                      help="override the trace name recorded in the file")
    pack.set_defaults(func=cmd_trace_pack)

    place = sub.add_parser("place", help="optimize a placement for a trace")
    place.add_argument("trace",
                       help="trace file (.jsonl, .trc or .rtb; binary traces "
                            "are placed from a bounded-size sample)")
    place.add_argument("--method", default="heuristic",
                       choices=sorted(ALGORITHMS),
                       help="placement algorithm (default: heuristic)")
    place.add_argument("-o", "--output", default=None,
                       help="write placement JSON here (default: stdout)")
    place.add_argument("--export-ilp", default=None, metavar="FILE",
                       help="also export the single-DBC ILP in .lp format")
    _add_geometry_flags(place)
    place.set_defaults(func=cmd_place)

    simulate = sub.add_parser("simulate", help="simulate a trace on a placement")
    simulate.add_argument("trace", help="trace file (.jsonl, .trc or .rtb)")
    simulate.add_argument("placement", help="placement JSON from 'repro place'")
    simulate.add_argument(
        "--engine", default="auto",
        choices=("auto", "scalar", "vectorized", "streaming"),
        help="simulation engine (default: auto; .rtb traces stream)",
    )
    simulate.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="streaming window length in accesses "
             "(default: 262144; streaming engine only)",
    )
    simulate.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="scan streaming chunks in parallel on N pool workers",
    )
    simulate.set_defaults(func=cmd_simulate)

    experiments = sub.add_parser("experiments", help="regenerate evaluation artifacts")
    experiments.add_argument("ids", nargs="*",
                             help="experiment ids (e1..e21) or 'all'")
    experiments.add_argument("-o", "--output", default=None, metavar="FILE",
                             help="also write a markdown report")
    _add_perf_flags(experiments)
    experiments.set_defaults(func=cmd_experiments)

    dse = sub.add_parser(
        "dse", help="design-space exploration with Pareto filtering"
    )
    dse.add_argument("trace", help="trace file (.jsonl or .trc)")
    dse.add_argument("--lengths", default="16,32,64",
                     help="comma-separated DBC lengths (default: 16,32,64)")
    dse.add_argument("--port-counts", default="1,2,4",
                     help="comma-separated port counts (default: 1,2,4)")
    dse.add_argument("--method", default="heuristic",
                     choices=sorted(ALGORITHMS))
    _add_perf_flags(dse)
    dse.set_defaults(func=cmd_dse)

    cache = sub.add_parser(
        "cache", help="inspect or clear the placement-result cache"
    )
    cache.add_argument("cache_command", choices=("info", "clear"),
                       help="'info' prints location/size; 'clear' empties it")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: REPRO_CACHE_DIR "
                            "or ~/.cache/repro-dwm)")
    cache.set_defaults(func=cmd_cache)

    bench = sub.add_parser(
        "bench", help="normalize/compare benchmark artifacts (regression gate)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_normalize = bench_sub.add_parser(
        "normalize", help="convert a raw BENCH_*.json into a run manifest"
    )
    bench_normalize.add_argument("file", help="raw benchmark JSON artifact")
    bench_normalize.add_argument("-o", "--output", default=None,
                                 help="manifest path (default: stdout)")
    bench_normalize.add_argument("--source", default=None, metavar="ID",
                                 help="run id (default: from the filename)")
    bench_normalize.set_defaults(func=cmd_bench)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="diff two benchmark artifacts; non-zero exit on regression",
    )
    bench_compare.add_argument("baseline",
                               help="baseline manifest or raw BENCH_*.json")
    bench_compare.add_argument("candidate",
                               help="candidate manifest or raw BENCH_*.json")
    bench_compare.add_argument(
        "--tolerance", type=float, default=10.0, metavar="PCT",
        help="relative tolerance (percent) for direction-gated metrics "
             "(default: 10; exactness metrics are always gated at 0)",
    )
    bench_compare.add_argument(
        "--set", action="append", default=None, metavar="GLOB=PCT",
        help="per-metric tolerance override (repeatable), e.g. "
             "--set 'cache.*_seconds=50'",
    )
    bench_compare.add_argument("--json", action="store_true",
                               help="emit the comparison as JSON")
    bench_compare.set_defaults(func=cmd_bench)

    obs = sub.add_parser(
        "obs", help="dump observability state or inspect a run manifest"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_dump = obs_sub.add_parser(
        "dump", help="print the metric snapshot / span trees / manifest"
    )
    obs_dump.add_argument("manifest", nargs="?", default=None,
                          help="manifest file (default: live process state)")
    obs_dump.add_argument("--json", action="store_true",
                          help="emit the manifest JSON instead of a table")
    obs_dump.set_defaults(func=cmd_obs)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzer across the cost engines",
    )
    fuzz.add_argument("--seed", type=int, default=2015,
                      help="sweep seed; every case derives from it")
    fuzz.add_argument("--cases", type=int, default=200,
                      help="number of random cases to generate")
    fuzz.add_argument("--budget-seconds", type=float, default=None,
                      help="stop early after this much wall-clock time")
    fuzz.add_argument("--out", default=None, metavar="DIR",
                      help="directory for JSON repro artifacts")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report findings without minimizing them")
    fuzz.add_argument("--brute-force-limit", type=int, default=2000,
                      help="max injective assignments for the tiny-instance "
                           "optimum oracle")
    fuzz.set_defaults(func=cmd_fuzz)

    kernels = sub.add_parser(
        "kernels",
        help="show the active compiled lazy-cost kernel backend",
    )
    kernels.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
    kernels.set_defaults(func=cmd_kernels)

    system = sub.add_parser(
        "system", help="full-system study: all-DRAM vs SPM configurations"
    )
    system.add_argument("trace", help="trace file (.jsonl or .trc)")
    system.add_argument("--capacity-fraction", type=float, default=0.6,
                        help="SPM capacity as a fraction of the working set")
    system.add_argument("--words-per-dbc", type=int, default=16, metavar="L")
    system.add_argument("--ports", type=int, default=1, metavar="P")
    system.set_defaults(func=cmd_system)

    fsck = sub.add_parser(
        "fsck",
        help="verify/repair binary traces, cache dirs and checkpoint "
             "journals",
    )
    fsck.add_argument("paths", nargs="+", metavar="PATH",
                      help=".rtb file, cache directory, or journal file")
    fsck.add_argument("--repair", action="store_true",
                      help="salvage what the artifact still holds (torn "
                           "tails truncated, corrupt cache shards "
                           "quarantined, readable trace prefixes re-packed)")
    fsck.add_argument("--json", action="store_true",
                      help="emit machine-readable reports")
    fsck.set_defaults(func=cmd_fsck)

    chaos = sub.add_parser(
        "chaos", help="fault-injection tooling (see docs/CHAOS.md)"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    soak = chaos_sub.add_parser(
        "soak",
        help="run workloads under randomized failpoint schedules and "
             "assert byte-identical results or typed clean aborts",
    )
    soak.add_argument("--seed", type=int, default=2015,
                      help="soak seed; every schedule derives from it")
    soak.add_argument("--schedules", type=int, default=25,
                      help="number of random failpoint schedules")
    soak.add_argument("--workdir", default=None, metavar="DIR",
                      help="keep run artifacts here (default: temp dir, "
                           "removed afterwards)")
    soak.add_argument("--out", default=None, metavar="FILE",
                      help="write the JSON soak report here")
    soak.add_argument("--quiet", action="store_true",
                      help="suppress per-schedule progress lines")
    soak.set_defaults(func=cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived placement/simulation HTTP service "
             "(see docs/SERVING.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks a free one and announces "
                            "it on stdout (default: 0)")
    serve.add_argument("--pool-workers", type=int, default=0, metavar="N",
                       help="persistent worker-pool size for optimize jobs "
                            "(default: 0 = compute in-process)")
    serve.add_argument("--rate", type=float, default=None, metavar="R",
                       help="admission token-bucket rate, requests/second "
                            "(default: unlimited)")
    serve.add_argument("--burst", type=float, default=None, metavar="B",
                       help="token-bucket burst capacity (default: == rate)")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="admitted-but-unfinished request bound; beyond "
                            "it requests shed with typed 503s (default: 64)")
    serve.add_argument("--spool-dir", default=None, metavar="DIR",
                       help="directory for uploaded .rtb traces "
                            "(default: a temp dir, removed on shutdown)")
    serve.add_argument("--log", default=None, metavar="FILE",
                       help="append JSONL server events to FILE")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the content-keyed result cache")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: REPRO_CACHE_DIR or "
                            "~/.cache/repro-dwm)")
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro import robust
    from repro.chaos import ensure_installed_from_env

    # SIGTERM lands in the KeyboardInterrupt handler below, so a `kill`
    # (or a batch-scheduler timeout) gets the same journal-flush/pool
    # teardown as Ctrl-C.  REPRO_CHAOS activates the failpoint plan for
    # this process and every pool worker it spawns.
    previous_sigterm = robust.install_sigterm_handler()
    try:
        ensure_installed_from_env()
        return args.func(args)
    except KeyboardInterrupt:
        # Flush any open checkpoint journals so an interrupted sweep can be
        # resumed with --resume, tear down the worker pools, then exit with
        # the conventional SIGINT code.
        from repro.analysis.checkpoint import flush_active_journals
        from repro.analysis.pool import shutdown_pools

        flushed = flush_active_journals()
        shutdown_pools()
        if flushed:
            print(
                f"interrupted: flushed {flushed} checkpoint journal(s)",
                file=sys.stderr,
            )
        else:
            print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream reader (e.g. ``| head``) closed early — not an error.
        # Detach stdout so the interpreter's shutdown flush can't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        # Covers FileNotFoundError as before, plus environmental failures
        # like ENOSPC (disk full): a typed one-line abort, not a traceback.
        # Atomic writes guarantee no partial artifact survives the failure.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if previous_sigterm is not None:
            # An in-process caller keeps its own handler.  Fork-pool workers
            # it starts later would otherwise inherit ours, and one that
            # gets Pool.terminate()'s SIGTERM just before it blocks on the
            # task-queue lock never runs the handler and never exits.
            signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
