"""Chaos soak: randomized failpoint schedules over real workloads.

:func:`run_soak` is the executable form of the robustness claim in
``docs/CHAOS.md``: run representative workloads (a checkpointed parallel
sweep, a pack→streaming simulation, a cold/warm cached placement) under
many seeded random :class:`~repro.chaos.ChaosPlan` schedules and assert
that every run either

* produces results **byte-identical** to the failure-free baseline
  (faults absorbed by retries / degradation chains), or
* aborts with a **typed** error (:class:`~repro.errors.ReproError` or
  ``OSError`` family) — never a hang, an untyped crash, an orphan
  worker, or a stray ``*.tmp`` file.

A final phase tears artifacts on purpose (truncated ``.rtb`` records and
metadata, a torn checkpoint-journal tail, a corrupt cache shard) and
asserts ``repro fsck --repair`` brings every one back to a loadable
state.

Everything is derived from the soak seed, so ``repro chaos soak --seed
2015`` reproduces bit-for-bit anywhere.  On small containers the harness
temporarily widens :func:`repro.analysis.parallel._cpu_count` so the
pooled paths are actually exercised (the 1-CPU cap would otherwise
silently serialize every workload and the pool failpoints would
never fire).  Worker pinning reads the real affinity mask, not this cap,
so the widened pools are pinned only where there are CPUs to pin them to.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.chaos import ChaosPlan, chaos_scope
from repro.errors import InjectedFaultError, ReproError
from repro.util import TMP_SUFFIX

#: Per-schedule wall-clock bound; exceeding it counts as a hang (violation).
RUN_TIMEOUT_SECONDS = 120


class SoakHang(Exception):
    """A chaos run exceeded :data:`RUN_TIMEOUT_SECONDS` (deliberately not a
    :class:`ReproError`: a hang is a soak violation, not a clean abort)."""


@dataclass
class SoakRunResult:
    """Outcome of one chaos schedule."""

    index: int
    spec: str
    outcome: str  # identical | typed-abort | mismatch | untyped-error | hang
    error: str = ""
    fires: dict = field(default_factory=dict)
    leaks: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome in ("identical", "typed-abort") and not self.leaks

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SoakReport:
    """Outcome of a whole soak sweep."""

    seed: int
    schedules: int
    runs: list = field(default_factory=list)
    fsck: list = field(default_factory=list)
    degradations: dict = field(default_factory=dict)
    baseline_seconds: float = 0.0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            all(run.ok for run in self.runs)
            and all(entry["ok"] for entry in self.fsck)
            and len(self.runs) == self.schedules
        )

    def outcome_counts(self) -> dict:
        counts: dict[str, int] = {}
        for run in self.runs:
            counts[run.outcome] = counts.get(run.outcome, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "schedules": self.schedules,
            "ok": self.ok,
            "outcomes": self.outcome_counts(),
            "runs": [run.to_dict() for run in self.runs],
            "fsck": list(self.fsck),
            "degradations": dict(self.degradations),
            "baseline_seconds": round(self.baseline_seconds, 3),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


# --------------------------------------------------------------------------
# Workloads.  Each takes a fresh run directory and returns a JSON-able
# snapshot containing only chaos-invariant fields (no runtimes, cache hit
# counts, or engine labels — degradation may legally change those while
# producing identical results).


def _traces():
    from repro.trace.synthetic import pingpong_trace, zipf_trace

    return [
        zipf_trace(num_items=24, num_accesses=1200, seed=3),
        pingpong_trace(num_pairs=8, rounds=50),
    ]


def _pack_trace(trace, path: Path) -> int:
    from repro.trace.binio import pack
    from repro.trace.model import AccessKind

    pairs = (
        (access.item, "W" if access.kind is AccessKind.WRITE else "R")
        for access in trace
    )
    return pack(pairs, path, name=trace.name, metadata=dict(trace.metadata))


def _workload_sweep(workdir: Path) -> dict:
    """Checkpointed parallel sweep; retries absorb injected worker faults.

    A cell that still exhausts its retries surfaces as a *typed* abort
    (raised here) rather than a silent hole in the result table.
    """
    from repro.analysis.checkpoint import CheckpointJournal
    from repro.analysis.parallel import TaskFailure
    from repro.analysis.sweep import sweep

    journal = CheckpointJournal(workdir / "sweep.journal")
    try:
        records = sweep(
            _traces(),
            methods=("declaration", "heuristic"),
            words_per_dbc_values=(8, 16),
            jobs=2,
            retries=3,
            checkpoint=journal,
        )
    finally:
        journal.close()
    failures = [r for r in records if isinstance(r, TaskFailure)]
    if failures:
        raise InjectedFaultError(
            f"{len(failures)} sweep cell(s) exhausted retries under chaos"
        )
    rows = []
    for record in records:
        row = dataclasses.asdict(record)
        row.pop("runtime_seconds", None)
        rows.append(row)
    return {"sweep": rows}


def _workload_streaming(workdir: Path) -> dict:
    """Pack an ``.rtb``, place from its sample, replay it out-of-core."""
    from repro.core.api import optimize_placement
    from repro.dwm.config import DWMConfig
    from repro.memory.spm import ScratchpadMemory
    from repro.trace.binio import open_binary

    trace = _traces()[0]
    path = workdir / "stream.rtb"
    _pack_trace(trace, path)
    streaming = open_binary(path)
    config = DWMConfig.for_items(streaming.num_items, words_per_dbc=16)
    placed = optimize_placement(streaming, config, method="heuristic")
    spm = ScratchpadMemory(config, placed.placement)
    result = spm.simulate(streaming, chunk_size=256, jobs=2)
    return {
        "streaming": {
            "placement_shifts": placed.total_shifts,
            "shifts": result.shifts,
            "reads": result.reads,
            "writes": result.writes,
            "per_dbc_shifts": list(result.per_dbc_shifts),
            "max_access_shifts": result.max_access_shifts,
        }
    }


def _workload_cached(workdir: Path) -> dict:
    """Cold + warm placement through the on-disk result cache."""
    from repro.analysis.cache import cache_scope
    from repro.core.api import optimize_placement
    from repro.dwm.config import DWMConfig

    trace = _traces()[1]
    config = DWMConfig.for_items(trace.num_items, words_per_dbc=8)
    with cache_scope(root=workdir / "cache"):
        cold = optimize_placement(trace, config, method="heuristic")
        warm = optimize_placement(trace, config, method="heuristic")
    return {
        "cached": {
            "cold_shifts": cold.total_shifts,
            "warm_shifts": warm.total_shifts,
            "method": cold.method,
        }
    }


_WORKLOADS: tuple[Callable[[Path], dict], ...] = (
    _workload_sweep,
    _workload_streaming,
    _workload_cached,
)


def _run_workloads(rundir: Path) -> str:
    snapshot: dict = {}
    for workload in _WORKLOADS:
        subdir = rundir / workload.__name__.replace("_workload_", "")
        subdir.mkdir(parents=True, exist_ok=True)
        snapshot.update(workload(subdir))
    return json.dumps(snapshot, sort_keys=True)


# --------------------------------------------------------------------------
# Leak / teardown accounting.


def _teardown_and_leaks(rundir: Path) -> list[str]:
    """Shut worker pools down and report anything a clean run must not leave."""
    import multiprocessing

    from repro.analysis.checkpoint import flush_active_journals
    from repro.analysis.pool import shutdown_pools

    leaks: list[str] = []
    flush_active_journals()
    shutdown_pools()
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = multiprocessing.active_children()
    if orphans:
        for proc in orphans:
            proc.terminate()
        leaks.append(f"{len(orphans)} orphan worker process(es)")
    strays = sorted(
        str(p.relative_to(rundir)) for p in rundir.rglob(f"*{TMP_SUFFIX}")
    )
    if strays:
        leaks.append(f"stray temp files: {strays}")
    return leaks


def _alarm_guard(seconds: int):
    """Raise :class:`SoakHang` if the guarded block overruns (POSIX only)."""
    from contextlib import contextmanager

    @contextmanager
    def guard():
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def _on_alarm(signum, frame):
            raise SoakHang(f"run exceeded {seconds}s")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return guard()


# --------------------------------------------------------------------------
# fsck phase: corrupt real artifacts, repair them, verify they load again.


def _fsck_phase(workdir: Path) -> list[dict]:
    """Tear every artifact kind, then assert ``fsck --repair`` salvages it."""
    from repro.analysis.checkpoint import CheckpointJournal
    from repro.fsck import fsck_path
    from repro.trace.binio import _HEADER_STRUCT, open_binary

    root = workdir / "fsck"
    root.mkdir(parents=True, exist_ok=True)
    trace = _traces()[0]
    pristine = root / "pristine.rtb"
    _pack_trace(trace, pristine)
    raw = pristine.read_bytes()
    size = len(raw)
    meta_start = _HEADER_STRUCT.unpack(raw[: _HEADER_STRUCT.size])[6]
    victims: list[tuple[str, Path]] = []

    torn_records = root / "torn_records.rtb"
    torn_records.write_bytes(raw[: 128 + (len(trace) // 2) * 4 + 2])
    victims.append(("rtb-torn-records", torn_records))

    torn_meta = root / "torn_meta.rtb"
    torn_meta.write_bytes(raw[: meta_start + (size - meta_start) // 2])
    victims.append(("rtb-torn-meta", torn_meta))

    journal_path = root / "torn.journal"
    journal = CheckpointJournal(journal_path)
    for index in range(5):
        journal.record(f"cell-{index}", {"value": index})
    journal.close()
    with open(journal_path, "ab") as handle:
        handle.write(b'{"key": "cell-5", "payl')  # torn mid-record, no \n
    victims.append(("journal-torn-tail", journal_path))

    cache_root = root / "cache"
    shard = cache_root / "ab"
    shard.mkdir(parents=True, exist_ok=True)
    (shard / "deadbeef.json").write_text('{"schema": 1, "result"')
    (cache_root / f".orphan{TMP_SUFFIX}").write_text("")
    victims.append(("cache-corrupt-shard", cache_root))

    entries: list[dict] = []
    for label, path in victims:
        report = fsck_path(path, repair=True)
        ok = report.status in ("ok", "repaired")
        if ok and path.suffix == ".rtb":
            # A repaired trace must actually load.
            try:
                open_binary(path).read_write_counts()
            except Exception as exc:  # pragma: no cover - defensive
                ok = False
                report.detail += f"; reopen failed: {exc}"
        entries.append(
            {
                "artifact": label,
                "status": report.status,
                "salvaged_records": report.salvaged_records,
                "detail": report.detail,
                "ok": ok,
            }
        )
    return entries


# --------------------------------------------------------------------------
# Driver.


def run_soak(
    seed: int = 2015,
    schedules: int = 25,
    workdir: str | Path | None = None,
    out: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> SoakReport:
    """Run the chaos soak (see module docstring)."""
    from repro import robust
    from repro.analysis import parallel
    from repro.analysis.pool import shutdown_pools

    report = SoakReport(seed=seed, schedules=schedules)
    started = time.monotonic()
    owned_tmp = workdir is None
    base = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="soak-"))
    base.mkdir(parents=True, exist_ok=True)
    saved_cpu_count = parallel._cpu_count
    try:
        # Let jobs=2 through on single-CPU CI hosts so the pool
        # failpoints are exercised; the workloads are tiny.
        parallel._cpu_count = lambda: max(4, saved_cpu_count())

        def say(message: str) -> None:
            if progress:
                progress(message)

        shutdown_pools()
        say("baseline: running workloads twice without chaos")
        baseline_started = time.monotonic()
        first = _run_workloads(base / "baseline-a")
        shutdown_pools()
        second = _run_workloads(base / "baseline-b")
        shutdown_pools()
        report.baseline_seconds = time.monotonic() - baseline_started
        if first != second:
            raise ReproError(
                "soak workloads are nondeterministic without chaos; "
                "cannot use them as a byte-identical oracle"
            )

        for index in range(schedules):
            plan = ChaosPlan.random(seed + index)
            rundir = base / f"run-{index:03d}"
            rundir.mkdir(parents=True, exist_ok=True)
            run = SoakRunResult(index=index, spec=plan.to_spec(), outcome="")
            run_started = time.monotonic()
            try:
                with _alarm_guard(RUN_TIMEOUT_SECONDS):
                    with chaos_scope(plan):
                        snapshot = _run_workloads(rundir)
                run.outcome = (
                    "identical" if snapshot == first else "mismatch"
                )
                if run.outcome == "mismatch":
                    run.error = "results differ from failure-free baseline"
            except SoakHang as exc:
                run.outcome = "hang"
                run.error = str(exc)
            except (ReproError, OSError) as exc:
                run.outcome = "typed-abort"
                run.error = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001 - the point of the soak
                run.outcome = "untyped-error"
                run.error = f"{type(exc).__name__}: {exc}"
            finally:
                run.leaks = _teardown_and_leaks(rundir)
                run.fires = plan.fire_counts()
                run.seconds = round(time.monotonic() - run_started, 3)
            report.runs.append(run)
            status = "ok" if run.ok else "VIOLATION"
            say(
                f"schedule {index:03d} [{status}] {run.outcome} "
                f"({run.seconds:.1f}s) {run.spec}"
                + (f" -- {run.error}" if run.error else "")
            )
            if run.ok and run.outcome == "identical":
                # Byte-identical output means retries/degradation absorbed
                # the faults; nothing from this run needs keeping.
                shutil.rmtree(rundir, ignore_errors=True)

        say("fsck: corrupting artifacts and repairing them")
        report.fsck = _fsck_phase(base)
        for entry in report.fsck:
            status = "ok" if entry["ok"] else "VIOLATION"
            say(
                f"fsck {entry['artifact']} [{status}] {entry['status']}: "
                f"{entry['detail']}"
            )
        report.degradations = robust.degradation_summary()
    finally:
        parallel._cpu_count = saved_cpu_count
        shutdown_pools()
        if owned_tmp:
            shutil.rmtree(base, ignore_errors=True)
    report.elapsed_seconds = time.monotonic() - started
    if out is not None:
        from repro.util import atomic_write_text

        atomic_write_text(
            Path(out),
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        )
    return report
