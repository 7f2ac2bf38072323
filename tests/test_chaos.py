"""Tests for the chaos failpoint framework (``repro.chaos``).

Covers the spec grammar (parse / round-trip / rejection), deterministic
trigger semantics (``nth``, ``p``+``seed``, ``times``), scoped
installation and env propagation, the cooperative truncate directive,
kill generation-gating, and a short seeded soak smoke run (the full
acceptance soak is ``repro chaos soak``).

The signal-teardown tests (satellite: KeyboardInterrupt / SIGTERM during
a pooled streaming scan) drive a real child process and assert the
crash-consistency contract afterwards: journal flushed with no torn
tail, every pool worker dead, no shared-memory segment and no ``*.tmp``
stray left behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import chaos
from repro.chaos import (
    CHAOS_ENV,
    ChaosPlan,
    ChaosSpecError,
    FailpointRule,
    chaos_scope,
    failpoint,
    failpoints,
)
from repro.errors import InjectedFaultError

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


class TestSpecGrammar:
    def test_parse_round_trips(self):
        spec = (
            "binio.read:nth=3:raise=IOError,"
            "pool.dispatch:p=0.05:seed=7,"
            "journal.append:truncate=4:times=2,"
            "stream.scan:delay=0.01,"
            "pool.task:nth=1:kill"
        )
        plan = ChaosPlan.parse(spec)
        assert len(plan.rules) == 5
        assert ChaosPlan.parse(plan.to_spec()).to_spec() == plan.to_spec()

    def test_parse_fields(self):
        rule = FailpointRule.parse("cache.read:nth=2:raise=OSError:times=3")
        assert rule.point == "cache.read"
        assert rule.nth == 2
        assert rule.error == "OSError"
        assert rule.times == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "no.such.point",
            "binio.read:nth=0",
            "binio.read:p=1.5",
            "binio.read:nth=1:p=0.5",
            "binio.read:times=-1",
            "binio.read:raise=ValueError",  # outside the closed set
            "binio.read:frob=1",
            "binio.read:nth=x",
            "pool.task:kill=1",
            "",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ChaosSpecError):
            ChaosPlan.parse(bad)

    def test_catalog_is_sorted_and_closed(self):
        catalog = failpoints()
        assert catalog == tuple(sorted(catalog))
        assert "binio.read" in catalog and "pool.task" in catalog


class TestTriggerSemantics:
    def test_nth_fires_exactly_once_on_that_hit(self):
        plan = ChaosPlan.parse("binio.read:nth=3")
        with chaos_scope(plan):
            failpoint("binio.read")
            failpoint("binio.read")
            with pytest.raises(InjectedFaultError):
                failpoint("binio.read")
            for _ in range(10):
                failpoint("binio.read")  # nth is one-shot
        assert plan.fire_counts() == {"binio.read": 1}

    def test_p_schedule_is_deterministic_for_a_seed(self):
        def fire_pattern():
            plan = ChaosPlan.parse("cache.read:p=0.5:seed=42:times=0")
            pattern = []
            with chaos_scope(plan):
                for _ in range(32):
                    try:
                        failpoint("cache.read")
                        pattern.append(0)
                    except InjectedFaultError:
                        pattern.append(1)
            return pattern

        first, second = fire_pattern(), fire_pattern()
        assert first == second
        assert sum(first) > 0 and sum(first) < 32

    def test_times_caps_total_fires(self):
        plan = ChaosPlan.parse("cache.read:times=2")  # no trigger = every hit
        fired = 0
        with chaos_scope(plan):
            for _ in range(10):
                try:
                    failpoint("cache.read")
                except InjectedFaultError:
                    fired += 1
        assert fired == 2

    def test_raise_type_is_honoured(self):
        with chaos_scope("binio.write:raise=TimeoutError"):
            with pytest.raises(TimeoutError):
                failpoint("binio.write")

    def test_truncate_returns_cooperative_directive(self):
        with chaos_scope("journal.append:truncate=4"):
            action = failpoint("journal.append")
            assert action is not None
            assert action.kind == "truncate"
            assert action.keep_bytes == 4
            assert failpoint("journal.append") is None  # times=1 default

    def test_delay_sleeps_instead_of_raising(self):
        with chaos_scope("stream.scan:delay=0.01"):
            started = time.monotonic()
            assert failpoint("stream.scan") is None
            assert time.monotonic() - started >= 0.009

    def test_random_plans_are_reproducible(self):
        assert (
            ChaosPlan.random(123).to_spec() == ChaosPlan.random(123).to_spec()
        )
        specs = {ChaosPlan.random(seed).to_spec() for seed in range(20)}
        assert len(specs) > 1

    def test_kill_gated_by_process_generation(self, monkeypatch):
        # Generation >= times means "this process is already a replacement
        # of a killed worker": the kill rule must stand down, not crash-loop.
        plan = ChaosPlan.parse("pool.task:nth=1:kill")
        monkeypatch.setenv(chaos.GENERATION_ENV, "5")
        with chaos_scope(plan):
            assert failpoint("pool.task") is None
        assert plan.fire_counts() == {"pool.task": 1}  # fired, chose no-op


class TestInstallation:
    def test_off_by_default_and_scope_restores(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert not chaos.is_active()
        assert failpoint("binio.read") is None
        with chaos_scope("binio.read:nth=1"):
            assert chaos.is_active()
            assert os.environ[CHAOS_ENV] == "binio.read:nth=1"
        assert not chaos.is_active()
        assert CHAOS_ENV not in os.environ

    def test_scope_restores_even_on_error(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        with pytest.raises(RuntimeError):
            with chaos_scope("binio.read:nth=1"):
                raise RuntimeError("boom")
        assert not chaos.is_active()

    def test_nested_scope_restores_outer_plan(self):
        outer = ChaosPlan.parse("binio.read:nth=9")
        with chaos_scope(outer):
            with chaos_scope("cache.read:nth=9"):
                assert chaos.active_plan().rules[0].point == "cache.read"
            assert chaos.active_plan() is outer

    def test_ensure_installed_from_env(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "cache.write:nth=2")
        monkeypatch.setattr(chaos, "_PLAN", None)
        plan = chaos.ensure_installed_from_env()
        assert plan is not None
        assert plan.rules[0].point == "cache.write"
        chaos.uninstall_plan()

    def test_ensure_installed_rejects_malformed_env(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "definitely:not=valid")
        monkeypatch.setattr(chaos, "_PLAN", None)
        with pytest.raises(ChaosSpecError):
            chaos.ensure_installed_from_env()

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_plan_propagates_into_pool_workers(self, monkeypatch):
        # A worker-side failpoint (pool.task) can only fire if the plan
        # crossed the process boundary; exhausted retries then surface as a
        # TaskFailure carrying the injected error.
        from repro.analysis import pool as pool_mod
        from repro.analysis.parallel import TaskFailure

        pool_mod.shutdown_pools()
        try:
            with chaos_scope("pool.task:times=0:raise=IOError"):
                pool = pool_mod.get_pool(2)
                results = pool.run(_identity, [1, 2], retries=1)
            assert all(isinstance(r, TaskFailure) for r in results)
            assert any("chaos failpoint pool.task" in r.error for r in results)
        finally:
            pool_mod.shutdown_pools()


def _identity(value):
    return value


# ---------------------------------------------------------------------------
# Failpoints actually planted at the I/O boundaries
# ---------------------------------------------------------------------------


class TestPlantedFailpoints:
    def test_binio_write_truncate_makes_typed_torn_file(self, tmp_path):
        from repro.trace.binio import open_binary, pack

        path = tmp_path / "torn.rtb"
        with chaos_scope("binio.write:truncate=64"):
            with pytest.raises(InjectedFaultError):
                pack([("a", "R")] * 100, path, name="torn")
        assert path.exists()
        with pytest.raises(Exception) as info:
            open_binary(path).read_write_counts()
        from repro.errors import TraceFormatError

        assert isinstance(info.value, TraceFormatError)

    def test_cache_read_fault_is_a_miss_not_a_crash(self, tmp_path):
        from repro.analysis.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cache.put("deadbeef" * 8, {"value": 1})
        with chaos_scope("cache.read:nth=1:raise=IOError"):
            assert cache.get("deadbeef" * 8) is None  # injected miss
        assert cache.get("deadbeef" * 8) == {"value": 1}

    def test_journal_append_truncate_leaves_recoverable_tail(self, tmp_path):
        from repro.analysis.checkpoint import CheckpointJournal, scan_journal

        path = tmp_path / "j.journal"
        journal = CheckpointJournal(path)
        journal.record("a", {"v": 1})
        with chaos_scope("journal.append:truncate=7"):
            with pytest.raises(InjectedFaultError):
                journal.record("b", {"v": 2})
        journal.close()
        entries, good_offset, _corrupt = scan_journal(path)
        assert list(entries) == ["a"]
        assert path.stat().st_size > good_offset  # torn bytes present
        resumed = CheckpointJournal(path, resume=True)
        assert resumed.truncated_bytes > 0
        resumed.close()
        assert path.stat().st_size == good_offset


# ---------------------------------------------------------------------------
# Soak smoke (the full 25-schedule acceptance run is `repro chaos soak`)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_soak_smoke(tmp_path):
    from repro.chaos.soak import run_soak

    report = run_soak(seed=2015, schedules=2, workdir=tmp_path / "soak")
    assert len(report.runs) == 2
    assert report.ok, [run.to_dict() for run in report.runs]
    for run in report.runs:
        assert run.outcome in ("identical", "typed-abort")
        assert run.leaks == []
    assert all(entry["ok"] for entry in report.fsck)


# ---------------------------------------------------------------------------
# Signal teardown during pooled streaming scans (satellite)
# ---------------------------------------------------------------------------

_SIGNAL_SCRIPT = r"""
import os, sys, time
from pathlib import Path

from repro import robust
from repro.analysis import parallel
from repro.analysis.checkpoint import CheckpointJournal, flush_active_journals
from repro.analysis.pool import get_pool, shutdown_pools
from repro.core.api import optimize_placement
from repro.dwm.config import DWMConfig
from repro.memory.spm import ScratchpadMemory
from repro.trace.binio import open_binary, pack
from repro.trace.model import AccessKind
from repro.trace.synthetic import zipf_trace

parallel._cpu_count = lambda: 4  # lift the 1-CPU cap so jobs=2 pools run
robust.install_sigterm_handler()
out = Path(sys.argv[1])
trace = zipf_trace(num_items=16, num_accesses=5000, seed=1)
pack(
    ((a.item, "W" if a.kind is AccessKind.WRITE else "R") for a in trace),
    out / "t.rtb",
    name=trace.name,
)
streaming = open_binary(out / "t.rtb")
config = DWMConfig.for_items(16, words_per_dbc=8)
placement = optimize_placement(trace, config, method="declaration").placement
spm = ScratchpadMemory(config, placement)
journal = CheckpointJournal(out / "run.journal")
try:
    i = 0
    while True:
        journal.record(f"iter-{i}", {"i": i})
        spm.simulate(streaming, engine="streaming", chunk_size=128, jobs=2)
        import multiprocessing
        pids = sorted(p.pid for p in multiprocessing.active_children())
        (out / "workers.txt").write_text("\n".join(map(str, pids)))
        print("TICK", flush=True)
        i += 1
except KeyboardInterrupt:
    flushed = flush_active_journals()
    shutdown_pools()
    sys.exit(130)
"""


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_during_pooled_streaming_scan_tears_down(tmp_path, signum):
    """Interrupting a pooled streaming run must leave no debris behind."""
    script = tmp_path / "runner.py"
    script.write_text(_SIGNAL_SCRIPT)
    out = tmp_path / "out"
    out.mkdir()
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else None
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.Popen(
        [sys.executable, str(script), str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        # Wait until the pooled scan loop is demonstrably running.
        deadline = time.monotonic() + 60
        ticks = 0
        while ticks < 3:
            line = proc.stdout.readline()
            assert line, f"runner exited early: {proc.stderr.read()}"
            if line.strip() == "TICK":
                ticks += 1
            assert time.monotonic() < deadline
        proc.send_signal(signum)
        returncode = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert returncode == 130, proc.stderr.read()

    # Workers recorded mid-run are all gone.
    workers = [
        int(line)
        for line in (out / "workers.txt").read_text().splitlines()
        if line
    ]
    assert workers, "runner never recorded its pool workers"
    for pid in workers:
        with pytest.raises(OSError):
            os.kill(pid, 0)

    # The journal was flushed and has no torn tail.
    from repro.analysis.checkpoint import scan_journal

    journal_path = out / "run.journal"
    entries, good_offset, corrupt = scan_journal(journal_path)
    assert entries and corrupt == 0
    assert journal_path.stat().st_size == good_offset
    assert json.loads(journal_path.read_text().splitlines()[0])["key"] == "iter-0"

    # No stray temp files, no leaked shared-memory segments.
    assert list(out.rglob("*.tmp")) == []
    if shm_before is not None:
        assert set(os.listdir("/dev/shm")) - shm_before == set()
