"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.core import kernels
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, pingpong_trace


@pytest.fixture(autouse=True)
def _hermetic_perf_env(tmp_path, monkeypatch):
    """Keep tests independent of the user's cache/parallelism environment.

    CLI subcommands enable the persistent placement cache by default; point
    it at a per-test directory so runs never touch (or depend on)
    ``~/.cache/repro-dwm``, and neutralise ambient REPRO_* tuning knobs.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    """Pretend the host has 8 CPUs so the jobs cap never serialises tests.

    ``resolve_jobs`` caps at the logical CPU count; on small CI hosts that
    would silently turn every ``jobs=4`` determinism/pool test into a
    serial run.  The cap itself is tested explicitly by patching this same
    seam the other way (see ``tests/test_parallel.py``).
    """
    from repro.analysis import parallel

    monkeypatch.setattr(parallel, "_cpu_count", lambda: 8)


@pytest.fixture
def kernel_tier(request, monkeypatch):
    """Select the kernel tier named by the (indirect) test parameter.

    ``"active"`` keeps the default selection; ``"numpy"`` forces the numpy
    tier as ``REPRO_KERNEL=numpy`` does.
    """
    if request.param == "numpy":
        monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
    kernels.reset_backend()
    tier = kernels.active()
    assert request.param == "active" or tier.name == "numpy"
    yield tier
    kernels.reset_backend()


@pytest.fixture
def single_dbc_config() -> DWMConfig:
    """One DBC of 8 words, single port at offset 4 (uniform default)."""
    return DWMConfig(words_per_dbc=8, num_dbcs=1)


@pytest.fixture
def small_config() -> DWMConfig:
    """Four DBCs of 8 words each, single centred port."""
    return DWMConfig(words_per_dbc=8, num_dbcs=4)


@pytest.fixture
def multiport_config() -> DWMConfig:
    """One DBC of 16 words with two uniform ports."""
    return DWMConfig.with_uniform_ports(words_per_dbc=16, num_dbcs=1, num_ports=2)


@pytest.fixture
def tiny_trace() -> AccessTrace:
    """Five accesses over three items, mixed reads/writes."""
    return AccessTrace(
        [("a", "R"), ("b", "W"), ("a", "R"), ("c", "R"), ("b", "R")],
        name="tiny",
    )


@pytest.fixture
def locality_trace() -> AccessTrace:
    """A locality-rich Markov trace (16 items, 400 accesses)."""
    return markov_trace(16, 400, locality=0.85, seed=42)


@pytest.fixture
def pingpong() -> AccessTrace:
    """Strictly alternating pairs — adversarial for naive placement."""
    return pingpong_trace(num_pairs=3, rounds=16)


@pytest.fixture
def locality_problem(locality_trace) -> PlacementProblem:
    """The locality trace on a 2-DBC, 8-word array."""
    config = DWMConfig(words_per_dbc=8, num_dbcs=2)
    return PlacementProblem(trace=locality_trace, config=config)
