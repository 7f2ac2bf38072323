"""Unified graceful-degradation layer (``repro.robust``).

The stack has several places where a *better* implementation can fail for
infrastructure reasons and a *simpler* one still produces the identical
answer: the streaming engine falls back to the vectorized one, compiled
kernels to numpy, the CP-SAT MinLA solver to the subset DP, pooled maps to
serial maps, corrupt cache entries to recomputation, torn binary traces to
their salvaged prefix.  Before this
module those fallbacks were scattered ad-hoc ``except`` clauses with
inconsistent logging and no observability.  This module centralises:

* the **degradation chains** (:data:`DEGRADATION_CHAINS`) — the declarative
  map of what falls back to what, in order;
* the **recoverability policy** (:func:`is_recoverable`) — which failures
  justify degrading.  Only *infrastructure* failures qualify (I/O errors,
  memory pressure, dead pool workers, injected chaos faults).  *Semantic*
  errors (:class:`~repro.errors.ConfigError`,
  :class:`~repro.errors.SimulationError`, …) must propagate: a fallback
  engine would deterministically reproduce them, so degrading only hides
  bugs;
* the **accounting** (:func:`record_degradation`) — every downgrade
  increments the ``robust.degradations`` counter (labelled by domain and
  edge) in :mod:`repro.obs`, which the run manifest picks up automatically,
  and is kept in a bounded in-process event log for reports.

The chaos harness (:mod:`repro.chaos`) exists to prove these chains
actually engage; ``docs/RELIABILITY.md`` documents the chain table.
"""

from __future__ import annotations

import signal
import threading
import warnings
from dataclasses import dataclass

from repro.errors import ArtifactError, InjectedFaultError, ReproError

__all__ = [
    "DEGRADATION_CHAINS",
    "DegradationEvent",
    "degradation_events",
    "degradation_summary",
    "install_sigterm_handler",
    "is_recoverable",
    "record_degradation",
    "reset_degradations",
]

#: Declarative fallback chains, best-first.  Every edge ``chain[i] ->
#: chain[i+1]`` preserves results bit-for-bit; only throughput (or, for
#: ``trace``, completeness — with an explicit salvage marker) degrades.
DEGRADATION_CHAINS: dict[str, tuple[str, ...]] = {
    # Simulation engine (repro.memory.spm.ScratchpadMemory.simulate)
    "engine": ("streaming", "vectorized", "scalar"),
    # Streaming scan mode (repro.memory.stream_sim.simulate_streaming)
    "stream": ("parallel", "sequential"),
    # Cost kernels (repro.core.kernels)
    "kernel": ("cc", "numpy"),
    # MinLA/ILP solver backends (repro.core.cpsat.solve_minla): CP-SAT when
    # the optional ortools dependency is installed, else the subset DP.
    "ilp": ("cpsat", "dp"),
    # Task fan-out (repro.analysis.parallel)
    "map": ("pooled", "serial"),
    # Result cache (repro.analysis.cache)
    "cache": ("entry", "quarantine+recompute"),
    # Binary traces (repro.fsck)
    "trace": ("full", "salvaged-prefix"),
}

#: Cap on the in-process event log (counters in obs are unbounded).
_MAX_EVENTS = 256


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded downgrade along a chain."""

    domain: str
    from_level: str
    to_level: str
    reason: str


_EVENTS: list[DegradationEvent] = []
_EVENTS_LOCK = threading.Lock()
_WARNED: set[tuple[str, str, str]] = set()


def is_recoverable(exc: BaseException) -> bool:
    """Whether ``exc`` is an infrastructure failure a fallback may absorb.

    Recoverable: OS/IO errors, memory pressure, timeouts, dead or
    unreachable pool workers, corrupt-artifact errors, and injected chaos
    faults.  Not recoverable: semantic :class:`~repro.errors.ReproError`
    subclasses (bad config, invalid placement, simulator inconsistency) —
    and anything else, e.g. ``KeyboardInterrupt`` or plain bugs
    (``TypeError``), which must surface unchanged.
    """
    if isinstance(exc, (InjectedFaultError, ArtifactError)):
        return True
    if isinstance(exc, ReproError):
        return False
    if isinstance(exc, (OSError, MemoryError, TimeoutError, EOFError)):
        return True
    # Pool errors live in analysis.pool which imports obs; import lazily
    # to keep repro.robust dependency-free at import time.
    from repro.analysis.pool import PoolCrashError, PoolDispatchError

    return isinstance(exc, (PoolCrashError, PoolDispatchError))


def record_degradation(
    domain: str,
    from_level: str,
    to_level: str,
    reason: str = "",
    *,
    warn: bool = True,
) -> DegradationEvent:
    """Account for one downgrade: obs counter, event log, one-time warning.

    The counter ``robust.degradations{domain=,edge=}`` flows into every run
    manifest via the registry snapshot, so unattended runs leave an audit
    trail of what silently slowed down.  Call sites that already emit
    their own warning pass ``warn=False``.
    """
    event = DegradationEvent(domain, from_level, to_level, reason)
    from repro.obs import get_registry

    get_registry().inc(
        "robust.degradations", domain=domain, edge=f"{from_level}->{to_level}"
    )
    with _EVENTS_LOCK:
        if len(_EVENTS) < _MAX_EVENTS:
            _EVENTS.append(event)
    key = (domain, from_level, to_level)
    if warn and key not in _WARNED:
        _WARNED.add(key)
        warnings.warn(
            f"degraded {domain}: {from_level} -> {to_level}"
            + (f" ({reason})" if reason else ""),
            RuntimeWarning,
            stacklevel=2,
        )
    return event


def degradation_events() -> tuple[DegradationEvent, ...]:
    """The in-process downgrade log (bounded to ``_MAX_EVENTS`` events)."""
    with _EVENTS_LOCK:
        return tuple(_EVENTS)


def degradation_summary() -> dict[str, int]:
    """``{"domain:from->to": count}`` over the in-process event log."""
    summary: dict[str, int] = {}
    for event in degradation_events():
        key = f"{event.domain}:{event.from_level}->{event.to_level}"
        summary[key] = summary.get(key, 0) + 1
    return summary


def reset_degradations() -> None:
    """Clear the event log and re-arm one-time warnings (for tests)."""
    with _EVENTS_LOCK:
        _EVENTS.clear()
    _WARNED.clear()


def install_sigterm_handler():
    """Route ``SIGTERM`` through the ``KeyboardInterrupt`` cleanup path.

    The CLI already tears everything down on ``KeyboardInterrupt`` (flush
    journals, shut pools); converting SIGTERM to the same
    exception gives e.g. a container runtime's ``docker stop`` the same
    guarantees.  Returns the handler it replaced, for the caller to put
    back; ``None`` (and no change) outside the main thread or where
    SIGTERM does not exist.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    sigterm = getattr(signal, "SIGTERM", None)
    if sigterm is None:
        return None

    def _handler(signum, frame):
        raise KeyboardInterrupt

    return signal.signal(sigterm, _handler)
