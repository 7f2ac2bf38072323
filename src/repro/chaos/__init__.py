"""Deterministic failpoint injection for chaos testing (``repro.chaos``).

The reliability layer (retries, checkpoint journals, cache quarantine,
pool worker replacement, streaming fallbacks) is only trustworthy if its
error paths are *exercised*; this module makes every I/O and IPC boundary
in the stack injectable.  A **failpoint** is a named hook planted at such
a boundary::

    from repro.chaos import failpoint
    failpoint("binio.read")            # may raise / delay / kill
    action = failpoint("journal.append", payload_len=len(line))
    if action is not None and action.kind == "truncate":
        line = line[: action.keep_bytes]   # cooperative torn write

Failpoints are **free when chaos is off** (one global ``None`` check) and
fully deterministic when on: every rule carries its own seeded RNG, so a
schedule replays identically from its spec string.

**Spec grammar** (``REPRO_CHAOS`` environment variable or
:meth:`ChaosPlan.parse`) — comma-separated rules, each
``<point>(:<param>)*``::

    REPRO_CHAOS="binio.read:nth=3:raise=IOError,pool.dispatch:p=0.05:seed=7"

Params:

* ``nth=N`` — fire on exactly the N-th hit of the point (1-based).
* ``p=F`` — fire each hit with probability ``F`` (seeded; see ``seed``).
* ``seed=N`` — RNG seed for ``p`` rules (default: derived from the point
  name, so distinct points decorrelate).
* ``times=N`` — maximum number of fires (default 1; ``times=0`` means
  unlimited).
* ``raise=TYPE`` — raise this error type when firing (default
  :class:`~repro.errors.InjectedFaultError`; see :data:`ERROR_TYPES`).
* ``delay=SECONDS`` — sleep instead of raising.
* ``kill`` — hard-exit the *current process* (``os._exit``); plant only at
  worker-side points (``pool.task``) to simulate crashed workers.
* ``truncate=KEEP`` — cooperative action: the call site receives a
  :class:`FailpointAction` telling it to keep only ``KEEP`` bytes of its
  payload (torn-write simulation).  Sites that cannot truncate ignore it.

A rule with neither ``nth`` nor ``p`` fires on every hit (up to
``times``).  Unknown points, actions or malformed params raise
:class:`ChaosSpecError` at parse time, not silently at run time.

Plans install process-globally (:func:`chaos_scope` /
:func:`install_plan`) and — because installation mirrors the spec into
``REPRO_CHAOS`` — propagate into pool workers under both ``fork`` and
``spawn`` start methods (workers call :func:`ensure_installed_from_env`
on startup).  The soak harness lives in :mod:`repro.chaos.soak`; the spec
grammar and failpoint catalog are documented in ``docs/CHAOS.md``.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import (
    ConfigError,
    InjectedFaultError,
    ReproError,
    SimulationError,
    TraceError,
)

__all__ = [
    "CHAOS_ENV",
    "ChaosPlan",
    "ChaosSpecError",
    "FailpointAction",
    "FailpointRule",
    "chaos_scope",
    "ensure_installed_from_env",
    "failpoint",
    "failpoints",
    "install_plan",
    "is_active",
    "uninstall_plan",
]

#: Environment variable carrying the active chaos spec.
CHAOS_ENV = "REPRO_CHAOS"

#: Process-generation stamp (set by the worker pool before each spawn).
#: ``kill`` rules only fire in generations below their ``times``, so a
#: replacement worker does not immediately kill itself again — without
#: this, a kill failpoint crash-loops the pool (respawned workers
#: re-install the plan from the environment with fresh hit counters) and
#: no retry budget can ever succeed.
GENERATION_ENV = "REPRO_CHAOS_GEN"

#: Exit code of a ``kill`` action (distinctive in crash reports).
KILL_EXIT_CODE = 86

#: Error types a ``raise=`` param may name.  Deliberately a closed set:
#: chaos must only raise *typed* errors the degradation layer classifies.
ERROR_TYPES: dict[str, type] = {
    "InjectedFaultError": InjectedFaultError,
    "IOError": IOError,
    "OSError": OSError,
    "EOFError": EOFError,
    "BrokenPipeError": BrokenPipeError,
    "TimeoutError": TimeoutError,
    "MemoryError": MemoryError,
    "ConnectionError": ConnectionError,
    "TraceError": TraceError,
    "SimulationError": SimulationError,
    "ConfigError": ConfigError,
}

#: The failpoint catalog: every point planted in the codebase.  The spec
#: parser rejects names outside it so a typo cannot silently disable a
#: schedule.  Extend with :func:`register_failpoint` when planting new ones.
_CATALOG: set[str] = {
    "pool.dispatch",   # parent→worker task send (analysis/pool.py)
    "pool.task",       # worker-side, before running a task (analysis/pool.py)
    "binio.read",      # binary-trace header/window reads (trace/binio.py)
    "binio.write",     # binary-trace pack writes (trace/binio.py)
    "cache.read",      # result-cache shard read (analysis/cache.py)
    "cache.write",     # result-cache shard write (analysis/cache.py)
    "journal.append",  # checkpoint-journal record append (analysis/checkpoint.py)
    "kernel.compile",  # compiled-kernel backend selection (core/kernels.py)
    "stream.scan",     # streaming-engine chunk scan (memory/stream_sim.py)
}


class ChaosSpecError(ReproError, ValueError):
    """A chaos spec string (``REPRO_CHAOS``) is malformed."""


def register_failpoint(name: str) -> str:
    """Add ``name`` to the failpoint catalog (for out-of-tree plants)."""
    _CATALOG.add(name)
    return name


def failpoints() -> tuple[str, ...]:
    """The sorted failpoint catalog."""
    return tuple(sorted(_CATALOG))


@dataclass(frozen=True)
class FailpointAction:
    """Cooperative action returned to a call site (currently: truncate)."""

    point: str
    kind: str
    keep_bytes: int = 0


@dataclass(frozen=True)
class FailpointRule:
    """One parsed rule of a chaos schedule (see the module docstring)."""

    point: str
    action: str = "raise"
    error: str = "InjectedFaultError"
    nth: int | None = None
    p: float | None = None
    seed: int | None = None
    times: int = 1
    delay_seconds: float = 0.0
    keep_bytes: int = 0

    def __post_init__(self) -> None:
        if self.point not in _CATALOG:
            raise ChaosSpecError(
                f"unknown failpoint {self.point!r}; "
                f"known: {', '.join(sorted(_CATALOG))}"
            )
        if self.action not in ("raise", "delay", "kill", "truncate"):
            raise ChaosSpecError(f"unknown chaos action {self.action!r}")
        if self.error not in ERROR_TYPES:
            raise ChaosSpecError(
                f"unknown error type {self.error!r}; "
                f"known: {', '.join(sorted(ERROR_TYPES))}"
            )
        if self.nth is not None and self.nth < 1:
            raise ChaosSpecError(f"nth must be >= 1, got {self.nth}")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ChaosSpecError(f"p must be in (0, 1], got {self.p}")
        if self.nth is not None and self.p is not None:
            raise ChaosSpecError("a rule takes nth= or p=, not both")
        if self.times < 0:
            raise ChaosSpecError(f"times must be >= 0, got {self.times}")

    # -- spec round-trip -----------------------------------------------
    def to_spec(self) -> str:
        """Render this rule back into the env-spec grammar."""
        parts = [self.point]
        if self.nth is not None:
            parts.append(f"nth={self.nth}")
        if self.p is not None:
            parts.append(f"p={self.p:g}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.times != 1:
            parts.append(f"times={self.times}")
        if self.action == "raise":
            if self.error != "InjectedFaultError":
                parts.append(f"raise={self.error}")
        elif self.action == "delay":
            parts.append(f"delay={self.delay_seconds:g}")
        elif self.action == "kill":
            parts.append("kill")
        elif self.action == "truncate":
            parts.append(f"truncate={self.keep_bytes}")
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FailpointRule":
        """Parse one ``point:param:param`` rule."""
        fields = [part.strip() for part in text.strip().split(":")]
        if not fields or not fields[0]:
            raise ChaosSpecError(f"empty chaos rule in {text!r}")
        point = fields[0]
        kwargs: dict = {}

        def _int(key: str, value: str) -> int:
            try:
                return int(value)
            except ValueError:
                raise ChaosSpecError(
                    f"{point}: {key}= expects an integer, got {value!r}"
                ) from None

        def _float(key: str, value: str) -> float:
            try:
                return float(value)
            except ValueError:
                raise ChaosSpecError(
                    f"{point}: {key}= expects a number, got {value!r}"
                ) from None

        for param in fields[1:]:
            if not param:
                continue
            key, sep, value = param.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "kill":
                if sep:
                    raise ChaosSpecError(f"{point}: kill takes no value")
                kwargs["action"] = "kill"
            elif key == "raise":
                kwargs["action"] = "raise"
                kwargs["error"] = value or "InjectedFaultError"
            elif key == "delay":
                kwargs["action"] = "delay"
                kwargs["delay_seconds"] = _float(key, value)
            elif key == "truncate":
                kwargs["action"] = "truncate"
                kwargs["keep_bytes"] = _int(key, value) if value else 0
            elif key == "nth":
                kwargs["nth"] = _int(key, value)
            elif key == "p":
                kwargs["p"] = _float(key, value)
            elif key == "seed":
                kwargs["seed"] = _int(key, value)
            elif key == "times":
                kwargs["times"] = _int(key, value)
            else:
                raise ChaosSpecError(
                    f"{point}: unknown chaos param {key!r} in {text!r}"
                )
        return cls(point=point, **kwargs)


class _RuleState:
    """Per-process runtime state of one rule (hit/fire counters + RNG)."""

    __slots__ = ("hits", "fires", "rng")

    def __init__(self, rule: FailpointRule) -> None:
        self.hits = 0
        self.fires = 0
        seed = rule.seed
        if seed is None:
            # Decorrelate unseeded p-rules across points, deterministically.
            seed = zlib.crc32(rule.point.encode("utf-8"))
        self.rng = random.Random(seed)


@dataclass
class ChaosPlan:
    """A full chaos schedule: rules plus their runtime state."""

    rules: list[FailpointRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._states = [_RuleState(rule) for rule in self.rules]
        self._by_point: dict[str, list[int]] = {}
        for index, rule in enumerate(self.rules):
            self._by_point.setdefault(rule.point, []).append(index)

    # -- construction ---------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse a comma-separated spec string into a plan."""
        rules = [
            FailpointRule.parse(part)
            for part in spec.split(",")
            if part.strip()
        ]
        if not rules:
            raise ChaosSpecError(f"chaos spec {spec!r} contains no rules")
        return cls(rules)

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        max_rules: int = 3,
        points: Sequence[str] | None = None,
    ) -> "ChaosPlan":
        """A randomized-but-reproducible schedule for soak testing.

        Draws 1..``max_rules`` rules over ``points`` (default: the full
        catalog), mixing triggers (``nth`` early hits, low-``p``) and
        actions.  ``kill`` is only drawn for the worker-side ``pool.task``
        point and ``truncate`` only for points that honour it, so every
        generated schedule is recoverable-or-typed by construction.
        """
        rng = random.Random(seed)
        pool = sorted(points if points is not None else _CATALOG)
        count = rng.randint(1, max(1, max_rules))
        rules = []
        for _ in range(count):
            point = rng.choice(pool)
            trigger: dict = (
                {"nth": rng.randint(1, 4)}
                if rng.random() < 0.6
                else {"p": round(rng.uniform(0.05, 0.4), 3), "seed": rng.randint(0, 2**31)}
            )
            actions = ["raise", "delay"]
            if point == "pool.task":
                actions.append("kill")
            if point in ("journal.append", "binio.write"):
                actions.append("truncate")
            action = rng.choice(actions)
            kwargs: dict = dict(trigger)
            kwargs["times"] = rng.randint(1, 3)
            if action == "raise":
                kwargs["error"] = rng.choice(
                    ["InjectedFaultError", "IOError", "OSError", "TimeoutError"]
                )
            elif action == "delay":
                kwargs["delay_seconds"] = round(rng.uniform(0.001, 0.02), 4)
            elif action == "truncate":
                kwargs["keep_bytes"] = rng.randint(0, 8)
            rules.append(FailpointRule(point=point, action=action, **kwargs))
        return cls(rules)

    # -- spec round-trip ------------------------------------------------
    def to_spec(self) -> str:
        return ",".join(rule.to_spec() for rule in self.rules)

    def describe(self) -> str:
        return self.to_spec() or "<empty>"

    # -- bookkeeping ----------------------------------------------------
    def fire_counts(self) -> dict[str, int]:
        """``{point: fires}`` for every rule that fired in this process."""
        counts: dict[str, int] = {}
        for rule, state in zip(self.rules, self._states):
            if state.fires:
                counts[rule.point] = counts.get(rule.point, 0) + state.fires
        return counts

    # -- evaluation -----------------------------------------------------
    def hit(self, point: str) -> FailpointAction | None:
        """Evaluate one failpoint hit; may raise, sleep, kill, or direct."""
        indices = self._by_point.get(point)
        if not indices:
            return None
        directive: FailpointAction | None = None
        for index in indices:
            rule = self.rules[index]
            state = self._states[index]
            state.hits += 1
            if rule.nth is not None:
                fire = state.hits == rule.nth
            elif rule.p is not None:
                fire = state.rng.random() < rule.p
            else:
                fire = True
            if not fire or (rule.times and state.fires >= rule.times):
                continue
            state.fires += 1
            from repro.obs import get_registry

            get_registry().inc("chaos.fires", point=point, action=rule.action)
            if rule.action == "raise":
                raise ERROR_TYPES[rule.error](
                    f"chaos failpoint {point} "
                    f"(fire {state.fires}, hit {state.hits})"
                )
            if rule.action == "delay":
                time.sleep(rule.delay_seconds)
            elif rule.action == "kill":
                generation = _process_generation()
                if rule.times and generation >= rule.times:
                    continue
                os._exit(KILL_EXIT_CODE)
            elif rule.action == "truncate":
                directive = FailpointAction(
                    point=point, kind="truncate", keep_bytes=rule.keep_bytes
                )
        return directive


def _process_generation() -> int:
    """This process's spawn generation (0 in the main process).

    Read at kill-evaluation time so it works under both ``fork`` (the
    worker inherits the environment set just before forking) and
    ``spawn`` (the fresh interpreter re-reads the environment).
    """
    raw = os.environ.get(GENERATION_ENV, "").strip()
    try:
        return int(raw) if raw else 0
    except ValueError:
        return 0


# ---------------------------------------------------------------------------
# Global installation
# ---------------------------------------------------------------------------

_PLAN: ChaosPlan | None = None


def is_active() -> bool:
    """Whether a chaos plan is currently installed in this process."""
    return _PLAN is not None


def active_plan() -> ChaosPlan | None:
    """The installed plan (tests and the soak harness inspect it)."""
    return _PLAN


def failpoint(name: str, **_context) -> FailpointAction | None:
    """Evaluate the failpoint ``name``; the no-chaos fast path is one load.

    May raise a typed error, sleep, or kill the process according to the
    active plan; returns a :class:`FailpointAction` for cooperative
    actions (truncate) and ``None`` otherwise.  ``**_context`` is accepted
    (and ignored) so call sites can annotate hits for readability.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.hit(name)


def install_plan(plan: ChaosPlan, *, export_env: bool = True) -> ChaosPlan:
    """Install ``plan`` process-globally; mirrors the spec into the env.

    ``export_env=True`` (default) writes the plan's spec to ``REPRO_CHAOS``
    so worker processes spawned while the plan is active inherit it.
    """
    global _PLAN
    _PLAN = plan
    if export_env:
        os.environ[CHAOS_ENV] = plan.to_spec()
    return plan


def uninstall_plan() -> None:
    """Remove the installed plan and clear ``REPRO_CHAOS``."""
    global _PLAN
    _PLAN = None
    os.environ.pop(CHAOS_ENV, None)


def ensure_installed_from_env() -> ChaosPlan | None:
    """Install a plan from ``REPRO_CHAOS`` if one is set and none is active.

    Called by pool workers on startup (see
    :func:`repro.analysis.parallel._worker_init`), so a chaos schedule
    follows the run into ``spawn``-mode workers exactly like the result
    cache does.  A malformed spec raises :class:`ChaosSpecError` — a
    chaos run with a typo'd spec must not silently run failure-free.
    """
    if _PLAN is not None:
        return _PLAN
    spec = os.environ.get(CHAOS_ENV, "").strip()
    if not spec:
        return None
    return install_plan(ChaosPlan.parse(spec), export_env=False)


@contextmanager
def chaos_scope(plan: ChaosPlan | str | None) -> Iterator[ChaosPlan | None]:
    """Install a plan (or spec string) for the duration of a ``with`` block.

    Restores the previously installed plan and the previous ``REPRO_CHAOS``
    value on exit, including on error — chaos must never leak out of the
    scope that asked for it.  ``plan=None`` disables chaos inside the block.
    """
    global _PLAN
    if isinstance(plan, str):
        plan = ChaosPlan.parse(plan)
    saved_plan = _PLAN
    saved_env = os.environ.get(CHAOS_ENV)
    try:
        if plan is None:
            _PLAN = None
            os.environ.pop(CHAOS_ENV, None)
        else:
            install_plan(plan)
        yield plan
    finally:
        _PLAN = saved_plan
        if saved_env is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = saved_env
