"""DWM scratchpad memory: placement-mapped, trace-driven simulation.

:class:`ScratchpadMemory` binds a :class:`~repro.core.placement.Placement`
to a DWM array and runs access traces against it.  Two engines share the
same cost semantics:

* :meth:`simulate` — counters-only engine; picks between the scalar
  per-access replay over :class:`~repro.dwm.array.DWMArrayModel` and the
  vectorized engine (:mod:`repro.memory.batch_sim`) via its ``engine``
  argument (``"auto"``/``"scalar"``/``"vectorized"``).
* :meth:`simulate_functional` — full engine over
  :class:`~repro.dwm.array.DWMArray`, additionally storing and checking word
  values (writes store a value, reads return the last value written).  Used
  by differential tests; identical shift counts by construction.

Per-trace work (placement validation, slot resolution, vectorized trace
resolution) is cached on the instance keyed by trace identity, so reusing
one SPM to replay the same trace many times pays those costs once.
"""

from __future__ import annotations

from repro.core.placement import Placement
from repro.dwm.array import DWMArray, DWMArrayModel
from repro.dwm.config import DWMConfig
from repro.errors import SimulationError
from repro.memory.batch_sim import VECTORIZED_MIN_ACCESSES, BatchSimulator
from repro.memory.result import SimulationResult
from repro.obs import get_registry, trace_span
from repro.trace.model import AccessTrace


class ScratchpadMemory:
    """A DWM scratchpad with a fixed data placement."""

    def __init__(self, config: DWMConfig, placement: Placement) -> None:
        self.config = config
        self.placement = placement
        self._validated_trace: AccessTrace | None = None
        self._slots_trace: AccessTrace | None = None
        self._slots: dict[str, tuple[int, int]] | None = None
        self._batch_trace: AccessTrace | None = None
        self._batch = None
        #: Full report of the most recent fault-injected simulate() call
        #: (the details dict carries only the counters).
        self._last_fault_report = None

    @property
    def last_fault_report(self):
        """:class:`repro.dwm.faults.FaultInjectionReport` of the last
        fault-injected run, or ``None``."""
        return self._last_fault_report

    def _ensure_validated(self, trace: AccessTrace) -> None:
        """Validate placement coverage once per trace (identity-cached)."""
        if self._validated_trace is not trace:
            self.placement.validate(self.config, trace.items)
            self._validated_trace = trace

    def _slots_for(self, trace: AccessTrace) -> dict[str, tuple[int, int]]:
        """Resolve every trace item to (dbc, offset), validating coverage."""
        if self._slots_trace is trace and self._slots is not None:
            return self._slots
        self._ensure_validated(trace)
        slots = {
            item: (slot.dbc, slot.offset)
            for item, slot in self.placement.items()
        }
        self._slots_trace = trace
        self._slots = slots
        return slots

    def _batch_for(self, trace: AccessTrace):
        """Vectorized simulator with the trace resolved (identity-cached)."""
        if self._batch_trace is not trace:
            self._batch = BatchSimulator(trace)
            self._batch_trace = trace
        return self._batch

    def simulate(
        self,
        trace: AccessTrace,
        engine: str = "auto",
        fault_model=None,
        chunk_size: int | None = None,
        jobs: int | None = None,
    ) -> SimulationResult:
        """Run ``trace`` on the counters-only engine.

        ``engine`` selects the implementation: ``"scalar"`` replays access
        by access through :class:`DWMArrayModel`, ``"vectorized"`` uses the
        numpy engine of :mod:`repro.memory.batch_sim` (bit-identical
        counts), ``"streaming"`` scans fixed-size windows through
        :mod:`repro.memory.stream_sim` in bounded memory (``chunk_size``
        accesses per window; ``jobs > 1`` fans chunk scans over the
        persistent worker pool), and ``"auto"`` picks vectorized for
        in-memory traces of at least :data:`VECTORIZED_MIN_ACCESSES`
        accesses — or streaming when ``trace`` is a
        :class:`~repro.trace.binio.StreamingTrace`.

        ``fault_model`` (a :class:`repro.dwm.faults.FaultModel`) switches on
        Monte-Carlo shift-fault injection: a seeded fault schedule is drawn
        over the run's shift stream and replayed through the detection/
        correction model, and the resulting counters land in
        ``details["faults"]``.  The schedule is a pure function of (seed,
        trace, config) and the bit-identical cost stream, so both engines
        report the same faults.  Fault injection needs the materialised
        per-access cost stream, so it is not available on the streaming
        engine.
        """
        from repro.trace.binio import StreamingTrace

        if engine not in ("auto", "scalar", "vectorized", "streaming"):
            raise SimulationError(
                f"unknown simulation engine {engine!r}; "
                "expected 'auto', 'scalar', 'vectorized' or 'streaming'"
            )
        # The degradation chain streaming -> vectorized -> scalar engages
        # only for the policy-driven "auto" selection: an explicitly
        # requested engine is a user override the library must not
        # second-guess (e.g. streaming may be the only engine whose memory
        # footprint fits the box).
        auto_selected = engine == "auto"
        if isinstance(trace, StreamingTrace):
            if engine == "auto":
                engine = "streaming"
            elif engine != "streaming":
                raise SimulationError(
                    f"engine {engine!r} needs an in-memory trace; "
                    "use engine='streaming' (or materialise with "
                    "trace.to_trace())"
                )
        if engine == "streaming":
            if fault_model is not None:
                raise SimulationError(
                    "fault injection is not supported on the streaming "
                    "engine; use engine='vectorized' (per-access cost "
                    "streams need the materialised trace)"
                )
            from repro.memory.stream_sim import (
                DEFAULT_CHUNK_SIZE,
                simulate_streaming,
            )

            registry = get_registry()
            registry.inc("sim.runs", engine="streaming")
            registry.inc("sim.accesses", len(trace), engine="streaming")
            try:
                with trace_span("simulate", engine="streaming"):
                    self._ensure_validated(trace)
                    return simulate_streaming(
                        trace,
                        self.config,
                        self.placement,
                        chunk_size=chunk_size or DEFAULT_CHUNK_SIZE,
                        jobs=jobs,
                        validate=False,
                    )
            except Exception as exc:
                from repro.robust import is_recoverable, record_degradation

                if not auto_selected or not is_recoverable(exc):
                    raise
                record_degradation(
                    "engine",
                    "streaming",
                    "vectorized",
                    f"{type(exc).__name__}: {exc}",
                )
                # Materialising defeats streaming's memory bound, but the
                # counters are bit-identical across engines, so the run
                # still completes with the correct result.
                if isinstance(trace, StreamingTrace):
                    trace = trace.to_trace()
                engine = "auto"
        if engine == "auto":
            engine = (
                "vectorized"
                if len(trace) >= VECTORIZED_MIN_ACCESSES
                else "scalar"
            )
        registry = get_registry()
        registry.inc("sim.runs", engine=engine)
        registry.inc("sim.accesses", len(trace), engine=engine)
        if engine == "vectorized":
            try:
                with trace_span("simulate", engine="vectorized"):
                    self._ensure_validated(trace)
                    batch = self._batch_for(trace)
                    result = batch.simulate(
                        self.config, self.placement, validate=False
                    )
                    if fault_model is not None:
                        dbc_seq, cost_seq = batch.access_costs(
                            self.config, self.placement, validate=False
                        )
                        result.details["faults"] = self._inject_faults(
                            trace, fault_model, dbc_seq, cost_seq
                        )
                return result
            except Exception as exc:
                from repro.robust import is_recoverable, record_degradation

                if not auto_selected or not is_recoverable(exc):
                    raise
                record_degradation(
                    "engine",
                    "vectorized",
                    "scalar",
                    f"{type(exc).__name__}: {exc}",
                )
        with trace_span("simulate", engine="scalar") as span:
            slots = self._slots_for(trace)
            array = DWMArrayModel(self.config)
            max_access_shifts = 0
            dbc_seq: list[int] | None = [] if fault_model is not None else None
            cost_seq: list[int] | None = [] if fault_model is not None else None
            for access in trace:
                dbc, offset = slots[access.item]
                result = array.access(dbc, offset, is_write=access.is_write)
                if result.shifts > max_access_shifts:
                    max_access_shifts = result.shifts
                if dbc_seq is not None:
                    dbc_seq.append(dbc)
                    cost_seq.append(result.shifts)
            stats = array.stats()
        registry.observe("sim.scan.seconds", span.seconds, engine="scalar")
        details: dict = {"engine": "scalar"}
        if fault_model is not None:
            details["faults"] = self._inject_faults(
                trace, fault_model, dbc_seq, cost_seq
            )
        return SimulationResult(
            trace_name=trace.name,
            config_description=self.config.describe(),
            shifts=stats.shifts,
            reads=stats.reads,
            writes=stats.writes,
            per_dbc_shifts=tuple(stats.per_dbc_shifts),
            max_access_shifts=max_access_shifts,
            details=details,
        )

    def _inject_faults(self, trace, fault_model, dbc_seq, cost_seq) -> dict:
        """Run the Monte-Carlo injector over one engine's cost stream."""
        from repro.dwm.faults import injection_seed, run_injection

        report = run_injection(
            dbc_seq,
            cost_seq,
            self.config.num_dbcs,
            fault_model,
            injection_seed(fault_model, trace, self.config),
        )
        self._last_fault_report = report
        return report.as_details()

    def simulate_functional(self, trace: AccessTrace) -> SimulationResult:
        """Run ``trace`` on the full device model with data-integrity checks.

        Each write stores a per-item sequence number; each read verifies the
        stored value matches the last write to that item (or the initial
        zero).  A mismatch means the device model corrupted data and raises
        :class:`SimulationError`.
        """
        slots = self._slots_for(trace)
        array = DWMArray(self.config)
        expected: dict[str, int] = {}
        max_access_shifts = 0
        mask = (1 << self.config.bits_per_word) - 1
        next_token = 1
        for position, access in enumerate(trace):
            dbc, offset = slots[access.item]
            if access.is_write:
                token = next_token & mask
                next_token += 1
                result = array.write(dbc, offset, token)
                expected[access.item] = token
            else:
                result = array.read(dbc, offset)
                want = expected.get(access.item, 0)
                if result.value != want:
                    raise SimulationError(
                        f"data corruption at access #{position} "
                        f"({access.item}): read {result.value}, "
                        f"expected {want}"
                    )
            if result.shifts > max_access_shifts:
                max_access_shifts = result.shifts
        stats = array.stats()
        return SimulationResult(
            trace_name=trace.name,
            config_description=self.config.describe(),
            shifts=stats.shifts,
            reads=stats.reads,
            writes=stats.writes,
            per_dbc_shifts=tuple(stats.per_dbc_shifts),
            max_access_shifts=max_access_shifts,
            details={"functional": True},
        )


def simulate_placement(
    trace: AccessTrace,
    config: DWMConfig,
    placement: Placement,
    functional: bool = False,
    engine: str = "auto",
) -> SimulationResult:
    """Convenience wrapper: build the SPM and run one trace."""
    spm = ScratchpadMemory(config, placement)
    if functional:
        return spm.simulate_functional(trace)
    return spm.simulate(trace, engine=engine)
