"""Speculative pre-shifting: hide shift latency behind idle time.

A DWM controller that knows (or predicts) the next offset a DBC will serve
can start shifting *before* the demand access arrives; a correct prediction
turns demand shifts into background work that overlaps computation.  The
standard proposal in the racetrack literature pairs a small per-DBC
next-offset predictor with speculative shifting during idle cycles.

Model (deliberately conservative):

* a **first-order Markov predictor** per DBC maps the last offset served to
  the most frequently observed successor (learned online — no oracle);
* after each demand access the controller speculatively shifts to the
  predicted next offset's alignment;
* a correct prediction makes the next demand access's shifts **free in
  latency** (they already happened); a wrong one leaves the head where the
  speculation put it, and the demand access pays the (possibly larger)
  distance from there;
* *every* speculative shift still costs **energy** — the model accounts
  latency-critical (demand) shifts and speculative shifts separately so the
  latency/energy trade is explicit (experiment E17).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dwm.config import PortPolicy
from repro.dwm.dbc import port_access_cost
from repro.errors import OptimizationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dwm <- core)
    from repro.core.placement import Placement
    from repro.core.problem import PlacementProblem


class NextOffsetPredictor:
    """Per-DBC first-order Markov predictor over offsets (online counts)."""

    def __init__(self) -> None:
        self._counts: dict[tuple[int, int], dict[int, int]] = defaultdict(dict)
        self._last: dict[int, int] = {}

    def predict(
        self,
        dbc: int,
        confidence: float = 0.6,
        min_observations: int = 2,
    ) -> int | None:
        """Most likely next offset for ``dbc``, gated by confidence.

        Returns None before any history, or when the best successor has
        fewer than ``min_observations`` sightings or less than
        ``confidence`` of the transition row's mass — speculating on a weak
        signal moves the head the wrong way more often than it helps.
        """
        last = self._last.get(dbc)
        if last is None:
            return None
        successors = self._counts.get((dbc, last))
        if not successors:
            return None
        offset, count = max(
            successors.items(), key=lambda kv: (kv[1], -kv[0])
        )
        total = sum(successors.values())
        if count < min_observations or count < confidence * total:
            return None
        return offset

    def observe(self, dbc: int, offset: int) -> None:
        """Record a demand access (updates the transition table)."""
        last = self._last.get(dbc)
        if last is not None:
            row = self._counts[(dbc, last)]
            row[offset] = row.get(offset, 0) + 1
        self._last[dbc] = offset


@dataclass(frozen=True)
class PreshiftResult:
    """Latency/energy accounting of a pre-shifting run."""

    demand_shifts: int
    speculative_shifts: int
    baseline_demand_shifts: int
    predictions: int
    correct_predictions: int

    @property
    def total_energy_shifts(self) -> int:
        """All shift work performed (demand + speculative)."""
        return self.demand_shifts + self.speculative_shifts

    @property
    def latency_reduction_percent(self) -> float:
        if not self.baseline_demand_shifts:
            return 0.0
        return 100.0 * (
            self.baseline_demand_shifts - self.demand_shifts
        ) / self.baseline_demand_shifts

    @property
    def energy_overhead_percent(self) -> float:
        if not self.baseline_demand_shifts:
            return 0.0
        return 100.0 * (
            self.total_energy_shifts - self.baseline_demand_shifts
        ) / self.baseline_demand_shifts

    @property
    def prediction_accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return self.correct_predictions / self.predictions


def simulate_preshift(
    problem: "PlacementProblem",
    placement: "Placement",
) -> PreshiftResult:
    """Run the trace with the speculative pre-shifting controller.

    Requires the lazy policy (eager controllers re-home the head anyway).
    """
    config = problem.config
    if config.port_policy is not PortPolicy.LAZY:
        raise OptimizationError("pre-shifting requires the lazy shift policy")
    placement.validate(config, problem.items)
    ports = config.port_offsets

    predictor = NextOffsetPredictor()
    heads: dict[int, int] = {}
    baseline_heads: dict[int, int] = {}
    pending_prediction: dict[int, int] = {}  # dbc -> predicted offset
    demand_shifts = 0
    speculative_shifts = 0
    baseline_demand = 0
    predictions = 0
    correct = 0
    for access in trace_iter(problem):
        slot = placement[access.item]
        dbc, offset = slot.dbc, slot.offset
        # Baseline (no speculation) demand cost, for the comparison column.
        base_head = baseline_heads.get(dbc, 0)
        base_cost, _port, base_target = port_access_cost(
            offset, base_head, ports
        )
        baseline_demand += base_cost
        baseline_heads[dbc] = base_target
        # Speculative controller.
        head = heads.get(dbc, 0)
        cost, _port, target = port_access_cost(offset, head, ports)
        demand_shifts += cost
        heads[dbc] = target
        predicted = pending_prediction.pop(dbc, None)
        if predicted is not None:
            predictions += 1
            if predicted == offset:
                correct += 1
        predictor.observe(dbc, offset)
        next_offset = predictor.predict(dbc)
        if next_offset is not None and next_offset != offset:
            speculative_cost, _port, speculative_target = port_access_cost(
                next_offset, heads[dbc], ports
            )
            speculative_shifts += speculative_cost
            heads[dbc] = speculative_target
            pending_prediction[dbc] = next_offset
    return PreshiftResult(
        demand_shifts=demand_shifts,
        speculative_shifts=speculative_shifts,
        baseline_demand_shifts=baseline_demand,
        predictions=predictions,
        correct_predictions=correct,
    )


def trace_iter(problem: PlacementProblem):
    """The problem's trace, as an iterator (seam for tests)."""
    return iter(problem.trace)
