"""The paper's contribution: shift-minimizing data placement for DWM.

The package re-exports only the placement front door that
:mod:`repro` itself exposes; everything else is imported from its
submodule (``repro.core.exact``, ``repro.core.cpsat``, …).
"""

from repro.core.api import (
    ALGORITHMS,
    build_problem,
    compare_methods,
    optimize_placement,
)
from repro.core.cost import evaluate_placement
from repro.core.heuristic import heuristic_placement
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem, PlacementResult

__all__ = [
    "ALGORITHMS",
    "Placement",
    "PlacementProblem",
    "PlacementResult",
    "Slot",
    "build_problem",
    "compare_methods",
    "evaluate_placement",
    "heuristic_placement",
    "optimize_placement",
]
