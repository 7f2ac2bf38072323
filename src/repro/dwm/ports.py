"""Port-position co-design: choose where to put the access ports.

The sensitivity experiment (E5) uses evenly spaced ports, but port positions
are themselves a design degree of freedom: for a given workload the best
offsets are the weighted medians of where the placed data is actually
accessed (the 1-D k-medians optimum minimizes total approach distance).
Placement and port positions depend on each other, so
:func:`co_design_ports` alternates the two until a fixed point — a small
design-space tool layered on the library.
"""

from __future__ import annotations

from repro.dwm.config import DWMConfig
from repro.errors import ConfigError, OptimizationError


def weighted_k_medians(
    weights_by_offset: dict[int, int],
    num_ports: int,
    num_offsets: int,
) -> tuple[int, ...]:
    """Optimal 1-D k-medians of an offset histogram (exact DP).

    Minimizes ``Σ_o weight(o) · min_p |o − p|`` over port sets of size
    ``num_ports``; O(k · n²) dynamic program over contiguous segments, which
    is exact because in 1-D each port serves a contiguous offset range.
    """
    if num_ports <= 0:
        raise OptimizationError(f"num_ports must be positive, got {num_ports}")
    if num_ports >= num_offsets:
        return tuple(range(min(num_ports, num_offsets)))
    offsets = list(range(num_offsets))
    weights = [weights_by_offset.get(offset, 0) for offset in offsets]

    def segment_cost_and_median(start: int, end: int) -> tuple[int, int]:
        """Best single-port cost for offsets[start..end] and its median."""
        total = sum(weights[start : end + 1])
        if total == 0:
            median = (start + end) // 2
            return 0, median
        half = total / 2
        cumulative = 0
        median = start
        for offset in range(start, end + 1):
            cumulative += weights[offset]
            if cumulative >= half:
                median = offset
                break
        cost = sum(
            weights[offset] * abs(offset - median)
            for offset in range(start, end + 1)
        )
        return cost, median

    n = num_offsets
    INF = float("inf")
    # best[k][i] = min cost of covering offsets[0..i] with k ports.
    best = [[INF] * n for _ in range(num_ports + 1)]
    choice: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(n):
        cost, median = segment_cost_and_median(0, i)
        best[1][i] = cost
        choice[(1, i)] = (0, median)
    for k in range(2, num_ports + 1):
        for i in range(n):
            for split in range(max(1, k - 1), i + 1):
                cost, median = segment_cost_and_median(split, i)
                candidate = best[k - 1][split - 1] + cost
                if candidate < best[k][i]:
                    best[k][i] = candidate
                    choice[(k, i)] = (split, median)
    # Recover medians.
    medians: list[int] = []
    k, i = num_ports, n - 1
    while k >= 1:
        split, median = choice[(k, i)]
        medians.append(median)
        i = split - 1
        k -= 1
        if i < 0:
            break
    medians.reverse()
    # Deduplicate (possible when empty segments collapse).
    unique: list[int] = []
    for median in medians:
        while median in unique:
            median += 1
            if median >= num_offsets:
                median = next(
                    o for o in range(num_offsets) if o not in unique
                )
        unique.append(median)
    return tuple(sorted(unique))


def access_histogram(problem, placement) -> dict[int, dict[int, int]]:
    """Per-DBC histogram of access counts by offset under a placement."""
    histogram: dict[int, dict[int, int]] = {}
    frequencies = problem.frequencies
    for item, slot in placement.items():
        per_dbc = histogram.setdefault(slot.dbc, {})
        per_dbc[slot.offset] = per_dbc.get(slot.offset, 0) + frequencies.get(item, 0)
    return histogram


def co_design_ports(
    trace,
    num_ports: int = 1,
    words_per_dbc: int = 64,
    rounds: int = 3,
) -> tuple[DWMConfig, "object"]:
    """Alternate placement and port-position optimization to a fixed point.

    Returns ``(config, placement_result)`` with the final port layout and
    the placement optimized for it.  All DBCs share one port layout (as in
    real macros, where the port wiring is identical per cluster); the
    aggregated cross-DBC access histogram drives the k-medians step.
    """
    from repro.core.api import build_problem, optimize_placement

    if rounds < 1:
        raise OptimizationError(f"rounds must be >= 1, got {rounds}")
    config = DWMConfig.for_items(
        trace.num_items, words_per_dbc=words_per_dbc, num_ports=num_ports
    )
    best_result = optimize_placement(trace, config, method="heuristic")
    best_config = config
    for _ in range(rounds):
        problem = build_problem(trace, best_config)
        histogram = access_histogram(problem, best_result.placement)
        merged: dict[int, int] = {}
        for per_dbc in histogram.values():
            for offset, weight in per_dbc.items():
                merged[offset] = merged.get(offset, 0) + weight
        ports = weighted_k_medians(merged, num_ports, best_config.words_per_dbc)
        try:
            candidate_config = DWMConfig(
                words_per_dbc=best_config.words_per_dbc,
                num_dbcs=best_config.num_dbcs,
                port_offsets=ports,
                port_policy=best_config.port_policy,
            )
        except ConfigError:  # pragma: no cover - k-medians yields valid ports
            break
        candidate = optimize_placement(trace, candidate_config, method="heuristic")
        if candidate.total_shifts < best_result.total_shifts:
            best_result = candidate
            best_config = candidate_config
        else:
            break
    return best_config, best_result
