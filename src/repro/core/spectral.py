"""Spectral sequencing comparator (Fiedler-vector ordering).

A literature-standard polynomial heuristic for Minimum Linear Arrangement:
sort items by their component in the second-smallest eigenvector of the
affinity graph's Laplacian.  Included as an additional comparison point for
the main-result experiment — the paper's greedy heuristic should match or
beat it at far lower cost.

Disconnected affinity graphs are handled per connected component (components
are concatenated by decreasing total access weight), and items that never
neighbour anything keep first-touch order at the tail.
"""

from __future__ import annotations

from repro.core.ordering import anchored_offsets
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem


def _connected_components(problem: PlacementProblem) -> list[list[str]]:
    """Connected components of the affinity graph, first-touch ordered.

    Walks :attr:`PlacementProblem.neighbors`, whose iteration order is
    fixed, so the components (and the Fiedler orders built on them) do not
    depend on string hashing.
    """
    neighbors = problem.neighbors
    seen: set[str] = set()
    components: list[list[str]] = []
    for item in problem.items:
        if item in seen:
            continue
        stack = [item]
        component = []
        seen.add(item)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in neighbors[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(component)
    return components


def fiedler_order(
    items: list[str],
    affinity: dict[tuple[str, str], int],
) -> list[str]:
    """Order one connected component by its Fiedler vector."""
    import numpy as np

    n = len(items)
    if n <= 2:
        return list(items)
    index = {item: i for i, item in enumerate(items)}
    weights = np.zeros((n, n))
    for (left, right), weight in affinity.items():
        if left in index and right in index and left != right:
            i, j = index[left], index[right]
            weights[i, j] += weight
            weights[j, i] += weight
    laplacian = np.diag(weights.sum(axis=1)) - weights
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    # Second-smallest eigenvalue's eigenvector (Fiedler vector).
    fiedler = eigenvectors[:, 1]
    ranked = sorted(range(n), key=lambda i: (fiedler[i], i))
    return [items[i] for i in ranked]


def spectral_placement(problem: PlacementProblem) -> Placement:
    """Spectral ordering split into contiguous DBC-sized chunks.

    The global spectral order keeps affine items adjacent, so cutting it into
    blocks of ``L`` doubles as a (weak) grouping; each block is port-anchored
    like the heuristic's chains.
    """
    frequencies = problem.frequencies
    components = _connected_components(problem)
    components.sort(
        key=lambda component: -sum(frequencies.get(item, 0) for item in component)
    )
    order: list[str] = []
    for component in components:
        order.extend(fiedler_order(component, problem.affinity))
    length = problem.config.words_per_dbc
    mapping: dict[str, Slot] = {}
    for dbc, start in enumerate(range(0, len(order), length)):
        block = order[start : start + length]
        offsets = anchored_offsets(block, problem.config, frequencies)
        for item, offset in offsets.items():
            mapping[item] = Slot(dbc, offset)
    return Placement(mapping)
