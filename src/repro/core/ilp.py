"""The paper's ILP formulation of shift-minimizing placement, as LP text.

The published work formulates optimal data placement as an integer linear
program and solves small instances with a commercial solver.  The
*formulation itself* is a reproduction artifact: :func:`minla_lp_text`
writes it in the standard CPLEX ``.lp`` text format straight from the
affinity graph, so any external solver can consume it
(``repro place --export-ilp``).

Formulation (single DBC — the MinLA core; DESIGN.md §4):

* binaries ``x_i_k`` — item ``i`` sits at position ``k``;
* assignment constraints — each item takes exactly one position
  (``item_i``), each position exactly one item (``pos_k``);
* continuous ``d_a_b ∈ [0, n−1]`` for every affinity pair, tied to
  ``|pos(a) − pos(b)|`` by the linearized rows ``absf_a_b``
  (``d ≥ pos(a) − pos(b)``) and ``absb_a_b`` (``d ≥ pos(b) − pos(a)``)
  with ``pos(v) = Σ_k k·x_v_k``;
* objective — minimize ``Σ w(a,b)·d_a_b``.

At any optimum each ``d_a_b`` is tight (the objective presses it down onto
the larger of its two bounds), so the ILP optimum equals the MinLA optimum;
``tests/test_ilp.py`` checks that on the exported text, permutation by
permutation, against the subset DP.  In-process solving is
:func:`repro.core.cpsat.solve_minla` (CP-SAT, else the subset DP).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import OptimizationError


def _row(terms: dict[str, int]) -> str:
    """LP rendering of ``Σ coef·var`` (sorted by name, zero terms dropped)."""
    parts = [
        f"{'+' if m >= 0 else '-'} {'' if abs(m) == 1 else f'{abs(m):g} '}{name}"
        for name, m in sorted(terms.items())
        if m != 0
    ]
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def minla_lp_text(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
) -> tuple[str, int, int]:
    """The single-DBC placement ILP in CPLEX LP format.

    Returns ``(text, num_vars, num_constraints)``.  Raises
    :class:`~repro.errors.OptimizationError` for an empty item list.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        raise OptimizationError("cannot build an ILP over zero items")
    index = {item: i for i, item in enumerate(items)}
    rows = [
        (f"item_{i}", {f"x_{i}_{k}": 1 for k in range(n)}, "=", 1)
        for i in range(n)
    ]
    rows += [
        (f"pos_{k}", {f"x_{i}_{k}": 1 for i in range(n)}, "=", 1)
        for k in range(n)
    ]
    pairs = sorted(
        (index[left], index[right], weight)
        for (left, right), weight in affinity.items()
        if left in index and right in index and left != right and weight > 0
    )
    objective: dict[str, int] = {}
    distances: list[str] = []
    for i, j, weight in pairs:
        a, b = min(i, j), max(i, j)
        d = f"d_{a}_{b}"
        distances.append(d)
        # absf: d - pos(a) + pos(b) >= 0;  absb: d + pos(a) - pos(b) >= 0.
        for name, sign in ((f"absf_{a}_{b}", -1), (f"absb_{a}_{b}", 1)):
            terms = {d: 1}
            for k in range(n):
                terms[f"x_{a}_{k}"] = sign * k
                terms[f"x_{b}_{k}"] = -sign * k
            rows.append((name, terms, ">=", 0))
        objective[d] = objective.get(d, 0) + weight
    lines = [
        "\\ dwm-placement-minla",
        "Minimize",
        f" obj: {_row(objective)}",
        "Subject To",
    ]
    lines += [
        f" {name}: {_row(terms)} {sense} {rhs:g}"
        for name, terms, sense, rhs in rows
    ]
    if distances:
        lines.append("Bounds")
        lines += [f" 0 <= {d} <= {n - 1:g}" for d in distances]
    binaries = [f"x_{i}_{k}" for i in range(n) for k in range(n)]
    lines += ["Binary", *(f" {x}" for x in binaries), "End"]
    return "\n".join(lines) + "\n", len(binaries) + len(distances), len(rows)
