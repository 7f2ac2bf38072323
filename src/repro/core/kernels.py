"""The lazy port walk, in two interchangeable tiers.

The lazy shift-cost replay is a deterministic automaton: after any access
the head sits at ``offset − p`` for the port ``p`` chosen greedily (ties
break to the lowest port).  This module holds the only fast
implementations of that walk, each behind the same entry points:

1. **cc** — an embedded C translation built with the system C compiler
   into a content-hash-cached shared library loaded via :mod:`ctypes`
   (no new dependencies; the ``.so`` is cached under
   ``$REPRO_KERNEL_CACHE`` or ``~/.cache/repro-dwm/kernels``).  One fused
   single pass per call.
2. **numpy** — the fallback for hosts without a C compiler: position diffs
   for one port, a closed form for two ports
   (:func:`two_port_access_costs_numpy`) and a Hillis–Steele scan for
   ``P ≥ 3`` (:func:`multi_port_access_costs_numpy`).

:func:`active` resolves the tier lazily on first use and always returns
one.  Both tiers are **bit-identical** to the scalar reference
(:func:`repro.dwm.dbc.port_access_cost` greedy walk): integer math only,
strict ``<`` tie-breaking.  Identity is policed by ``tests/test_kernels.py``
and the ``repro fuzz`` kernel-parity oracle
(:func:`repro.verify.oracles.check_kernel_parity`), which check every
available tier against :func:`multi_port_access_costs_numpy`.

Environment knobs:

* ``REPRO_KERNEL=auto|cc|numpy`` — pin a tier; ``auto`` and ``cc`` fall
  through to ``numpy`` when no C compiler is available, and any other
  value selects ``numpy`` with an "unknown" note.
* ``REPRO_KERNEL_CACHE`` — directory for compiled ``.so`` artifacts.

Four walk entry points, shared by the incremental evaluator, the planner
and the simulation engines:

* ``lazy_scan(codes, dbc_of, offset_of, ports, state, out)`` — one
  interleaved pass over a window of accesses in trace order, access ``t``
  on DBC ``dbc_of[codes[t]]`` at ``offset_of[codes[t]]``, advancing a
  :class:`ScanState` that keeps one head per DBC.  ``codes`` are int64
  item indices or raw ``uint32`` ``.rtb`` records, whose write bit the
  scan masks and counts.  *Carried* states price every access (per-DBC
  totals and maxima, per-access costs into ``out``) and carry the heads
  to the next window; *conditioned* states keep ``P`` lanes per DBC,
  one per port that may have served the DBC's first access — the chunk
  summary of :mod:`repro.memory.stream_sim`'s merge mode.  The cc tier
  never sorts by DBC; the numpy tier groups the window by DBC with a
  stable sort and walks each group with :func:`lazy_costs_from_state`;
* ``lazy_costs(offsets, ports, out)`` — per-access costs of one replay;
* ``lazy_chain_cost(positions, item_at, offset_of, ports)`` — total cost
  of the chain ``offset_of[item_at[positions[t]]]`` (``bind_chain`` binds
  its arrays once for repeated pricing of the same chain);
* ``lazy_merge_cost(base, skip, add, item_at, offset_of, ports)`` —
  total cost of the chain over ``(base \\ skip) ∪ add`` positions (all
  three inputs ascending; ``skip ⊆ base``, ``add`` disjoint from
  ``base``).  This is the delta-probe kernel: cc merges on the fly, numpy
  drops ``skip`` through a ``searchsorted`` mask and sorts in ``add``.

Three row probes price a whole row of local-search candidates in one call
(``lazy_swap_row``, ``lazy_move_row``, ``lazy_reversal_row``).  They read a
:class:`RowLayout` — per-item and per-DBC position CSRs plus the DBCs'
current costs — and, per candidate, write the hypothetical offsets into
``offset_of``, walk only the affected DBCs with the chain or merge walk
above, and restore ``offset_of``.  The cc tier runs the row in C (one
ctypes call instead of one per candidate); the numpy tier loops over its
own chain and merge walks.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

#: Environment variable pinning the tier (auto|cc|numpy).
KERNEL_ENV = "REPRO_KERNEL"

#: Environment variable overriding the compiled-artifact cache directory.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

_C_SOURCE = r"""
#include <stdint.h>

/* Branchless |v|: the greedy pick below is data-dependent, so any branch
   on it mispredicts ~50% on low-locality traces. */
static inline int64_t iabs64(int64_t v) {
    int64_t m = v >> 63;
    return (v + m) ^ m;
}

/* The greedy port step from *head, branchless (strict < keeps the lower
   port on ties): returns the cost and moves the head.  Every walk below
   inlines it with num_ports a constant where it can, so the compiler
   unrolls the port loop. */
static inline __attribute__((always_inline))
int64_t lazy_step(int64_t offset, int64_t *head,
                  const int64_t *ports, int64_t num_ports)
{
    int64_t h = *head, p;
    int64_t best_target = offset - ports[0];
    int64_t best_cost = iabs64(best_target - h);
    for (p = 1; p < num_ports; ++p) {
        int64_t target = offset - ports[p];
        int64_t c = iabs64(target - h);
        int64_t take = -(int64_t)(c < best_cost);
        best_cost = (c & take) | (best_cost & ~take);
        best_target = (target & take) | (best_target & ~take);
    }
    *head = best_target;
    return best_cost;
}

/* FN(args..., num_ports), with num_ports a literal for one and two
   ports so each call site gets its own unrolled copy. */
#define BY_PORTS(FN, ...)                                                  \
    (num_ports == 1   ? FN(__VA_ARGS__, 1)                                 \
     : num_ports == 2 ? FN(__VA_ARGS__, 2)                                 \
                      : FN(__VA_ARGS__, num_ports))

static inline __attribute__((always_inline))
int64_t chain_impl(const int64_t *positions, int64_t n,
                   const int64_t *item_at, const int64_t *offset_of,
                   const int64_t *ports, int64_t num_ports)
{
    int64_t head = 0, total = 0, t;
    for (t = 0; t < n; ++t)
        total += lazy_step(offset_of[item_at[positions[t]]], &head, ports,
                           num_ports);
    return total;
}

/* Fused gather + walk from head 0: the replayed offset sequence is
   offset_of[item_at[positions[t]]].  No intermediates. */
int64_t repro_lazy_chain_cost(const int64_t *positions, int64_t n,
                              const int64_t *item_at,
                              const int64_t *offset_of,
                              const int64_t *ports, int64_t num_ports)
{
    return BY_PORTS(chain_impl, positions, n, item_at, offset_of, ports);
}

static inline __attribute__((always_inline))
int64_t merge_impl(const int64_t *base, int64_t nb,
                   const int64_t *skip, int64_t ns,
                   const int64_t *add, int64_t na,
                   const int64_t *item_at, const int64_t *offset_of,
                   const int64_t *ports, int64_t num_ports)
{
    int64_t ib = 0, is = 0, ia = 0, head = 0, total = 0;
    for (;;) {
        int64_t pos;
        while (ib < nb && is < ns && base[ib] == skip[is]) { ++ib; ++is; }
        if (ib < nb && (ia >= na || base[ib] < add[ia])) {
            pos = base[ib++];
        } else if (ia < na) {
            pos = add[ia++];
        } else {
            break;
        }
        total += lazy_step(offset_of[item_at[pos]], &head, ports, num_ports);
    }
    return total;
}

/* Walk over (base \ skip) | add without materialising the merged array.
   base/skip/add ascending; skip is a subset of base; add is disjoint
   from base.  Offsets come from offset_of[item_at[pos]]. */
int64_t repro_lazy_merge_cost(const int64_t *base, int64_t nb,
                              const int64_t *skip, int64_t ns,
                              const int64_t *add, int64_t na,
                              const int64_t *item_at,
                              const int64_t *offset_of,
                              const int64_t *ports, int64_t num_ports)
{
    return BY_PORTS(merge_impl, base, nb, skip, ns, add, na, item_at,
                    offset_of, ports);
}

/* The interleaved scan body, inlined once per (records, num_ports,
   conditioned) combination the dispatcher below names, so the
   per-access loop has no mode tests left in it. */
static inline __attribute__((always_inline))
int64_t lazy_scan_impl(const void *codes, int64_t n, int records,
                       int conditioned,
                       const int64_t *restrict dbc_of, int64_t num_items,
                       const int64_t *restrict offset_of,
                       const int64_t *restrict ports,
                       int64_t *restrict heads, int64_t *restrict totals,
                       int64_t *restrict maxes, int64_t *restrict counts,
                       int64_t *restrict first, int64_t *restrict out,
                       int64_t num_ports)
{
    const uint32_t *raw = (const uint32_t *)codes;
    const int64_t *items = (const int64_t *)codes;
    int64_t writes = 0, t, q;
    for (t = 0; t < n; ++t) {
        int64_t code, d, offset;
        if (records) {
            uint32_t word = raw[t];
            writes += word >> 31;
            code = (int64_t)(word & 0x7fffffffu);
        } else {
            code = items[t];
        }
        if ((uint64_t)code >= (uint64_t)num_items) return -1 - t;
        d = dbc_of[code];
        offset = offset_of[code];
        if (!conditioned) {
            int64_t cost = lazy_step(offset, heads + d, ports, num_ports);
            totals[d] += cost;
            if (cost > maxes[d]) maxes[d] = cost;
            if (out) out[t] = cost;
            continue;
        }
        {
            int64_t *lane_heads = heads + d * num_ports;
            int64_t *lane_totals = totals + d * num_ports;
            int64_t *lane_maxes = maxes + d * num_ports;
            if (counts[d]++ == 0) {
                first[d] = offset;
                for (q = 0; q < num_ports; ++q)
                    lane_heads[q] = offset - ports[q];
                continue;
            }
            for (q = 0; q < num_ports; ++q) {
                int64_t cost = lazy_step(offset, lane_heads + q, ports,
                                         num_ports);
                lane_totals[q] += cost;
                if (cost > lane_maxes[q]) lane_maxes[q] = cost;
            }
        }
    }
    return writes;
}

/* One interleaved lazy scan of a window of accesses in trace order.
   codes[t] names access t's item: a uint32 .rtb record when records != 0
   (bit 31 is the write flag, masked here and counted), else an int64
   item index.  The item sits on DBC dbc_of[code] at offset_of[code].
   Carried (conditioned == 0): heads/totals/maxes hold one entry per DBC;
   every access is priced from its DBC's head and out[t] (may be NULL)
   receives its cost.  Conditioned: P = num_ports lanes per DBC at
   d * P + p; a DBC's first access (counts[d] == 0) records first[d] and
   puts lane p's head at first[d] - ports[p], unpriced; every later access
   is priced on every lane; counts[d] counts DBC d's accesses (carried
   scans leave counts alone).  The mode is the conditioned flag, never
   the lane count: a
   one-port conditioned scan still leaves its first accesses unpriced.
   Returns the number of writes, or -1 - t when access t names an item
   outside [0, num_items). */
int64_t repro_lazy_scan(const void *codes, int64_t n, int64_t records,
                        const int64_t *dbc_of, int64_t num_items,
                        const int64_t *offset_of,
                        const int64_t *ports, int64_t num_ports,
                        int64_t conditioned,
                        int64_t *heads, int64_t *totals, int64_t *maxes,
                        int64_t *counts, int64_t *first, int64_t *out)
{
#define SCAN(RECORDS, COND)                                                \
    BY_PORTS(lazy_scan_impl, codes, n, RECORDS, COND, dbc_of, num_items,   \
             offset_of, ports, heads, totals, maxes, counts, first, out)
    if (conditioned) return records ? SCAN(1, 1) : SCAN(0, 1);
    return records ? SCAN(1, 0) : SCAN(0, 0);
#undef SCAN
}

/* Row probes: one call prices a whole row of local-search candidates
   (docs/COST_MODEL.md §5).  Layout: item i's ascending trace positions are
   item_pos[item_start[i] .. item_start[i+1]), DBC d's merged positions are
   dbc_pos[dbc_start[d] .. dbc_start[d+1]), d's current cost is dbc_cost[d]
   and item i sits on DBC item_dbc[i].  Each candidate writes its
   hypothetical offsets into offset_of, walks only the affected DBCs
   (COST_MODEL.md §2) and restores offset_of before the next candidate;
   out[c] receives candidate c's exact cost delta. */

/* Swap item a with each of partners[0 .. count). */
void repro_lazy_swap_row(int64_t a, const int64_t *partners, int64_t count,
                         const int64_t *item_pos, const int64_t *item_start,
                         const int64_t *item_dbc, const int64_t *dbc_pos,
                         const int64_t *dbc_start, const int64_t *dbc_cost,
                         const int64_t *item_at, int64_t *offset_of,
                         const int64_t *ports, int64_t num_ports,
                         int64_t *out)
{
    int64_t da = item_dbc[a], off_a = offset_of[a], c;
    const int64_t *pos_a = item_pos + item_start[a];
    int64_t n_a = item_start[a + 1] - item_start[a];
    const int64_t *base_a = dbc_pos + dbc_start[da];
    int64_t nb_a = dbc_start[da + 1] - dbc_start[da];
    for (c = 0; c < count; ++c) {
        int64_t b = partners[c], db = item_dbc[b], off_b = offset_of[b];
        offset_of[a] = off_b;
        offset_of[b] = off_a;
        if (db == da) {
            out[c] = repro_lazy_chain_cost(base_a, nb_a, item_at, offset_of,
                                           ports, num_ports)
                     - dbc_cost[da];
        } else {
            const int64_t *pos_b = item_pos + item_start[b];
            int64_t n_b = item_start[b + 1] - item_start[b];
            out[c] = repro_lazy_merge_cost(base_a, nb_a, pos_a, n_a,
                                           pos_b, n_b, item_at, offset_of,
                                           ports, num_ports)
                     + repro_lazy_merge_cost(dbc_pos + dbc_start[db],
                                             dbc_start[db + 1] - dbc_start[db],
                                             pos_b, n_b, pos_a, n_a,
                                             item_at, offset_of,
                                             ports, num_ports)
                     - dbc_cost[da] - dbc_cost[db];
        }
        offset_of[a] = off_a;
        offset_of[b] = off_b;
    }
}

/* Move item a to each slot (slot_dbc[c], slot_offset[c]). */
void repro_lazy_move_row(int64_t a, const int64_t *slot_dbc,
                         const int64_t *slot_offset, int64_t count,
                         const int64_t *item_pos, const int64_t *item_start,
                         const int64_t *item_dbc, const int64_t *dbc_pos,
                         const int64_t *dbc_start, const int64_t *dbc_cost,
                         const int64_t *item_at, int64_t *offset_of,
                         const int64_t *ports, int64_t num_ports,
                         int64_t *out)
{
    int64_t da = item_dbc[a], off_a = offset_of[a], c;
    const int64_t *pos_a = item_pos + item_start[a];
    int64_t n_a = item_start[a + 1] - item_start[a];
    const int64_t *base_a = dbc_pos + dbc_start[da];
    int64_t nb_a = dbc_start[da + 1] - dbc_start[da];
    /* a's DBC without a costs the same for every cross-DBC target. */
    int64_t without_a = -1;
    for (c = 0; c < count; ++c) {
        int64_t d = slot_dbc[c];
        offset_of[a] = slot_offset[c];
        if (d == da) {
            out[c] = repro_lazy_chain_cost(base_a, nb_a, item_at, offset_of,
                                           ports, num_ports)
                     - dbc_cost[da];
        } else {
            if (without_a < 0) {
                without_a = repro_lazy_merge_cost(base_a, nb_a, pos_a, n_a,
                                                  0, 0, item_at, offset_of,
                                                  ports, num_ports);
            }
            out[c] = without_a
                     + repro_lazy_merge_cost(dbc_pos + dbc_start[d],
                                             dbc_start[d + 1] - dbc_start[d],
                                             0, 0, pos_a, n_a,
                                             item_at, offset_of,
                                             ports, num_ports)
                     - dbc_cost[da] - dbc_cost[d];
        }
        offset_of[a] = off_a;
    }
}

/* Reverse the segment seg[0 .. k] of DBC d for each k in [first, length):
   the item seg_items[s], now at seg_offsets[s], moves to
   seg_offsets[k - s]. */
void repro_lazy_reversal_row(int64_t d, const int64_t *seg_items,
                             const int64_t *seg_offsets, int64_t length,
                             int64_t first,
                             const int64_t *dbc_pos, const int64_t *dbc_start,
                             const int64_t *dbc_cost,
                             const int64_t *item_at, int64_t *offset_of,
                             const int64_t *ports, int64_t num_ports,
                             int64_t *out)
{
    const int64_t *base = dbc_pos + dbc_start[d];
    int64_t nb = dbc_start[d + 1] - dbc_start[d], k, s;
    for (k = first; k < length; ++k) {
        for (s = 0; s <= k; ++s) offset_of[seg_items[s]] = seg_offsets[k - s];
        out[k - first] = repro_lazy_chain_cost(base, nb, item_at, offset_of,
                                               ports, num_ports)
                         - dbc_cost[d];
        for (s = 0; s <= k; ++s) offset_of[seg_items[s]] = seg_offsets[s];
    }
}
"""


# ---------------------------------------------------------------------------
# numpy walks
# ---------------------------------------------------------------------------

def single_port_access_costs_numpy(offsets, port: int):
    """Per-access shift costs of a lazy single-port replay (position diffs)."""
    import numpy as np

    targets = offsets if port == 0 else offsets - port
    costs = np.empty(targets.size, dtype=np.int64)
    costs[0] = abs(int(targets[0]))
    if targets.size > 1:
        np.abs(np.diff(targets), out=costs[1:])
    return costs


def two_port_access_costs_numpy(offsets, ports):
    """Per-access shift costs of a lazy two-port replay (closed form).

    Vectorised over the whole offset sequence: with two ports every step's
    transition on the (previous-port) state is either a constant (both
    states pick the same port — the chain converges and forgets its history)
    or a permutation (identity or swap, i.e. an XOR by 0 or 1).  The state
    before step ``t`` is therefore the last convergence value before ``t``
    (or the initial state) XOR-ed with the parity of swaps in between — all
    prefix scans, no sequential walk.  Strict ``<`` comparisons keep the
    lower port on ties, matching :func:`repro.dwm.dbc.port_access_cost`.

    Returns an int64 array of the same length as ``offsets`` whose sum is
    the total lazy cost of the sequence.
    """
    import numpy as np

    port_a, port_b = ports
    head_a = offsets if port_a == 0 else offsets - port_a
    head_b = offsets - port_b
    out = np.empty(offsets.size, dtype=np.int64)
    first_a = abs(int(head_a[0]))
    first_b = abs(int(head_b[0]))
    state = first_b < first_a  # tie → lower port
    out[0] = first_b if state else first_a
    if offsets.size == 1:
        return out
    # Step t serves access t+1; cost_qp = |head_p[t+1] − head_q[t]|.
    cost_aa = np.abs(head_a[1:] - head_a[:-1])
    cost_ab = np.abs(head_b[1:] - head_a[:-1])
    cost_ba = np.abs(head_a[1:] - head_b[:-1])
    cost_bb = np.abs(head_b[1:] - head_b[:-1])
    pick_b0 = cost_ab < cost_aa  # next state given previous state 0
    pick_b1 = cost_bb < cost_ba  # next state given previous state 1
    min0 = np.where(pick_b0, cost_ab, cost_aa)
    min1 = np.where(pick_b1, cost_bb, cost_ba)
    const = pick_b0 == pick_b1
    swap_flag = pick_b0 & ~const
    inclusive = np.bitwise_xor.accumulate(swap_flag)
    prefix = np.empty_like(inclusive)
    prefix[0] = False
    prefix[1:] = inclusive[:-1]
    # vals[j] carries a const step's output back to prefix-XOR space so
    # that state_before[t] = vals[j] ^ prefix[t] for the last const j < t.
    vals = pick_b0 ^ inclusive
    steps = offsets.size - 1
    anchors = np.where(const, np.arange(steps), -1)
    np.maximum.accumulate(anchors, out=anchors)
    last_const = np.empty_like(anchors)
    last_const[0] = -1
    last_const[1:] = anchors[:-1]
    base = np.where(last_const >= 0, vals[np.maximum(last_const, 0)], state)
    states = base ^ prefix
    out[1:] = np.where(states, min1, min0)
    return out


def multi_port_access_costs_numpy(offsets, ports):
    """Per-access shift costs of a lazy multi-port replay (``P ≥ 2``).

    After any access the head equals ``offset − p`` for exactly one port
    ``p``, so the walk is a deterministic automaton over ``P`` states.  The
    per-step (cost, next-state) tables over all P previous states are built
    vectorised, then the *prefix* state sequence is recovered with a
    Hillis–Steele scan of transition-function composition — O(k·P·log k)
    numpy work instead of an O(k·P) interpreted walk.  Greedy tie-breaks
    resolve to the lowest port (argmin-first), matching the reference
    evaluator exactly.  Any ``P ≥ 1`` is accepted, which makes this the
    single reference the parity checks compare every tier against.
    """
    import numpy as np

    ports_arr = np.asarray(ports, dtype=np.int64)
    num_ports = ports_arr.size
    out = np.empty(offsets.size, dtype=np.int64)
    first_costs = np.abs(int(offsets[0]) - ports_arr)
    state = int(first_costs.argmin())
    out[0] = int(first_costs[state])
    if offsets.size == 1:
        return out
    targets = offsets[:, None] - ports_arr[None, :]  # (k, P) head candidates
    prev = targets[:-1]
    cur = targets[1:]
    # costs[t, q] / nexts[t, q]: cheapest port for access t+1 given the
    # previous access used port q; strict ``<`` keeps the lowest port on
    # ties, matching the reference evaluator.
    costs = np.abs(cur[:, 0, None] - prev)
    nexts = np.zeros_like(costs)
    for port_index in range(1, num_ports):
        candidate = np.abs(cur[:, port_index, None] - prev)
        better = candidate < costs
        costs = np.where(better, candidate, costs)
        nexts = np.where(better, port_index, nexts)
    # Hillis–Steele prefix composition: after the scan, comp[t][q] is the
    # state after steps 0..t given initial state q.  Each round gathers
    # comp[t + d][comp[t][q]] through flat indices (row offsets + state),
    # which costs less per round than ``np.take_along_axis``.
    comp = nexts
    steps = comp.shape[0]
    row_starts = np.arange(0, steps * num_ports, num_ports)[:, None]
    distance = 1
    while distance < steps:
        later = comp[distance:].ravel()
        comp = np.concatenate(
            [
                comp[:distance],
                later[row_starts[: steps - distance] + comp[:-distance]],
            ]
        )
        distance *= 2
    states = np.empty(steps, dtype=np.int64)
    states[0] = state
    states[1:] = comp[:-1, state]
    out[1:] = costs[np.arange(steps), states]
    return out


def _numpy_lazy_costs(offsets, ports):
    """Per-access lazy costs from head 0: the diff for one port, the closed
    form for two (on a 25k-access chain the scan takes ~8× as long), the
    Hillis–Steele scan for ``P ≥ 3``."""
    import numpy as np

    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        return np.empty(0, dtype=np.int64)
    if len(ports) == 1:
        return single_port_access_costs_numpy(offsets, ports[0])
    if len(ports) == 2:
        return two_port_access_costs_numpy(offsets, ports)
    return multi_port_access_costs_numpy(offsets, ports)


def lazy_costs_from_state(offsets, ports, head0):
    """Per-access lazy costs of a replay that starts with the head at
    ``head0`` instead of the fresh position 0, on the numpy walks.

    The numpy tier's :meth:`~NumpyKernels.lazy_scan` continues each DBC's
    walk with it, without the walks growing a ``head0`` parameter.  The
    trick is pure arithmetic on the access sequence:

    * **prepend** a synthetic access ``head0 + max(ports)`` (or
      ``head0 + min(ports)`` when ``head0 < 0``) — the greedy argmin
      provably serves it through that extreme port, leaving the head at
      exactly ``head0``; its cost is dropped;
    * **append** a probe access larger than every other target — the
      argmin provably serves it through ``max(ports)``, so the head the
      walk ended on is ``probe − max(ports) − cost(probe)``.

    Both paddings resolve their port strictly (no ties), so the result is
    the same forward-causal integer recurrence the cc scan runs.

    ``ports`` must be ascending (as :class:`~repro.dwm.config.DWMConfig`
    normalises them).  Returns ``(costs, head_out)`` where ``costs`` has
    one entry per offset and ``head_out`` is the head position after the
    last access (``head0`` itself for an empty sequence).
    """
    import numpy as np

    offsets = np.asarray(offsets, dtype=np.int64)
    head0 = int(head0)
    if offsets.size == 0:
        return np.empty(0, dtype=np.int64), head0
    if len(ports) == 1:
        port = int(ports[0])
        costs = single_port_access_costs_numpy(offsets, port)
        costs[0] = abs(int(offsets[0]) - port - head0)
        return costs, int(offsets[-1]) - port
    min_port = int(ports[0])
    max_port = int(ports[-1])
    anchor = head0 + (max_port if head0 >= 0 else min_port)
    probe = max(int(offsets.max()), head0, anchor) + max_port + 1
    padded = np.empty(offsets.size + 2, dtype=np.int64)
    padded[0] = anchor
    padded[1:-1] = offsets
    padded[-1] = probe
    full = _numpy_lazy_costs(padded, ports)
    head_out = probe - max_port - int(full[-1])
    return full[1:-1].copy(), head_out


# ---------------------------------------------------------------------------
# Row-probe layout
# ---------------------------------------------------------------------------

class RowLayout:
    """The arrays a row probe reads: two position CSRs and the walk inputs.

    ``item_pos[item_start[i]:item_start[i + 1]]`` are item ``i``'s ascending
    trace positions and ``dbc_pos[dbc_start[d]:dbc_start[d + 1]]`` DBC
    ``d``'s merged positions; ``dbc_cost[d]`` is ``d``'s current lazy cost
    and ``item_dbc[i]`` item ``i``'s DBC.  All arrays are C-contiguous
    ``int64``.  ``offset_of`` is the caller's live per-item offset array:
    a row writes each candidate's offsets into it and restores them before
    the next candidate.  A layout describes one assignment; the caller
    drops it when the assignment changes.
    """

    ARRAYS = (
        "item_at", "offset_of", "ports", "item_pos", "item_start",
        "item_dbc", "dbc_pos", "dbc_start", "dbc_cost",
    )
    __slots__ = ARRAYS + ("_pointers",)

    def __init__(self, **arrays) -> None:
        for name in self.ARRAYS:
            setattr(self, name, arrays[name])
        self._pointers: dict[str, int] | None = None

    def item_positions(self, i):
        return self.item_pos[self.item_start[i] : self.item_start[i + 1]]

    def dbc_positions(self, d):
        return self.dbc_pos[self.dbc_start[d] : self.dbc_start[d + 1]]

    def pointers(self) -> dict[str, int]:
        """Data addresses of every array (read once; for the cc tier)."""
        if self._pointers is None:
            self._pointers = {
                name: getattr(self, name).ctypes.data for name in self.ARRAYS
            }
        return self._pointers


# ---------------------------------------------------------------------------
# Interleaved scan state
# ---------------------------------------------------------------------------

class ScanState:
    """Per-DBC automaton state that :meth:`lazy_scan` reads and advances.

    **Carried** (``lanes=None``): ``heads``, ``totals`` and ``maxes`` hold
    one entry per DBC — the head after the DBC's last access (0 before its
    first), its summed cost and its largest single-access cost.
    **Conditioned** (``lanes=P``): each of those is ``(num_dbcs, P)``; lane
    ``p`` assumes port ``p`` served the DBC's first access, whose offset is
    ``first[d]`` and which no lane prices; ``counts[d]`` is the number of
    DBC ``d``'s accesses scanned so far (0 until its first access; carried
    scans leave it alone).  All arrays are C-contiguous ``int64``; feeding
    consecutive windows to one state scans their concatenation.
    """

    __slots__ = ("conditioned", "heads", "totals", "maxes", "counts", "first")

    def __init__(self, num_dbcs: int, lanes: int | None = None) -> None:
        import numpy as np

        shape = num_dbcs if lanes is None else (num_dbcs, lanes)
        self.conditioned = lanes is not None
        self.heads = np.zeros(shape, dtype=np.int64)
        self.totals = np.zeros(shape, dtype=np.int64)
        self.maxes = np.zeros(shape, dtype=np.int64)
        self.counts = np.zeros(num_dbcs, dtype=np.int64)
        self.first = np.zeros(num_dbcs, dtype=np.int64)


def _check_scan(dbc_of, ports, state: ScanState, out, n: int) -> None:
    """Reject inputs the compiled scan would index out of bounds with."""
    num_dbcs = state.counts.size
    if dbc_of.size and (int(dbc_of.min()) < 0 or int(dbc_of.max()) >= num_dbcs):
        raise IndexError(f"DBC index outside the scan state's {num_dbcs} DBCs")
    if state.conditioned:
        if state.heads.shape != (num_dbcs, len(ports)):
            raise ValueError("conditioned scan state needs one lane per port")
        if out is not None:
            raise ValueError("a conditioned scan prices no single access")
    elif out is not None and (
        out.shape != (n,) or out.dtype != "int64" or not out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous int64 array of {n} costs")


# ---------------------------------------------------------------------------
# Tiers
# ---------------------------------------------------------------------------

class NumpyKernels:
    """The numpy tier: vectorised walks (:func:`_numpy_lazy_costs`), no
    compiler needed."""

    name = "numpy"

    def lazy_costs(self, offsets, ports, out=None):
        """Per-access costs; returns ``out`` (allocated when ``None``)."""
        costs = _numpy_lazy_costs(offsets, ports)
        if out is None:
            return costs
        out[:] = costs
        return out

    def lazy_scan(self, codes, dbc_of, offset_of, ports, state, out=None) -> int:
        """Advance ``state`` over one window; returns its write count.

        The one place the DBC grouping survives: a stable sort by DBC
        keeps each DBC's accesses in trace order, and each group is walked
        from its carried head (or, conditioned, from each lane's).
        """
        import numpy as np

        from repro.trace.binio import split_records

        items, writes = split_records(codes)
        _check_scan(dbc_of, ports, state, out, items.size)
        if items.size == 0:
            return writes
        dbc_seq = dbc_of[items]
        order = np.argsort(dbc_seq, kind="stable")
        sorted_dbc = dbc_seq[order]
        sorted_offsets = offset_of[items][order]
        dbcs, starts = np.unique(sorted_dbc, return_index=True)
        bounds = np.append(starts, sorted_dbc.size).tolist()
        for position, d in enumerate(dbcs.tolist()):
            low, high = bounds[position], bounds[position + 1]
            group = sorted_offsets[low:high]
            if not state.conditioned:
                costs, state.heads[d] = lazy_costs_from_state(
                    group, ports, state.heads[d]
                )
                state.totals[d] += costs.sum()
                state.maxes[d] = max(state.maxes[d], costs.max())
                if out is not None:
                    out[order[low:high]] = costs
                continue
            seen = int(state.counts[d])
            state.counts[d] = seen + group.size
            if seen == 0:
                state.first[d] = group[0]
                state.heads[d] = int(group[0]) - np.asarray(ports, np.int64)
                group = group[1:]
            for lane in range(len(ports)):
                costs, state.heads[d, lane] = lazy_costs_from_state(
                    group, ports, state.heads[d, lane]
                )
                if costs.size:
                    state.totals[d, lane] += costs.sum()
                    state.maxes[d, lane] = max(state.maxes[d, lane], costs.max())
        return writes

    def lazy_chain_cost(self, positions, item_at, offset_of, ports) -> int:
        if positions.size == 0:
            return 0
        return int(self.lazy_costs(offset_of[item_at[positions]], ports).sum())

    def bind_chain(self, positions, item_at, offset_of, ports):
        """A no-argument :meth:`lazy_chain_cost` over fixed arrays; each
        call prices ``offset_of``'s current contents."""
        return functools.partial(
            self.lazy_chain_cost, positions, item_at, offset_of, ports
        )

    def lazy_merge_cost(
        self, base, skip, add, item_at, offset_of, ports
    ) -> int:
        import numpy as np

        if skip.size:
            keep = np.ones(base.size, dtype=bool)
            keep[np.searchsorted(base, skip)] = False
            base = base[keep]
        if add.size:
            base = np.concatenate([base, add])
            # Two ascending runs: the stable sort (timsort) merges them.
            base.sort(kind="stable")
        return self.lazy_chain_cost(base, item_at, offset_of, ports)

    # Row probes: the same per-candidate walks as the cc tier, one
    # candidate at a time over this tier's chain and merge walks.

    def lazy_swap_row(self, layout, a, partners):
        """Deltas of swapping item ``a`` with each item in ``partners``."""
        import numpy as np

        item_dbc, offset_of, dbc_cost = (
            layout.item_dbc, layout.offset_of, layout.dbc_cost,
        )
        walk = (layout.item_at, offset_of, layout.ports)
        da, off_a = item_dbc[a], offset_of[a]
        pos_a, base_a = layout.item_positions(a), layout.dbc_positions(da)
        out = np.empty(len(partners), dtype=np.int64)
        for c, b in enumerate(partners):
            db, off_b = item_dbc[b], offset_of[b]
            offset_of[a], offset_of[b] = off_b, off_a
            try:
                if db == da:
                    out[c] = self.lazy_chain_cost(base_a, *walk) - dbc_cost[da]
                else:
                    pos_b = layout.item_positions(b)
                    out[c] = (
                        self.lazy_merge_cost(base_a, pos_a, pos_b, *walk)
                        + self.lazy_merge_cost(
                            layout.dbc_positions(db), pos_b, pos_a, *walk
                        )
                        - dbc_cost[da] - dbc_cost[db]
                    )
            finally:
                offset_of[a], offset_of[b] = off_a, off_b
        return out

    def lazy_move_row(self, layout, a, slot_dbc, slot_offset):
        """Deltas of moving item ``a`` to each ``(slot_dbc, slot_offset)``."""
        import numpy as np

        offset_of, dbc_cost = layout.offset_of, layout.dbc_cost
        walk = (layout.item_at, offset_of, layout.ports)
        da, off_a = layout.item_dbc[a], offset_of[a]
        pos_a, base_a = layout.item_positions(a), layout.dbc_positions(da)
        none = pos_a[:0]
        without_a = None
        out = np.empty(len(slot_dbc), dtype=np.int64)
        for c, d in enumerate(slot_dbc):
            offset_of[a] = slot_offset[c]
            try:
                if d == da:
                    out[c] = self.lazy_chain_cost(base_a, *walk) - dbc_cost[da]
                    continue
                if without_a is None:
                    without_a = self.lazy_merge_cost(base_a, pos_a, none, *walk)
                out[c] = (
                    without_a
                    + self.lazy_merge_cost(
                        layout.dbc_positions(d), none, pos_a, *walk
                    )
                    - dbc_cost[da] - dbc_cost[d]
                )
            finally:
                offset_of[a] = off_a
        return out

    def lazy_reversal_row(self, layout, d, seg_items, seg_offsets, first):
        """Deltas of reversing ``seg[0..k]`` on DBC ``d`` for each ``k`` in
        ``[first, len(seg_items))``; item ``seg_items[s]`` sits at
        ``seg_offsets[s]`` and moves to ``seg_offsets[k - s]``."""
        import numpy as np

        seg_items = np.asarray(seg_items, dtype=np.int64)
        seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
        offset_of = layout.offset_of
        base = layout.dbc_positions(d)
        out = np.empty(max(0, len(seg_items) - first), dtype=np.int64)
        for k in range(first, len(seg_items)):
            head = seg_items[: k + 1]
            offset_of[head] = seg_offsets[k::-1]
            try:
                out[k - first] = self.lazy_chain_cost(
                    base, layout.item_at, offset_of, layout.ports
                ) - layout.dbc_cost[d]
            finally:
                offset_of[head] = seg_offsets[: k + 1]
        return out


class CcKernels:
    """The cc tier: ctypes bindings over the compiled shared library.

    Array arguments are made C-contiguous ``int64`` here; the callers'
    gather arrays (argsort outputs, dense per-item arrays) already are.
    """

    name = "cc"

    def __init__(self, library_path: Path) -> None:
        import ctypes

        import numpy as np

        lib = ctypes.CDLL(str(library_path))
        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        lib.repro_lazy_chain_cost.restype = i64
        lib.repro_lazy_chain_cost.argtypes = [ptr, i64, ptr, ptr, ptr, i64]
        lib.repro_lazy_scan.restype = i64
        lib.repro_lazy_scan.argtypes = [
            ptr, i64, i64, ptr, i64, ptr, ptr, i64, i64, ptr, ptr, ptr, ptr,
            ptr, ptr,
        ]
        lib.repro_lazy_merge_cost.restype = i64
        lib.repro_lazy_merge_cost.argtypes = [
            ptr, i64, ptr, i64, ptr, i64, ptr, ptr, ptr, i64,
        ]
        # Explicit argtypes on the row probes too: without them ctypes
        # passes the addresses as C ints and truncates them.
        lib.repro_lazy_swap_row.restype = None
        lib.repro_lazy_swap_row.argtypes = [
            i64, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64,
            ptr,
        ]
        lib.repro_lazy_move_row.restype = None
        lib.repro_lazy_move_row.argtypes = [
            i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
            i64, ptr,
        ]
        lib.repro_lazy_reversal_row.restype = None
        lib.repro_lazy_reversal_row.argtypes = [
            i64, ptr, ptr, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr,
        ]
        self._lib = lib
        self._np = np
        self.library_path = library_path

    def lazy_costs(self, offsets, ports, out=None):
        """Per-access costs; returns ``out`` (allocated when ``None``).

        A one-DBC :meth:`lazy_scan` in which access ``t`` is item ``t``.
        """
        np = self._np
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if out is None:
            out = np.empty(offsets.size, dtype=np.int64)
        self.lazy_scan(
            np.arange(offsets.size, dtype=np.int64),
            np.zeros(offsets.size, dtype=np.int64),
            offsets,
            ports,
            ScanState(1),
            out,
        )
        return out

    def lazy_chain_cost(self, positions, item_at, offset_of, ports) -> int:
        np = self._np
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        ports = np.ascontiguousarray(ports, dtype=np.int64)
        return int(
            self._lib.repro_lazy_chain_cost(
                positions.ctypes.data,
                positions.size,
                item_at.ctypes.data,
                offset_of.ctypes.data,
                ports.ctypes.data,
                ports.size,
            )
        )

    def bind_chain(self, positions, item_at, offset_of, ports):
        """A no-argument :meth:`lazy_chain_cost` over fixed arrays.

        The arrays are converted and their addresses read once; the walk
        reads ``offset_of`` in place, so the caller rewrites its entries
        between calls and each call prices the current contents.
        """
        np = self._np
        arrays = [
            np.ascontiguousarray(array, dtype=np.int64)
            for array in (positions, item_at, offset_of, ports)
        ]
        if arrays[2] is not offset_of:
            raise ValueError("offset_of must be C-contiguous int64")
        positions, item_at, offset_of, ports = arrays
        walk = functools.partial(
            self._lib.repro_lazy_chain_cost,
            positions.ctypes.data,
            positions.size,
            item_at.ctypes.data,
            offset_of.ctypes.data,
            ports.ctypes.data,
            ports.size,
        )

        def cost(_arrays=arrays) -> int:  # the default keeps them alive
            return walk()

        return cost

    def lazy_scan(self, codes, dbc_of, offset_of, ports, state, out=None) -> int:
        """Advance ``state`` over one window in one pass; returns its write
        count (uint32 records count their write bits; int64 codes none)."""
        np = self._np
        codes = np.ascontiguousarray(codes)
        records = codes.dtype == np.uint32
        if not records:
            codes = np.ascontiguousarray(codes, dtype=np.int64)
        dbc_of = np.ascontiguousarray(dbc_of, dtype=np.int64)
        offset_of = np.ascontiguousarray(offset_of, dtype=np.int64)
        ports = np.ascontiguousarray(ports, dtype=np.int64)
        _check_scan(dbc_of, ports, state, out, codes.size)
        if offset_of.size != dbc_of.size:
            raise ValueError("dbc_of and offset_of must cover the same items")
        writes = self._lib.repro_lazy_scan(
            codes.ctypes.data,
            codes.size,
            int(records),
            dbc_of.ctypes.data,
            dbc_of.size,
            offset_of.ctypes.data,
            ports.ctypes.data,
            ports.size,
            int(state.conditioned),
            state.heads.ctypes.data,
            state.totals.ctypes.data,
            state.maxes.ctypes.data,
            state.counts.ctypes.data,
            state.first.ctypes.data,
            None if out is None else out.ctypes.data,
        )
        if writes < 0:
            raise IndexError(
                f"access {-1 - writes} names an item outside the "
                f"{dbc_of.size} placed items"
            )
        return int(writes)

    def lazy_merge_cost(
        self, base, skip, add, item_at, offset_of, ports
    ) -> int:
        np = self._np
        base = np.ascontiguousarray(base, dtype=np.int64)
        skip = np.ascontiguousarray(skip, dtype=np.int64)
        add = np.ascontiguousarray(add, dtype=np.int64)
        ports = np.ascontiguousarray(ports, dtype=np.int64)
        return int(
            self._lib.repro_lazy_merge_cost(
                base.ctypes.data,
                base.size,
                skip.ctypes.data,
                skip.size,
                add.ctypes.data,
                add.size,
                item_at.ctypes.data,
                offset_of.ctypes.data,
                ports.ctypes.data,
                ports.size,
            )
        )

    def _layout_args(self, layout) -> tuple:
        """(item_pos .. dbc_cost, item_at, offset_of, ports, num_ports)."""
        p = layout.pointers()
        return (
            p["item_pos"], p["item_start"], p["item_dbc"], p["dbc_pos"],
            p["dbc_start"], p["dbc_cost"], p["item_at"], p["offset_of"],
            p["ports"], layout.ports.size,
        )

    def lazy_swap_row(self, layout, a, partners):
        np = self._np
        partners = np.ascontiguousarray(partners, dtype=np.int64)
        out = np.empty(partners.size, dtype=np.int64)
        self._lib.repro_lazy_swap_row(
            int(a), partners.ctypes.data, partners.size,
            *self._layout_args(layout), out.ctypes.data,
        )
        return out

    def lazy_move_row(self, layout, a, slot_dbc, slot_offset):
        np = self._np
        slot_dbc = np.ascontiguousarray(slot_dbc, dtype=np.int64)
        slot_offset = np.ascontiguousarray(slot_offset, dtype=np.int64)
        out = np.empty(slot_dbc.size, dtype=np.int64)
        self._lib.repro_lazy_move_row(
            int(a), slot_dbc.ctypes.data, slot_offset.ctypes.data,
            slot_dbc.size, *self._layout_args(layout), out.ctypes.data,
        )
        return out

    def lazy_reversal_row(self, layout, d, seg_items, seg_offsets, first):
        np = self._np
        seg_items = np.ascontiguousarray(seg_items, dtype=np.int64)
        seg_offsets = np.ascontiguousarray(seg_offsets, dtype=np.int64)
        out = np.empty(max(0, seg_items.size - first), dtype=np.int64)
        p = layout.pointers()
        self._lib.repro_lazy_reversal_row(
            int(d), seg_items.ctypes.data, seg_offsets.ctypes.data,
            seg_items.size, int(first), p["dbc_pos"], p["dbc_start"],
            p["dbc_cost"], p["item_at"], p["offset_of"], p["ports"],
            layout.ports.size, out.ctypes.data,
        )
        return out


def _kernel_cache_dir() -> Path:
    override = os.environ.get(KERNEL_CACHE_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-dwm" / "kernels"


def _find_compiler() -> str | None:
    import shutil

    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_cc_library() -> Path | None:
    """Compile the embedded C source into a hash-cached ``.so``."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    library = cache_dir / f"lazykern_{digest}.so"
    if library.exists():
        return library
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
            source = Path(tmp) / "lazykern.c"
            source.write_text(_C_SOURCE, encoding="utf-8")
            artifact = Path(tmp) / "lazykern.so"
            proc = subprocess.run(
                [
                    compiler,
                    "-O3",
                    "-shared",
                    "-fPIC",
                    "-o",
                    str(artifact),
                    str(source),
                ],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                return None
            # Atomic publish: concurrent builders race benignly.
            os.replace(artifact, library)
    except (OSError, subprocess.SubprocessError):
        return None
    return library


_NUMPY = NumpyKernels()
_LOCK = threading.Lock()
_BACKEND: CcKernels | NumpyKernels | None = None
_SELECTION_NOTE = ""


def _requested() -> str:
    """The ``REPRO_KERNEL`` request, stripped and lowercased (``auto``)."""
    return os.environ.get(KERNEL_ENV, "").strip().lower() or "auto"


def _select() -> tuple[CcKernels | NumpyKernels, str]:
    """Resolve (tier, note) from the environment."""
    requested = _requested()
    if requested not in ("auto", "cc", "numpy"):
        return _NUMPY, f"unknown {KERNEL_ENV}={requested!r}"
    if requested == "numpy":
        return _NUMPY, f"{KERNEL_ENV}=numpy"
    library = _build_cc_library()
    if library is None:
        return _NUMPY, "no C compiler or compile failed"
    try:
        return CcKernels(library), ""
    except OSError as exc:
        return _NUMPY, f"cc load failed: {exc}"


def active() -> CcKernels | NumpyKernels:
    """The active lazy-walk tier: cc when built, else numpy.

    Resolved once per process on first call (thread-safe); use
    :func:`reset_backend` after changing the environment knobs.
    """
    global _BACKEND, _SELECTION_NOTE
    if _BACKEND is None:
        with _LOCK:
            if _BACKEND is None:
                try:
                    from repro.chaos import failpoint

                    failpoint("kernel.compile")
                    backend, note = _select()
                except Exception as exc:  # noqa: BLE001 - degrade to numpy
                    from repro.robust import is_recoverable, record_degradation

                    if not is_recoverable(exc):
                        raise
                    backend = _NUMPY
                    note = (
                        f"kernel selection failed "
                        f"({type(exc).__name__}: {exc})"
                    )
                    record_degradation("kernel", "cc", "numpy", note, warn=False)
                _SELECTION_NOTE = note
                from repro.obs import get_registry

                get_registry().inc("kernel.selected", backend=backend.name)
                _BACKEND = backend
    return _BACKEND


def backend_name() -> str:
    """Active tier name: ``cc`` or ``numpy``."""
    return active().name


def reset_backend() -> None:
    """Forget the resolved tier (test hook; next call re-selects)."""
    global _BACKEND, _SELECTION_NOTE
    with _LOCK:
        _BACKEND = None
        _SELECTION_NOTE = ""


def describe() -> dict:
    """Tier diagnostics for ``repro kernels`` / benchmarks."""
    backend = active()
    info: dict = {
        "backend": backend.name,
        "compiled": backend.name == "cc",
        "requested": _requested(),
        "compiler": _find_compiler(),
        "cache_dir": str(_kernel_cache_dir()),
    }
    if _SELECTION_NOTE:
        info["note"] = _SELECTION_NOTE
    if isinstance(backend, CcKernels):
        info["library"] = str(backend.library_path)
    return info
