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
  one per port that may have served the DBC's first access — the span
  summary of :mod:`repro.memory.stream_sim`'s merge and parallel modes.
  The cc tier never sorts by DBC, and steps a DBC's lanes once while
  their heads are equal (lanes that met never part); the numpy tier
  groups the window by DBC with a stable sort and walks each lane of
  each group with :func:`lazy_costs_from_state`;
* ``lazy_costs(offsets, ports, out)`` — per-access costs of one replay;
* ``lazy_chain_cost(positions, item_at, offset_of, ports)`` — total cost
  of the chain ``offset_of[item_at[positions[t]]]``;
* ``lazy_merge_cost(base, skip, add, item_at, offset_of, ports)`` —
  total cost of the chain over ``(base \\ skip) ∪ add`` positions (all
  three inputs ascending; ``skip ⊆ base``, ``add`` disjoint from
  ``base``).  This is the delta-probe kernel: cc merges on the fly, numpy
  drops ``skip`` through a ``searchsorted`` mask and sorts in ``add``.

The planner lays out a whole grouping with three more entry points
(:class:`repro.core.ordering.GroupedTrace`, docs/ALGORITHMS.md); the
exact solvers (:mod:`repro.core.exact`) price one group's candidate
layouts with the first:

* ``segment_costs(codes, starts, offset_table, ports)`` — the ``(C, S)``
  table of lazy costs of every segment ``codes[starts[s]:starts[s+1]]``,
  each walked from head 0, under every candidate row of
  ``offset_table``.  cc walks them in one call; numpy walks several
  candidates' rows back to back in one walk, with each segment start
  marked as a reset (the ``resets`` argument of the numpy walks);
* ``greedy_chains`` / ``bidirectional_chains`` — every group's greedy or
  ShiftsReduce chain over int codes.  cc builds them in one call; numpy
  runs :func:`greedy_chain_codes` / :func:`bidirectional_chain_codes` per
  group, which are the oracle of the compiled chains.

The grouping phase (:mod:`repro.core.grouping`) is one more:

* ``min_affinity_groups(num_groups, capacity, hot, nb_start, nb, nb_w,
  initial, max_passes)`` — the greedy interference-minimizing grouping
  (or a given ``initial`` one) and its KL refinement passes over item
  codes and the problem's neighbour CSR, returning ``(G, width)`` member
  rows and sizes.  cc runs it in one call; numpy runs
  :func:`min_affinity_group_codes`, its oracle.

The cc tier also runs local search's two refinement scans whole, one
call each (``swap_pass`` for ``swap_refinement``, ``reversal_pass`` for
``two_opt_refinement``).  A pass reads and updates a :class:`RefineState`
— the assignment, per-item and per-DBC position CSRs, each DBC's head
trajectory and its current cost — probes candidates one at a time in the
refiners' order, applies every improving move in place and stops when its
budget is spent.  A lazy probe is priced by a rejoin walk: from each
access the move changes it walks on from the cached head before it, only
until its head meets the cached trajectory again (docs/COST_MODEL.md §5).
The numpy tier has no pass: there
:class:`~repro.core.incremental.CostEvaluator` runs the same scan over its
single probes (full replays through ``lazy_merge_cost``), which is the
trajectory both tiers reproduce.
"""

from __future__ import annotations

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

#: Accesses one numpy ``segment_costs`` walk covers: candidate rows are
#: walked back to back while rows × accesses stay within it.
NUMPY_SEGMENT_ACCESSES = 1 << 16

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

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
            int converged = 1;
            if (counts[d]++ == 0) {
                first[d] = offset;
                for (q = 0; q < num_ports; ++q)
                    lane_heads[q] = offset - ports[q];
                continue;
            }
            for (q = 1; q < num_ports; ++q)
                converged &= lane_heads[q] == lane_heads[0];
            if (converged) {
                /* Lanes whose heads met stay equal and pay equal costs
                   from here on: step once, charge every lane. */
                int64_t cost = lazy_step(offset, lane_heads, ports,
                                         num_ports);
                for (q = 0; q < num_ports; ++q) {
                    lane_heads[q] = lane_heads[0];
                    lane_totals[q] += cost;
                    if (cost > lane_maxes[q]) lane_maxes[q] = cost;
                }
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
   is priced on every lane, with one port step for all of them once their
   heads have met (the lanes of a deterministic automaton never part
   again); counts[d] counts DBC d's accesses (carried scans leave counts
   alone).  The mode is the conditioned flag, never the lane count: a
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

/* Compiled refinement passes (docs/COST_MODEL.md §5): one call runs a
   whole first-improvement scan of swap_refinement or two_opt_refinement,
   probing candidates one at a time in the refiners' order and applying
   each improving move in place before the next probe.  Layout: item i's
   ascending trace positions are item_pos[item_start[i] ..
   item_start[i+1]), it sits at offset_of[i] on DBC item_dbc[i], and DBC
   d's chain (its merged positions) is dbc_pos[dbc_start[d] ..
   dbc_start[d+1]) with lazy cost dbc_cost[d].  The pass also keeps every
   chain's trajectory: dbc_head[k] is the head after the access at
   dbc_pos[k], and rank[t] is the chain index k of trace position t.  A
   probe writes the candidate's offsets into offset_of, prices only the
   affected DBCs (COST_MODEL.md §2) with a rejoin walk and restores
   offset_of; under the eager policy an item costs counts[i] *
   rest[offset_of[i]] and no walk runs.  CcKernels mirrors this struct
   from RefineState.ARRAYS: keep the field order in step. */
typedef struct {
    const int64_t *item_at, *item_pos, *item_start, *ports, *counts, *rest;
    int64_t *offset_of, *item_dbc, *dbc_cost;
    int64_t *load;      /* items per DBC, untraced placement entries too */
    int64_t *occupied;  /* slot d * words + o: 1 when some item holds it */
    int64_t *dbc_pos, *dbc_start;  /* laid out by the pass */
    int64_t *dbc_head, *rank;      /* the trajectories, likewise */
    int64_t *scratch;   /* (num_dbcs + 2) * words + 2 * trace_len entries */
    int64_t num_ports, num_items, trace_len, num_dbcs, words, eager;
    int64_t max_passes, max_probes;  /* the budget */
    int64_t probes, accepted, delta, steps; /* results */
} refine_state;

/* Item i's ascending trace positions and their count. */
#define POSITIONS(s, i) ((s)->item_pos + (s)->item_start[i])
#define NUM_POSITIONS(s, i) ((s)->item_start[(i) + 1] - (s)->item_start[i])

/* Re-walk DBC d's trajectory at the offsets offset_of holds now. */
static void walk_trajectory(refine_state *s, int64_t d)
{
    int64_t head = 0, k, lo = s->dbc_start[d], hi = s->dbc_start[d + 1];
    for (k = lo; k < hi; ++k) {
        lazy_step(s->offset_of[s->item_at[s->dbc_pos[k]]], &head, s->ports,
                  s->num_ports);
        s->dbc_head[k] = head;
    }
    s->steps += hi - lo;
}

/* Re-lay the DBC position CSR from item_dbc in O(T): a counting sort of
   the trace positions by DBC, ascending within each DBC, recording each
   position's rank.  With p < 0 every DBC's trajectory is walked afresh;
   otherwise only DBCs p and q changed members since the last layout, so
   the DBCs between them keep their trajectories, moved along with their
   chains, and only p's and q's are walked. */
static void lay_out_dbcs(refine_state *s, int64_t p, int64_t q)
{
    int64_t *start = s->dbc_start, sum = 0, d, t;
    int64_t lo = p < q ? p : q, hi = p < q ? q : p;
    int64_t from = p < 0 ? 0 : start[lo + 1];
    int64_t kept = p < 0 ? 0 : start[hi] - from;
    for (d = 0; d < s->num_dbcs; ++d) start[d] = 0;
    for (t = 0; t < s->trace_len; ++t) ++start[s->item_dbc[s->item_at[t]]];
    for (d = 0; d < s->num_dbcs; ++d) {
        int64_t size = start[d];
        start[d] = sum;
        sum += size;
    }
    for (t = 0; t < s->trace_len; ++t) {
        int64_t k = start[s->item_dbc[s->item_at[t]]]++;
        s->dbc_pos[k] = t;
        s->rank[t] = k;
    }
    /* start[d] now ends DBC d: shift it to start DBC d + 1. */
    for (d = s->num_dbcs; d > 0; --d) start[d] = start[d - 1];
    start[0] = 0;
    if (p < 0) {
        for (d = 0; d < s->num_dbcs; ++d) walk_trajectory(s, d);
        return;
    }
    memmove(s->dbc_head + start[lo + 1], s->dbc_head + from,
            kept * sizeof *s->dbc_head);
    walk_trajectory(s, p);
    walk_trajectory(s, q);
}

/* Rejoin walks.  A probe changes some accesses of a chain: it gives them
   new offsets, removes them, or inserts accesses of another DBC.  A rejoin
   walk prices that change from the chain's cached trajectory: from each
   changed access (an event) it walks on from the cached head before the
   event, and it stops as soon as its head equals the cached head at the
   same point of the chain.  From there the unmoved accesses up to the
   next event pay what they paid before, so the walk jumps to that event.
   The cached cost of chain access k is |head[k] - head[k - 1]|, with head
   0 before the chain starts. */

/* A chain: ascending trace positions pos[0 .. n) and the head after each
   access, head[0 .. n).  On a DBC's chain, rank[t] - first is the index
   of position t. */
typedef struct {
    const int64_t *pos, *head;
    int64_t n, first;
} chain;

static inline chain dbc_chain(const refine_state *s, int64_t d)
{
    int64_t lo = s->dbc_start[d];
    chain c = {s->dbc_pos + lo, s->dbc_head + lo, s->dbc_start[d + 1] - lo,
               lo};
    return c;
}

typedef struct {
    int64_t k;       /* the next chain index */
    int64_t h;       /* the walk's head */
    int64_t before;  /* the cached head before chain index k */
    int64_t delta, steps;
} rejoin;

/* Move a walk whose head has rejoined to chain index k. */
static inline __attribute__((always_inline))
void rejoin_jump(const chain *c, rejoin *w, int64_t k)
{
    w->k = k;
    w->h = w->before = k > 0 ? c->head[k - 1] : 0;
}

/* Walk chain access w->k: re-priced at the offset offset_of holds now, or
   dropped when removed. */
static inline __attribute__((always_inline))
void rejoin_access(const refine_state *s, const chain *c, rejoin *w,
                   int64_t removed, int64_t num_ports)
{
    int64_t cached = c->head[w->k];
    int64_t old = iabs64(cached - w->before);
    if (removed) {
        w->delta -= old;
    } else {
        w->delta += lazy_step(s->offset_of[s->item_at[c->pos[w->k]]], &w->h,
                              s->ports, num_ports) - old;
        ++w->steps;
    }
    w->before = cached;
    ++w->k;
}

/* Cost change of a chain when its accesses at positions r1 and r2 (each
   ascending) take the offsets offset_of holds now. */
static inline __attribute__((always_inline))
int64_t rejoin_moved(refine_state *s, chain c, const int64_t *r1,
                     int64_t n1, const int64_t *r2, int64_t n2,
                     int64_t num_ports)
{
    int64_t i1 = 0, i2 = 0, next;
    rejoin w = {0, 0, 0, 0, 0};
#define NEXT_EVENT                                                         \
    (i2 == n2 ? (i1 == n1 ? INT64_MAX : r1[i1++])                          \
              : (i1 < n1 && r1[i1] < r2[i2] ? r1[i1++] : r2[i2++]))
    next = NEXT_EVENT;
    while (next != INT64_MAX) {
        /* One run: from the event at next, walk while the heads differ or
           the next access is an event. */
        rejoin_jump(&c, &w, s->rank[next] - c.first);
        do {
            if (c.pos[w.k] == next) next = NEXT_EVENT;
            rejoin_access(s, &c, &w, 0, num_ports);
        } while (w.k < c.n && (w.h != w.before || c.pos[w.k] == next));
    }
#undef NEXT_EVENT
    s->steps += w.steps;
    return w.delta;
}

/* Walk the unmoved chain accesses before index end while the heads
   differ. */
static inline __attribute__((always_inline))
void rejoin_until(const refine_state *s, const chain *c, rejoin *w,
                  int64_t end, int64_t num_ports)
{
    while (w->h != w->before && w->k < end)
        rejoin_access(s, c, w, 0, num_ports);
}

/* Cost change of a chain when its accesses at positions out (ascending)
   leave it and the accesses at positions in (ascending, none on the
   chain) join it at the offsets offset_of holds now. */
static inline __attribute__((always_inline))
int64_t rejoin_exchanged(refine_state *s, chain c, const int64_t *out,
                         int64_t n_out, const int64_t *in, int64_t n_in,
                         int64_t num_ports)
{
    int64_t i = 0, j = 0;
    rejoin w = {0, 0, 0, 0, 0};
    while (i < n_out || j < n_in) {
        int64_t t;
        if (j == n_in || (i < n_out && out[i] < in[j])) {
            int64_t k = s->rank[out[i++]] - c.first;
            rejoin_until(s, &c, &w, k, num_ports);
            if (w.h == w.before) rejoin_jump(&c, &w, k);
            rejoin_access(s, &c, &w, 1, num_ports);
            continue;
        }
        t = in[j++];
        while (w.h != w.before && w.k < c.n && c.pos[w.k] < t)
            rejoin_access(s, &c, &w, 0, num_ports);
        if (w.h == w.before) {
            /* The inserted access goes before the first later chain
               access: gallop from where the walk stopped, then bisect. */
            int64_t k = w.k, b = k, step = 1;
            while (b < c.n && c.pos[b] < t) {
                k = b + 1;
                b = k + step;
                step <<= 1;
            }
            if (b > c.n) b = c.n;
            while (k < b) {
                int64_t m = k + (b - k) / 2;
                if (c.pos[m] < t) k = m + 1; else b = m;
            }
            rejoin_jump(&c, &w, k);
        }
        w.delta += lazy_step(s->offset_of[s->item_at[t]], &w.h, s->ports,
                             num_ports);
        ++w.steps;
    }
    rejoin_until(s, &c, &w, c.n, num_ports);
    s->steps += w.steps;
    return w.delta;
}

/* The first set bit of bits at or after bit k, or n when none is. */
static inline __attribute__((always_inline))
int64_t next_bit(const uint64_t *bits, int64_t k, int64_t n)
{
    int64_t i = k >> 6;
    uint64_t word;
    if (k >= n) return n;
    word = bits[i] & (~(uint64_t)0 << (k & 63));
    while (!word) {
        if (++i << 6 >= n) return n;
        word = bits[i];
    }
    return (i << 6) + __builtin_ctzll(word);
}

/* Cost change of a chain when its accesses whose bits (chain indices) are
   set take the offsets offset_of holds now. */
static inline __attribute__((always_inline))
int64_t rejoin_marked(refine_state *s, chain c, const uint64_t *bits,
                      int64_t num_ports)
{
    int64_t k;
    rejoin w = {0, 0, 0, 0, 0};
    for (k = next_bit(bits, 0, c.n); k < c.n; k = next_bit(bits, w.k, c.n)) {
        /* One run, as in rejoin_moved. */
        rejoin_jump(&c, &w, k);
        do {
            rejoin_access(s, &c, &w, 0, num_ports);
        } while (w.k < c.n
                 && (w.h != w.before || (bits[w.k >> 6] >> (w.k & 63) & 1)));
    }
    s->steps += w.steps;
    return w.delta;
}

static int64_t moved_walk(refine_state *s, chain c, const int64_t *r1,
                          int64_t n1, const int64_t *r2, int64_t n2)
{
    int64_t num_ports = s->num_ports;
    return BY_PORTS(rejoin_moved, s, c, r1, n1, r2, n2);
}

static int64_t exchanged_walk(refine_state *s, chain c, const int64_t *out,
                              int64_t n_out, const int64_t *in, int64_t n_in)
{
    int64_t num_ports = s->num_ports;
    return BY_PORTS(rejoin_exchanged, s, c, out, n_out, in, n_in);
}

static int64_t marked_walk(refine_state *s, chain c, const uint64_t *bits)
{
    int64_t num_ports = s->num_ports;
    return BY_PORTS(rejoin_marked, s, c, bits);
}

/* One item's DBC chain without the item, with its trajectory, laid out
   in scratch space (pos and head hold trace_len entries each): every
   cross-DBC probe of the item walks its insertions against this chain.
   item is -1 while nothing is laid out. */
typedef struct {
    int64_t item, n;
    int64_t delta;  /* cost of the chain without item, less its DBC's */
    int64_t *pos, *head;
} without;

/* Lay out item a's DBC chain without a into w, unless it already is;
   returns that chain. */
static chain lay_out_without(refine_state *s, int64_t a, without *w)
{
    int64_t d = s->item_dbc[a], head = 0, cost = 0, n = 0, k;
    chain c;
    if (w->item != a) {
        for (k = s->dbc_start[d]; k < s->dbc_start[d + 1]; ++k) {
            int64_t t = s->dbc_pos[k];
            if (s->item_at[t] == a) continue;
            cost += lazy_step(s->offset_of[s->item_at[t]], &head, s->ports,
                              s->num_ports);
            w->pos[n] = t;
            w->head[n++] = head;
        }
        s->steps += n;
        w->item = a;
        w->n = n;
        w->delta = cost - s->dbc_cost[d];
    }
    c.pos = w->pos;
    c.head = w->head;
    c.n = w->n;
    c.first = 0;
    return c;
}

/* Delta of exchanging the slots of items a and b; the cost changes of
   a's and b's DBCs go to change[0] and change[1].  wa caches a's DBC
   without a. */
static int64_t price_swap(refine_state *s, int64_t a, int64_t b,
                          without *wa, int64_t *change)
{
    int64_t da = s->item_dbc[a], db = s->item_dbc[b];
    int64_t off_a = s->offset_of[a], off_b = s->offset_of[b];
    const int64_t *pos_a = POSITIONS(s, a), *pos_b = POSITIONS(s, b);
    int64_t n_a = NUM_POSITIONS(s, a), n_b = NUM_POSITIONS(s, b);
    if (s->eager)
        return (s->counts[a] - s->counts[b])
               * (s->rest[off_b] - s->rest[off_a]);
    s->offset_of[a] = off_b;
    s->offset_of[b] = off_a;
    if (da == db) {
        change[0] = moved_walk(s, dbc_chain(s, da), pos_a, n_a, pos_b, n_b);
        change[1] = 0;
    } else {
        /* b's accesses join a's DBC without a; on b's DBC, b's accesses
           leave and a's join. */
        chain without_a = lay_out_without(s, a, wa);
        change[0] = wa->delta
                    + exchanged_walk(s, without_a, 0, 0, pos_b, n_b);
        change[1] = exchanged_walk(s, dbc_chain(s, db), pos_b, n_b, pos_a,
                                   n_a);
    }
    s->offset_of[a] = off_a;
    s->offset_of[b] = off_b;
    return change[0] + change[1];
}

/* Delta of moving item a to the free slot (d, o); change and wa as in
   price_swap. */
static int64_t price_move(refine_state *s, int64_t a, int64_t d, int64_t o,
                          without *wa, int64_t *change)
{
    int64_t da = s->item_dbc[a], off_a = s->offset_of[a];
    const int64_t *pos_a = POSITIONS(s, a);
    int64_t n_a = NUM_POSITIONS(s, a);
    if (s->eager) return s->counts[a] * (s->rest[o] - s->rest[off_a]);
    s->offset_of[a] = o;
    if (d == da) {
        change[0] = moved_walk(s, dbc_chain(s, da), pos_a, n_a, 0, 0);
        change[1] = 0;
    } else {
        lay_out_without(s, a, wa);
        change[0] = wa->delta;
        change[1] = exchanged_walk(s, dbc_chain(s, d), 0, 0, pos_a, n_a);
    }
    s->offset_of[a] = off_a;
    return change[0] + change[1];
}

/* Set the bits of item x's chain indices (from lo) in a chain bitset. */
static void mark_item(const refine_state *s, uint64_t *bits, int64_t lo,
                      int64_t x)
{
    const int64_t *t = POSITIONS(s, x);
    int64_t n = NUM_POSITIONS(s, x), i;
    for (i = 0; i < n; ++i) {
        int64_t k = s->rank[t[i]] - lo;
        bits[k >> 6] |= (uint64_t)1 << (k & 63);
    }
}

/* Delta of reversing seg[i .. j] on DBC d: item seg[k], now at offs[k],
   moves to offs[i + j - k]; bits marks those items' chain accesses.  The
   cost change goes to change[0]. */
static int64_t price_reversal(refine_state *s, int64_t d, const int64_t *seg,
                              const int64_t *offs, int64_t i, int64_t j,
                              const uint64_t *bits, int64_t *change)
{
    int64_t delta = 0, k;
    if (s->eager) {
        for (k = i; k <= j; ++k)
            delta += s->counts[seg[k]]
                     * (s->rest[offs[i + j - k]] - s->rest[offs[k]]);
        return delta;
    }
    for (k = i; k <= j; ++k) s->offset_of[seg[k]] = offs[i + j - k];
    change[0] = marked_walk(s, dbc_chain(s, d), bits);
    for (k = i; k <= j; ++k) s->offset_of[seg[k]] = offs[k];
    return change[0];
}

/* Commit a priced swap or move whose offsets are already written: item a
   goes to DBC to_a and, for a swap, item b (-1 for a move) to DBC to_b;
   change[] holds the DBCs' cost changes as price_swap / price_move leave
   them.  The touched trajectories are walked afresh. */
static void commit(refine_state *s, int64_t a, int64_t to_a, int64_t b,
                   int64_t to_b, int64_t delta, const int64_t *change)
{
    int64_t from_a = s->item_dbc[a];
    if (!s->eager) {
        s->dbc_cost[from_a] += change[0];
        if (to_a != from_a) s->dbc_cost[to_a] += change[1];
    }
    if (to_a != from_a) {
        s->item_dbc[a] = to_a;
        if (b >= 0) {
            s->item_dbc[b] = to_b;
        } else {
            --s->load[from_a];
            ++s->load[to_a];
        }
        if (!s->eager) lay_out_dbcs(s, from_a, to_a);
    } else if (!s->eager) {
        walk_trajectory(s, from_a);
    }
    s->delta += delta;
    ++s->accepted;
}

/* Free slots (d * words + o) on DBCs holding any item, in (d, o) order. */
static int64_t list_free(const refine_state *s, int64_t *out)
{
    int64_t n = 0, d, o;
    for (d = 0; d < s->num_dbcs; ++d) {
        if (s->load[d] == 0) continue;
        for (o = 0; o < s->words; ++o)
            if (!s->occupied[d * s->words + o]) out[n++] = d * s->words + o;
    }
    return n;
}

/* swap_refinement: each pass probes swap(a, b) for a < b, then moves of
   every item to each slot free when the item's scan begins; stops after a
   pass without an accepted move or when the budget is spent. */
void repro_swap_pass(refine_state *s)
{
    int64_t *free_slots = s->scratch, change[2], pass, a, b, j;
    int64_t *spare = free_slots + (s->num_dbcs + 2) * s->words;
    without wa = {-1, 0, 0, spare, spare + s->trace_len};
    s->probes = s->accepted = s->delta = s->steps = 0;
    if (!s->eager) lay_out_dbcs(s, -1, -1);
    for (pass = 0; pass < s->max_passes; ++pass) {
        int64_t before = s->accepted, num_free = 0, dirty = 1;
        for (a = 0; a < s->num_items; ++a) {
            for (b = a + 1; b < s->num_items; ++b) {
                int64_t delta, da, db, off;
                if (s->probes >= s->max_probes) return;
                ++s->probes;
                delta = price_swap(s, a, b, &wa, change);
                if (delta >= 0) continue;
                da = s->item_dbc[a];
                db = s->item_dbc[b];
                off = s->offset_of[a];
                s->offset_of[a] = s->offset_of[b];
                s->offset_of[b] = off;
                commit(s, a, db, b, da, delta, change);
                wa.item = -1;
            }
        }
        for (a = 0; a < s->num_items; ++a) {
            if (dirty) {
                num_free = list_free(s, free_slots);
                dirty = 0;
            }
            for (j = 0; j < num_free; ++j) {
                int64_t d = free_slots[j] / s->words;
                int64_t o = free_slots[j] % s->words, delta;
                if (s->probes >= s->max_probes) return;
                ++s->probes;
                delta = price_move(s, a, d, o, &wa, change);
                if (delta >= 0) continue;
                s->occupied[s->item_dbc[a] * s->words + s->offset_of[a]] = 0;
                s->occupied[free_slots[j]] = 1;
                s->offset_of[a] = o;
                commit(s, a, d, -1, -1, delta, change);
                wa.item = -1;
                /* The rest of this list is still free; the next item
                   lists the slots afresh. */
                dirty = 1;
            }
        }
        if (s->accepted == before) return;
    }
}

/* two_opt_refinement: each pass walks every DBC's traced items in offset
   order and probes reversing seg[i .. j] for i < j; a reversal keeps the
   occupied offsets, so the scan resumes at j + 1 (and the items of
   seg[i .. j], so their marks stay). */
void repro_reversal_pass(refine_state *s)
{
    int64_t *slot_item = s->scratch, change[1] = {0}, pass, d, o, i, j, k;
    int64_t *seg = slot_item + s->num_dbcs * s->words, *offs = seg + s->words;
    uint64_t *bits = (uint64_t *)(offs + s->words);
    s->probes = s->accepted = s->delta = s->steps = 0;
    if (!s->eager) lay_out_dbcs(s, -1, -1);
    for (pass = 0; pass < s->max_passes; ++pass) {
        int64_t before = s->accepted;
        for (k = 0; k < s->num_dbcs * s->words; ++k) slot_item[k] = -1;
        for (k = 0; k < s->num_items; ++k)
            slot_item[s->item_dbc[k] * s->words + s->offset_of[k]] = k;
        for (d = 0; d < s->num_dbcs; ++d) {
            int64_t length = 0, lo = s->dbc_start[d];
            int64_t words = (s->dbc_start[d + 1] - lo + 63) >> 6;
            for (o = 0; o < s->words; ++o) {
                int64_t item = slot_item[d * s->words + o];
                if (item < 0) continue;
                seg[length] = item;
                offs[length++] = o;
            }
            for (i = 0; i < length; ++i) {
                if (!s->eager) {
                    for (k = 0; k < words; ++k) bits[k] = 0;
                    mark_item(s, bits, lo, seg[i]);
                }
                for (j = i + 1; j < length; ++j) {
                    int64_t delta;
                    if (s->probes >= s->max_probes) return;
                    ++s->probes;
                    if (!s->eager) mark_item(s, bits, lo, seg[j]);
                    delta = price_reversal(s, d, seg, offs, i, j, bits,
                                           change);
                    if (delta >= 0) continue;
                    for (k = i; k <= j; ++k)
                        s->offset_of[seg[k]] = offs[i + j - k];
                    for (k = 0; i + k < j - k; ++k) {
                        int64_t item = seg[i + k];
                        seg[i + k] = seg[j - k];
                        seg[j - k] = item;
                    }
                    if (!s->eager) {
                        s->dbc_cost[d] += change[0];
                        walk_trajectory(s, d);
                    }
                    s->delta += delta;
                    ++s->accepted;
                }
            }
        }
        if (s->accepted == before) return;
    }
}

/* Grouped layout (docs/ALGORITHMS.md §2): one call per grouping.  Group g
   holds sizes[g] items, numbered 0 .. sizes[g] - 1 in group order, and
   out[g * k + i] receives the i-th item of its chain (entries past the
   group's size keep their own index). */

static inline __attribute__((always_inline))
int64_t segment_impl(const int64_t *codes, int64_t lo, int64_t hi,
                     const int64_t *offset_of, const int64_t *ports,
                     int64_t num_ports)
{
    int64_t head = 0, total = 0, t;
    for (t = lo; t < hi; ++t)
        total += lazy_step(offset_of[codes[t]], &head, ports, num_ports);
    return total;
}

/* Lazy cost of every segment under every candidate: segment s is
   codes[starts[s] .. starts[s + 1]), walked from head 0 with item i at
   offset_table[c * num_items + i]; out[c * num_segments + s]. */
void repro_segment_costs(const int64_t *codes, const int64_t *starts,
                         int64_t num_segments, const int64_t *offset_table,
                         int64_t num_candidates, int64_t num_items,
                         const int64_t *ports, int64_t num_ports,
                         int64_t *out)
{
    int64_t c, s;
    for (c = 0; c < num_candidates; ++c) {
        const int64_t *offset_of = offset_table + c * num_items;
        for (s = 0; s < num_segments; ++s)
            out[c * num_segments + s] = BY_PORTS(
                segment_impl, codes, starts[s], starts[s + 1], offset_of,
                ports);
    }
}

static int64_t find_root(int64_t *parent, int64_t i)
{
    while (parent[i] != i) {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

/* greedy_chain_order over int codes.  Group g's edges are
   (edge_lo[e], edge_hi[e]) for e in [edge_start[g], edge_start[g + 1]),
   heaviest first, lo the endpoint whose name sorts first.  An edge joins
   two distinct fragments at endpoints, turning the left fragment so lo
   ends it and the right one so hi starts it; fragments are then emitted
   by their lowest-numbered item, each from its first end.  scratch holds
   6 * k entries. */
void repro_greedy_chains(const int64_t *edge_lo, const int64_t *edge_hi,
                         const int64_t *edge_start, const int64_t *sizes,
                         int64_t num_groups, int64_t k, int64_t *scratch,
                         int64_t *out)
{
    int64_t *parent = scratch, *first = scratch + k, *last = scratch + 2 * k;
    int64_t *adj0 = scratch + 3 * k, *adj1 = scratch + 4 * k;
    int64_t *seen = scratch + 5 * k;
    int64_t g, e, i;
    for (g = 0; g < num_groups; ++g) {
        int64_t n = sizes[g], at = 0, *row = out + g * k;
        for (i = 0; i < n; ++i) {
            parent[i] = first[i] = last[i] = i;
            adj0[i] = adj1[i] = -1;
            seen[i] = 0;
        }
        for (e = edge_start[g]; e < edge_start[g + 1]; ++e) {
            int64_t left = edge_lo[e], right = edge_hi[e], t;
            int64_t rl = find_root(parent, left), rr = find_root(parent, right);
            if (rl == rr) continue;
            if (first[rl] != left && last[rl] != left) continue;
            if (first[rr] != right && last[rr] != right) continue;
            if (last[rl] != left) {
                t = first[rl]; first[rl] = last[rl]; last[rl] = t;
            }
            if (first[rr] != right) {
                t = first[rr]; first[rr] = last[rr]; last[rr] = t;
            }
            if (adj0[left] < 0) adj0[left] = right; else adj1[left] = right;
            if (adj0[right] < 0) adj0[right] = left; else adj1[right] = left;
            last[rl] = last[rr];
            parent[rr] = rl;
        }
        for (i = 0; i < n; ++i) {
            int64_t root = find_root(parent, i), prev = -1, cur;
            if (seen[root]) continue;
            seen[root] = 1;
            for (cur = first[root]; cur >= 0;) {
                int64_t next = adj0[cur] != prev ? adj0[cur] : adj1[cur];
                row[at++] = cur;
                prev = cur;
                cur = next;
            }
        }
        for (i = n; i < k; ++i) row[i] = i;
    }
}

/* bidirectional_order over int codes: weights[g * k * k + i * k + j] is
   the symmetric pair count of items i and j of group g, freq[g * k + i]
   item i's access count.  The item with the largest (degree, freq, -i)
   seeds the chain; each step takes the unplaced item with the largest
   (attachment, degree, freq, -i) and puts it at the cheaper end (the
   right end on ties).  scratch holds 5 * k entries. */
void repro_bidirectional_chains(const int64_t *weights, const int64_t *sizes,
                                const int64_t *freq, int64_t num_groups,
                                int64_t k, int64_t *scratch, int64_t *out)
{
    int64_t *degree = scratch, *attach = scratch + k, *moment = scratch + 2 * k;
    int64_t *placed = scratch + 3 * k, *position = scratch + 4 * k;
    int64_t g, i, j, step;
    for (g = 0; g < num_groups; ++g) {
        const int64_t *w = weights + g * k * k, *f = freq + g * k;
        int64_t n = sizes[g], left = 0, right = 0, *row = out + g * k;
        int64_t best = -1;
        for (i = 0; i < n; ++i) {
            degree[i] = 0;
            for (j = 0; j < n; ++j) degree[i] += w[i * k + j];
            attach[i] = moment[i] = placed[i] = 0;
            if (best < 0 || degree[i] > degree[best]
                || (degree[i] == degree[best] && f[i] > f[best]))
                best = i;
        }
        for (step = 0; step < n; ++step) {
            int64_t at;
            if (step > 0) {
                int64_t left_cost, right_cost;
                best = -1;
                for (i = 0; i < n; ++i) {
                    if (placed[i]) continue;
                    if (best < 0 || attach[i] > attach[best]
                        || (attach[i] == attach[best]
                            && (degree[i] > degree[best]
                                || (degree[i] == degree[best]
                                    && f[i] > f[best]))))
                        best = i;
                }
                left_cost = moment[best] - attach[best] * (left - 1);
                right_cost = attach[best] * (right + 1) - moment[best];
                at = left_cost < right_cost ? --left : ++right;
            } else {
                at = 0;
            }
            placed[best] = 1;
            position[best] = at;
            for (j = 0; j < n; ++j) {
                int64_t value = w[best * k + j];
                if (placed[j] || value == 0) continue;
                attach[j] += value;
                moment[j] += value * at;
            }
        }
        for (i = 0; i < n; ++i) row[position[i] - left] = i;
        for (i = n; i < k; ++i) row[i] = i;
    }
}

/* Item x changes group from s (-1: unplaced) to t: every neighbour's
   weight toward its own group (own[]) follows, and own[x] becomes x's
   weight toward t.  Member rows are the caller's. */
static void regroup(int64_t x, int64_t s, int64_t t, const int64_t *nb_start,
                    const int64_t *nb, const int64_t *nb_w, int64_t *group_of,
                    int64_t *own)
{
    int64_t e, total = 0;
    for (e = nb_start[x]; e < nb_start[x + 1]; ++e) {
        int64_t g = group_of[nb[e]];
        if (g < 0) continue;
        if (g == s) own[nb[e]] -= nb_w[e];
        else if (g == t) {
            own[nb[e]] += nb_w[e];
            total += nb_w[e];
        }
    }
    group_of[x] = t;
    own[x] = total;
}

/* Drop x from a member row, shifting the later members down. */
static void unlink_member(int64_t *row, int64_t *size, int64_t x)
{
    int64_t i = 0;
    while (row[i] != x) ++i;
    for (--*size; i < *size; ++i) row[i] = row[i + 1];
}

/* greedy_min_affinity_grouping + refine_grouping over int codes.  Group g
   holds members[g * width .. + sizes[g]) in list order.  With greedy set
   the items hot[0 .. n) are first assigned (each to the group with spare
   capacity minimising (weight toward it, size, index)); then up to
   max_passes first-improvement passes move an item to the group it weighs
   least toward, else swap it with the first member of another group whose
   exchange gains.  Weights come from the neighbour CSR (nb_start, nb,
   nb_w); own[x] is x's weight toward its own group, and wg (x's weight
   toward every group), wo (toward every item) and ws (every item's weight
   toward x's group) are scattered per item and cleared after it.  scratch
   holds 5 * n + num_groups entries.  Returns -1 if an item finds no group
   with room, else 0. */
int64_t repro_min_affinity_groups(int64_t n, int64_t num_groups,
                                  int64_t capacity, int64_t width,
                                  const int64_t *hot, const int64_t *nb_start,
                                  const int64_t *nb, const int64_t *nb_w,
                                  int64_t greedy, int64_t max_passes,
                                  int64_t *members, int64_t *sizes,
                                  int64_t *scratch)
{
    int64_t *group_of = scratch, *own = scratch + n, *wo = scratch + 2 * n;
    int64_t *ws = scratch + 3 * n, *order = scratch + 4 * n;
    int64_t *wg = scratch + 5 * n;
    int64_t g, i, e, t, pass;
    for (i = 0; i < n; ++i) group_of[i] = -1, own[i] = wo[i] = ws[i] = 0;
    for (g = 0; g < num_groups; ++g) wg[g] = 0;
    if (greedy) {
        for (g = 0; g < num_groups; ++g) sizes[g] = 0;
        for (t = 0; t < n; ++t) {
            int64_t x = hot[t], best = -1;
            for (e = nb_start[x]; e < nb_start[x + 1]; ++e)
                if (group_of[nb[e]] >= 0) wg[group_of[nb[e]]] += nb_w[e];
            for (g = 0; g < num_groups; ++g) {
                if (sizes[g] >= capacity) continue;
                if (best < 0 || wg[g] < wg[best]
                    || (wg[g] == wg[best] && sizes[g] < sizes[best]))
                    best = g;
            }
            for (g = 0; g < num_groups; ++g) wg[g] = 0;
            if (best < 0) return -1;
            members[best * width + sizes[best]++] = x;
            regroup(x, -1, best, nb_start, nb, nb_w, group_of, own);
        }
    } else {
        for (g = 0; g < num_groups; ++g)
            for (i = 0; i < sizes[g]; ++i) group_of[members[g * width + i]] = g;
        for (i = 0; i < n; ++i) {
            if (group_of[i] < 0) continue;
            for (e = nb_start[i]; e < nb_start[i + 1]; ++e)
                if (group_of[nb[e]] == group_of[i]) own[i] += nb_w[e];
        }
    }
    for (pass = 0; pass < max_passes; ++pass) {
        int64_t changed = 0, count = 0;
        for (g = 0; g < num_groups; ++g)
            for (i = 0; i < sizes[g]; ++i) order[count++] = members[g * width + i];
        for (t = 0; t < count; ++t) {
            int64_t x = order[t], s = group_of[x], current = own[x];
            int64_t best = s, best_cost = current, other = -1, target = -1;
            int64_t *source_row = members + s * width;
            if (current == 0) continue;
            for (e = nb_start[x]; e < nb_start[x + 1]; ++e)
                if (group_of[nb[e]] >= 0) wg[group_of[nb[e]]] += nb_w[e];
            for (g = 0; g < num_groups; ++g) {
                if (g == s || sizes[g] >= capacity) continue;
                if (wg[g] < best_cost) best_cost = wg[g], best = g;
            }
            if (best != s) {
                for (g = 0; g < num_groups; ++g) wg[g] = 0;
                unlink_member(source_row, sizes + s, x);
                members[best * width + sizes[best]++] = x;
                regroup(x, s, best, nb_start, nb, nb_w, group_of, own);
                changed = 1;
                continue;
            }
            for (e = nb_start[x]; e < nb_start[x + 1]; ++e) wo[nb[e]] = nb_w[e];
            for (i = 0; i < sizes[s]; ++i) {
                int64_t m = source_row[i];
                for (e = nb_start[m]; e < nb_start[m + 1]; ++e) ws[nb[e]] += nb_w[e];
            }
            for (g = 0; g < num_groups && other < 0; ++g) {
                if (g == s) continue;
                for (i = 0; i < sizes[g]; ++i) {
                    int64_t y = members[g * width + i], pair = wo[y];
                    int64_t gain_x = current - (wg[g] - pair);
                    int64_t gain_y = own[y] - (ws[y] - pair);
                    if (gain_x + gain_y > 0) {
                        other = y;
                        target = g;
                        break;
                    }
                }
            }
            for (g = 0; g < num_groups; ++g) wg[g] = 0;
            for (e = nb_start[x]; e < nb_start[x + 1]; ++e) wo[nb[e]] = 0;
            for (i = 0; i < sizes[s]; ++i) {
                int64_t m = source_row[i];
                for (e = nb_start[m]; e < nb_start[m + 1]; ++e) ws[nb[e]] = 0;
            }
            if (other < 0) continue;
            unlink_member(source_row, sizes + s, x);
            unlink_member(members + target * width, sizes + target, other);
            source_row[sizes[s]++] = other;
            members[target * width + sizes[target]++] = x;
            regroup(x, s, target, nb_start, nb, nb_w, group_of, own);
            regroup(other, target, s, nb_start, nb, nb_w, group_of, own);
            changed = 1;
        }
        if (!changed) break;
    }
    return 0;
}
"""


# ---------------------------------------------------------------------------
# numpy walks
# ---------------------------------------------------------------------------

def single_port_access_costs_numpy(offsets, port: int, resets=None):
    """Per-access shift costs of a lazy single-port replay (position diffs).

    ``resets`` (optional bool per access) marks accesses that start a new
    replay from head 0, as the first access does.
    """
    import numpy as np

    targets = offsets if port == 0 else offsets - port
    costs = np.empty(targets.size, dtype=np.int64)
    costs[0] = abs(int(targets[0]))
    if targets.size > 1:
        np.abs(np.diff(targets), out=costs[1:])
        if resets is not None:
            restart = np.flatnonzero(resets[1:]) + 1
            costs[restart] = np.abs(targets[restart])
    return costs


def two_port_access_costs_numpy(offsets, ports, resets=None):
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
    the total lazy cost of the sequence.  An access marked in ``resets``
    (optional bool per access) is served from head 0, as the first one is:
    its step is a convergence whatever the state before it.
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
    if resets is not None:
        restart = resets[1:]
        from_a, from_b = np.abs(head_a[1:]), np.abs(head_b[1:])
        pick = from_b < from_a
        pick_b0 = np.where(restart, pick, pick_b0)
        pick_b1 = np.where(restart, pick, pick_b1)
        fresh = np.minimum(from_a, from_b)
        min0 = np.where(restart, fresh, min0)
        min1 = np.where(restart, fresh, min1)
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


def multi_port_access_costs_numpy(offsets, ports, resets=None):
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
    Accesses marked in ``resets`` (optional bool per access) are served
    from head 0, as the first one is.
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
    if resets is not None:
        restart = np.flatnonzero(resets[1:])
        fresh = np.abs(cur[restart])
        port = fresh.argmin(axis=1)  # first minimum: the lowest port
        costs[restart] = fresh[np.arange(restart.size), port][:, None]
        nexts[restart] = port[:, None]
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


def _numpy_lazy_costs(offsets, ports, resets=None):
    """Per-access lazy costs from head 0: the diff for one port, the closed
    form for two (on a 25k-access chain the scan takes ~8× as long), the
    Hillis–Steele scan for ``P ≥ 3``.  Accesses marked in ``resets``
    restart from head 0."""
    import numpy as np

    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        return np.empty(0, dtype=np.int64)
    if len(ports) == 1:
        return single_port_access_costs_numpy(offsets, ports[0], resets)
    if len(ports) == 2:
        return two_port_access_costs_numpy(offsets, ports, resets)
    return multi_port_access_costs_numpy(offsets, ports, resets)


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
# Chains over int codes
# ---------------------------------------------------------------------------

def greedy_chain_codes(size: int, edge_lo, edge_hi) -> list[int]:
    """:func:`~repro.core.ordering.greedy_chain_order` over items
    ``0 .. size - 1`` (group order), with its edges already sorted: edge
    ``e`` joins its left end ``edge_lo[e]`` to ``edge_hi[e]``.  The numpy
    tier's chain and the oracle of the compiled ``repro_greedy_chains``."""
    fragment_of = [[item] for item in range(size)]
    for left, right in zip(edge_lo, edge_hi):
        frag_left = fragment_of[left]
        frag_right = fragment_of[right]
        if frag_left is frag_right:
            continue
        if frag_left[0] != left and frag_left[-1] != left:
            continue
        if frag_right[0] != right and frag_right[-1] != right:
            continue
        if frag_left[-1] != left:
            frag_left.reverse()
        if frag_right[0] != right:
            frag_right.reverse()
        frag_left.extend(frag_right)
        for item in frag_right:
            fragment_of[item] = frag_left
    seen: set[int] = set()
    order: list[int] = []
    for fragment in fragment_of:
        if id(fragment) not in seen:
            seen.add(id(fragment))
            order.extend(fragment)
    return order


def bidirectional_chain_codes(weights, freq) -> list[int]:
    """:func:`~repro.core.shiftsreduce.bidirectional_order` over items
    ``0 .. k - 1`` (their rank): ``weights`` is the symmetric ``k × k``
    pair-count table (zero diagonal, nested lists), ``freq`` the access
    counts.  The numpy tier's chain and the oracle of the compiled
    ``repro_bidirectional_chains``."""
    size = len(freq)
    if size <= 1:
        return list(range(size))
    degree = [sum(row) for row in weights]
    tie = [(degree[item], freq[item], -item) for item in range(size)]
    attach = [0] * size
    moment = [0] * size
    remaining = set(range(size))
    position = [0] * size

    def place(item: int, at: int) -> None:
        position[item] = at
        remaining.remove(item)
        for other, value in enumerate(weights[item]):
            if value and other in remaining:
                attach[other] += value
                moment[other] += value * at

    place(max(range(size), key=tie.__getitem__), 0)
    left_end = right_end = 0
    while remaining:
        best = max(remaining, key=lambda item: (attach[item],) + tie[item])
        left_cost = moment[best] - attach[best] * (left_end - 1)
        right_cost = attach[best] * (right_end + 1) - moment[best]
        if left_cost < right_cost:
            left_end -= 1
            place(best, left_end)
        else:
            right_end += 1
            place(best, right_end)
    return sorted(range(size), key=position.__getitem__)


# ---------------------------------------------------------------------------
# Grouping over int codes
# ---------------------------------------------------------------------------

def min_affinity_group_codes(
    num_groups: int,
    capacity: int,
    hot,
    nb_start,
    nb,
    nb_w,
    groups: list[list[int]] | None = None,
    max_passes: int = 4,
) -> list[list[int]]:
    """:func:`~repro.core.grouping.greedy_min_affinity_grouping` (when
    ``groups`` is ``None``: assign ``hot``'s items in turn) followed by
    ``max_passes`` passes of :func:`~repro.core.grouping.refine_grouping`
    over item codes, item ``x``'s neighbours being ``nb[nb_start[x] :
    nb_start[x + 1]]`` with weights ``nb_w``.  Lists of Python ints in;
    the groups out.  The numpy tier's grouping and the oracle of the
    compiled ``repro_min_affinity_groups``.

    ``own[x]`` is ``x``'s weight toward its own group, kept in O(degree)
    per assign, move and swap; a visited item's weights toward every
    group and, for a swap, toward every item and every item's toward the
    visited item's group are gathered from the CSR rows.
    """
    size = len(nb_start) - 1
    group_of = [-1] * size
    own = [0] * size

    def row(x):
        span = slice(nb_start[x], nb_start[x + 1])
        return zip(nb[span], nb_w[span])

    def toward_groups(x) -> list[int]:
        weights = [0] * len(groups)
        for other, weight in row(x):
            if group_of[other] >= 0:
                weights[group_of[other]] += weight
        return weights

    def regroup(x: int, source: int, target: int) -> None:
        total = 0
        for other, weight in row(x):
            group = group_of[other]
            if group < 0:
                continue
            if group == source:
                own[other] -= weight
            elif group == target:
                own[other] += weight
                total += weight
        group_of[x] = target
        own[x] = total

    if groups is None:
        groups = [[] for _ in range(num_groups)]
        for x in hot:
            weights = toward_groups(x)
            keys = [
                (weights[g], len(group), g)
                for g, group in enumerate(groups)
                if len(group) < capacity
            ]
            if not keys:
                raise ValueError("an item finds no group with room")
            best = min(keys)[2]
            groups[best].append(x)
            regroup(x, -1, best)
    else:
        groups = [list(group) for group in groups]
        for g, group in enumerate(groups):
            for x in group:
                group_of[x] = g
        for x in range(size):
            if group_of[x] >= 0:
                own[x] = sum(w for other, w in row(x) if group_of[other] == group_of[x])
    for _ in range(max_passes):
        changed = False
        for x in [x for group in groups for x in group]:
            source, current = group_of[x], own[x]
            if current == 0:
                continue
            weights = toward_groups(x)
            best, best_cost = source, current
            for g in range(len(groups)):
                if g != source and len(groups[g]) < capacity and weights[g] < best_cost:
                    best, best_cost = g, weights[g]
            if best != source:
                groups[source].remove(x)
                groups[best].append(x)
                regroup(x, source, best)
                changed = True
                continue
            pair = dict(row(x))
            toward_source: dict[int, int] = {}
            for member in groups[source]:
                for other, weight in row(member):
                    toward_source[other] = toward_source.get(other, 0) + weight
            swap = next(
                (
                    (g, y)
                    for g in range(len(groups))
                    if g != source
                    for y in groups[g]
                    if current - (weights[g] - pair.get(y, 0))
                    + own[y] - (toward_source.get(y, 0) - pair.get(y, 0))
                    > 0
                ),
                None,
            )
            if swap is None:
                continue
            target, y = swap
            groups[source].remove(x)
            groups[target].remove(y)
            groups[source].append(y)
            groups[target].append(x)
            regroup(x, source, target)
            regroup(y, target, source)
            changed = True
        if not changed:
            break
    return groups


def _check_grouping(num_groups, capacity, hot, nb_start, nb, nb_w, members, sizes):
    """Reject grouping inputs the compiled grouping would index out of
    bounds with: a malformed neighbour CSR, ``hot`` not a permutation of
    the items, member rows narrower than ``capacity`` (a move appends up
    to it), or rows holding unknown, repeated or too many items."""
    import numpy as np

    size = nb_start.size - 1
    if size < 0 or nb_start[0] != 0 or nb_start[-1] != nb.size or nb.size != nb_w.size:
        raise ValueError("nb_start must span nb and nb_w from 0")
    if (np.diff(nb_start) < 0).any():
        raise ValueError("nb_start must ascend")
    if nb.size and (int(nb.min()) < 0 or int(nb.max()) >= size):
        raise IndexError(f"neighbour outside [0, {size})")
    if capacity < 0 or num_groups < 0:
        raise ValueError("capacity and group count must be non-negative")
    if members is None:
        if hot.size != size or not np.array_equal(np.sort(hot), np.arange(size)):
            raise ValueError("hot must order every item once")
        return
    if members.shape[0] != num_groups or sizes.shape != (num_groups,):
        raise ValueError("members must be (G, width) and sizes (G,)")
    if members.shape[1] < capacity:
        raise ValueError("member rows must hold at least capacity items")
    if sizes.size and (int(sizes.min()) < 0 or int(sizes.max()) > members.shape[1]):
        raise ValueError("a group size exceeds the member width")
    placed = members[np.arange(members.shape[1]) < sizes[:, None]]
    if placed.size and (int(placed.min()) < 0 or int(placed.max()) >= size):
        raise IndexError(f"member outside [0, {size})")
    if np.unique(placed).size != placed.size:
        raise ValueError("an item is in more than one group slot")


def _grouping_arrays(num_groups, capacity, hot, nb_start, nb, nb_w, initial):
    """The grouping inputs as C-contiguous ``int64`` arrays, checked
    (:func:`_check_grouping`); ``(members, sizes)`` are ``None`` without
    ``initial``."""
    import numpy as np

    hot, nb_start, nb, nb_w = (
        np.ascontiguousarray(array, dtype=np.int64)
        for array in (hot, nb_start, nb, nb_w)
    )
    members = sizes = None
    if initial is not None:
        members, sizes = (
            np.ascontiguousarray(array, dtype=np.int64) for array in initial
        )
        if members.ndim != 2:
            raise ValueError("members must be (G, width)")
    _check_grouping(num_groups, capacity, hot, nb_start, nb, nb_w, members, sizes)
    return hot, nb_start, nb, nb_w, members, sizes


def _check_chains(sizes, k: int, *arrays) -> None:
    """Reject chain inputs the compiled chains would index out of bounds
    with: group sizes past ``k`` or item numbers outside ``[0, k)``."""
    if sizes.size and int(sizes.max()) > k:
        raise ValueError(f"a group holds more than {k} items")
    for array in arrays:
        if array.size and (int(array.min()) < 0 or int(array.max()) >= k):
            raise IndexError(f"item number outside [0, {k})")


def _check_segments(codes, starts, offset_table) -> None:
    """Reject segment inputs the compiled pricing would index out of
    bounds with."""
    import numpy as np

    if offset_table.ndim != 2:
        raise ValueError("offset_table must be (candidates, items)")
    num_items = offset_table.shape[1]
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= num_items):
        raise IndexError("segment code outside the offset table's items")
    if starts.size == 0 or starts[0] < 0 or starts[-1] > codes.size or (
        np.diff(starts) < 0
    ).any():
        raise ValueError("starts must ascend from 0 within the codes")


# ---------------------------------------------------------------------------
# Refinement-pass state
# ---------------------------------------------------------------------------

class RefineState:
    """The arrays a compiled refinement pass reads and updates in place.

    Read: ``item_at`` (item of each access), the item position CSR
    ``item_pos``/``item_start``, ``ports``, and the eager weights
    ``counts`` (accesses per item) and ``rest`` (cost per access at each
    offset).  Updated: ``offset_of`` and ``item_dbc`` (the assignment),
    ``dbc_cost`` (lazy cost per DBC), ``load`` (items per DBC, untraced
    placement entries included) and ``occupied`` (1 per held slot
    ``dbc * words + offset``).  ``dbc_pos``/``dbc_start`` (the DBC
    position CSR), the trajectories ``dbc_head`` (the head after each
    access of ``dbc_pos``) and ``rank`` (the ``dbc_pos`` index of each
    trace position), and ``scratch`` are work space the pass lays out
    itself.  Every array is C-contiguous ``int64``; the caller guarantees
    that every slot lies inside the ``num_dbcs`` × ``words`` geometry.
    """

    ARRAYS = (
        "item_at", "item_pos", "item_start", "ports", "counts", "rest",
        "offset_of", "item_dbc", "dbc_cost", "load", "occupied", "dbc_pos",
        "dbc_start", "dbc_head", "rank", "scratch",
    )
    SIZES = ("num_items", "num_dbcs", "words", "eager")
    __slots__ = ARRAYS + SIZES

    def __init__(self, **fields) -> None:
        for name in self.ARRAYS + self.SIZES:
            setattr(self, name, fields[name])


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

    def segment_costs(self, codes, starts, offset_table, ports):
        """Lazy cost of every segment under every candidate: a ``(C, S)``
        table whose entry ``[c, s]`` walks ``codes[starts[s] ..
        starts[s + 1])`` from head 0 with item ``i`` at
        ``offset_table[c, i]``.  Candidates' rows are walked back to back,
        up to :data:`NUMPY_SEGMENT_ACCESSES` accesses per walk, with every
        segment start marked as a reset."""
        import numpy as np

        _check_segments(codes, starts, offset_table)
        length = codes.size
        out = np.zeros((offset_table.shape[0], starts.size - 1), dtype=np.int64)
        if length == 0:
            return out
        resets = np.zeros(length, dtype=bool)
        resets[starts[:-1][starts[:-1] < length]] = True
        per_walk = max(1, NUMPY_SEGMENT_ACCESSES // length)
        for first in range(0, len(out), per_walk):
            rows = offset_table[first : first + per_walk]
            costs = _numpy_lazy_costs(
                rows[:, codes].ravel(), ports, np.tile(resets, len(rows))
            )
            running = np.zeros((len(rows), length + 1), dtype=np.int64)
            np.cumsum(costs.reshape(len(rows), length), axis=1, out=running[:, 1:])
            out[first : first + len(rows)] = (
                running[:, starts[1:]] - running[:, starts[:-1]]
            )
        return out

    def greedy_chains(self, edge_lo, edge_hi, edge_start, sizes, k: int):
        """Every group's greedy chain (:func:`greedy_chain_codes`): a
        ``(G, k)`` table of item numbers, padded with the entries' own
        index.  Group ``g``'s sorted edges are
        ``edge_start[g] .. edge_start[g + 1]``."""
        import numpy as np

        _check_chains(sizes, k, edge_lo, edge_hi)
        out = np.tile(np.arange(k, dtype=np.int64), (sizes.size, 1))
        lo, hi, bounds = edge_lo.tolist(), edge_hi.tolist(), edge_start.tolist()
        for g, size in enumerate(sizes.tolist()):
            first, last = bounds[g], bounds[g + 1]
            out[g, :size] = greedy_chain_codes(size, lo[first:last], hi[first:last])
        return out

    def bidirectional_chains(self, weights, sizes, freq):
        """Every group's bidirectional chain
        (:func:`bidirectional_chain_codes`) over the ``(G, k, k)`` pair
        table; padded as :meth:`greedy_chains`."""
        import numpy as np

        k = weights.shape[-1]
        _check_chains(sizes, k)
        out = np.tile(np.arange(k, dtype=np.int64), (sizes.size, 1))
        for g, size in enumerate(sizes.tolist()):
            out[g, :size] = bidirectional_chain_codes(
                weights[g, :size, :size].tolist(), freq[g, :size].tolist()
            )
        return out

    def min_affinity_groups(
        self, num_groups, capacity, hot, nb_start, nb, nb_w, initial=None,
        max_passes=4,
    ):
        """The interference-minimizing grouping over item codes
        (:func:`min_affinity_group_codes`): ``(members, sizes)``, group
        ``g`` being ``members[g, :sizes[g]]`` (padding ``-1``).  With
        ``initial`` (a ``(members, sizes)`` pair) it is refined as given,
        else built greedily over ``hot`` first; ``max_passes`` refinement
        passes follow.  The output is as wide as ``initial``'s members, or
        ``capacity``."""
        import numpy as np

        hot, nb_start, nb, nb_w, members, sizes = _grouping_arrays(
            num_groups, capacity, hot, nb_start, nb, nb_w, initial
        )
        groups = None
        if members is not None:
            groups = [row[:size].tolist() for row, size in zip(members, sizes)]
        groups = min_affinity_group_codes(
            num_groups, capacity, hot.tolist(), nb_start.tolist(),
            nb.tolist(), nb_w.tolist(), groups, max(0, max_passes),
        )
        width = capacity if members is None else members.shape[1]
        out = np.full((num_groups, width), -1, dtype=np.int64)
        sizes = np.asarray([len(group) for group in groups], dtype=np.int64)
        out[np.arange(width) < sizes[:, None]] = [x for group in groups for x in group]
        return out, sizes

    #: No compiled refinement passes: on this tier
    #: :class:`~repro.core.incremental.CostEvaluator` runs its single-probe
    #: scans (``scan_swaps`` / ``scan_reversals``) instead.
    swap_pass = reversal_pass = None


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
        lib.repro_swap_pass.restype = None
        lib.repro_swap_pass.argtypes = [ptr]
        lib.repro_reversal_pass.restype = None
        lib.repro_reversal_pass.argtypes = [ptr]
        lib.repro_segment_costs.restype = None
        lib.repro_segment_costs.argtypes = [ptr, ptr, i64, ptr, i64, i64, ptr, i64, ptr]
        lib.repro_greedy_chains.restype = None
        lib.repro_greedy_chains.argtypes = [ptr, ptr, ptr, ptr, i64, i64, ptr, ptr]
        lib.repro_bidirectional_chains.restype = None
        lib.repro_bidirectional_chains.argtypes = [ptr, ptr, ptr, i64, i64, ptr, ptr]
        lib.repro_min_affinity_groups.restype = i64
        lib.repro_min_affinity_groups.argtypes = [i64] * 4 + [ptr] * 4 + [
            i64, i64, ptr, ptr, ptr
        ]
        # Mirrors the C refine_state: every field is 8 bytes wide.
        self._refine_state = type(
            "refine_state",
            (ctypes.Structure,),
            {
                "_fields_": [(name, ptr) for name in RefineState.ARRAYS]
                + [
                    (name, i64)
                    for name in (
                        "num_ports", "num_items", "trace_len", "num_dbcs",
                        "words", "eager", "max_passes", "max_probes",
                        "probes", "accepted", "delta", "steps",
                    )
                ]
            },
        )
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

    def segment_costs(self, codes, starts, offset_table, ports):
        """:meth:`NumpyKernels.segment_costs` in one compiled call."""
        np = self._np
        codes, starts, offset_table, ports = (
            np.ascontiguousarray(array, dtype=np.int64)
            for array in (codes, starts, offset_table, ports)
        )
        _check_segments(codes, starts, offset_table)
        candidates, num_items = offset_table.shape
        out = np.empty((candidates, starts.size - 1), dtype=np.int64)
        self._lib.repro_segment_costs(
            codes.ctypes.data, starts.ctypes.data, starts.size - 1,
            offset_table.ctypes.data, candidates, num_items,
            ports.ctypes.data, ports.size, out.ctypes.data,
        )
        return out

    def greedy_chains(self, edge_lo, edge_hi, edge_start, sizes, k: int):
        """:meth:`NumpyKernels.greedy_chains` in one compiled call."""
        np = self._np
        edge_lo, edge_hi, edge_start, sizes = (
            np.ascontiguousarray(array, dtype=np.int64)
            for array in (edge_lo, edge_hi, edge_start, sizes)
        )
        _check_chains(sizes, k, edge_lo, edge_hi)
        out = np.empty((sizes.size, k), dtype=np.int64)
        scratch = np.empty(6 * k, dtype=np.int64)
        self._lib.repro_greedy_chains(
            edge_lo.ctypes.data, edge_hi.ctypes.data, edge_start.ctypes.data,
            sizes.ctypes.data, sizes.size, k, scratch.ctypes.data,
            out.ctypes.data,
        )
        return out

    def bidirectional_chains(self, weights, sizes, freq):
        """:meth:`NumpyKernels.bidirectional_chains` in one compiled call."""
        np = self._np
        weights, sizes, freq = (
            np.ascontiguousarray(array, dtype=np.int64)
            for array in (weights, sizes, freq)
        )
        k = weights.shape[-1]
        _check_chains(sizes, k)
        if weights.shape != (sizes.size, k, k) or freq.shape != (sizes.size, k):
            raise ValueError("weights must be (G, k, k) and freq (G, k)")
        out = np.empty((sizes.size, k), dtype=np.int64)
        scratch = np.empty(5 * k, dtype=np.int64)
        self._lib.repro_bidirectional_chains(
            weights.ctypes.data, sizes.ctypes.data, freq.ctypes.data,
            sizes.size, k, scratch.ctypes.data, out.ctypes.data,
        )
        return out

    def min_affinity_groups(
        self, num_groups, capacity, hot, nb_start, nb, nb_w, initial=None,
        max_passes=4,
    ):
        """:meth:`NumpyKernels.min_affinity_groups` in one compiled call."""
        np = self._np
        hot, nb_start, nb, nb_w, members, sizes = _grouping_arrays(
            num_groups, capacity, hot, nb_start, nb, nb_w, initial
        )
        greedy = members is None
        if greedy:
            members = np.full((num_groups, capacity), -1, dtype=np.int64)
            sizes = np.zeros(num_groups, dtype=np.int64)
        else:
            members, sizes = members.copy(), sizes.copy()
        size = nb_start.size - 1
        scratch = np.empty(5 * size + num_groups, dtype=np.int64)
        status = self._lib.repro_min_affinity_groups(
            size, num_groups, capacity, members.shape[1], hot.ctypes.data,
            nb_start.ctypes.data, nb.ctypes.data, nb_w.ctypes.data,
            int(greedy), max(0, max_passes), members.ctypes.data,
            sizes.ctypes.data, scratch.ctypes.data,
        )
        if status < 0:
            raise ValueError("an item finds no group with room")
        members[np.arange(members.shape[1]) >= sizes[:, None]] = -1
        return members, sizes

    def _run_pass(self, entry, state, max_passes, max_probes):
        """One compiled pass over ``state``; ``(probes, accepted, delta,
        steps)``, ``steps`` being the lazy steps it walked."""
        import ctypes

        np = self._np
        items, dbcs, words = state.num_items, state.num_dbcs, state.words
        trace_len = state.item_at.size
        sizes = {
            "item_pos": trace_len, "item_start": items + 1,
            "counts": items, "rest": words, "offset_of": items,
            "item_dbc": items, "dbc_cost": dbcs, "load": dbcs,
            "occupied": dbcs * words, "dbc_pos": trace_len,
            "dbc_start": dbcs + 1, "dbc_head": trace_len, "rank": trace_len,
            "scratch": (dbcs + 2) * words + 2 * trace_len,
        }
        for name in RefineState.ARRAYS:
            array = getattr(state, name)
            if array.dtype != np.int64 or not array.flags.c_contiguous:
                raise ValueError(f"{name} must be C-contiguous int64")
            if name in sizes and array.size != sizes[name]:
                raise ValueError(f"{name} must hold {sizes[name]} entries")
        struct = self._refine_state(
            *(getattr(state, name).ctypes.data for name in RefineState.ARRAYS),
            state.ports.size,
            state.num_items,
            trace_len,
            state.num_dbcs,
            state.words,
            int(state.eager),
            max_passes,
            max_probes,
        )
        entry(ctypes.byref(struct))
        return struct.probes, struct.accepted, struct.delta, struct.steps

    def swap_pass(self, state, max_passes, max_probes):
        """``swap_refinement``'s scan: at most ``max_passes`` passes and
        ``max_probes`` probes; returns ``(probes, accepted, delta, steps)``."""
        return self._run_pass(self._lib.repro_swap_pass, state, max_passes, max_probes)

    def reversal_pass(self, state, max_passes, max_probes):
        """``two_opt_refinement``'s scan, as :meth:`swap_pass`."""
        return self._run_pass(
            self._lib.repro_reversal_pass, state, max_passes, max_probes
        )


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
