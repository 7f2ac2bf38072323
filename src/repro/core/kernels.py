"""The lazy port walk, in two interchangeable tiers.

The lazy shift-cost replay is a deterministic automaton: after any access
the head sits at ``offset − p`` for the port ``p`` chosen greedily (ties
break to the lowest port).  This module holds the only fast
implementations of that walk, each behind the same three entry points:

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

Three entry points, shared by the incremental evaluator and the batch
simulation engine:

* ``lazy_costs(offsets, ports, out)`` — per-access costs of one replay;
* ``lazy_chain_cost(positions, item_at, offset_of, ports)`` — total cost
  of the chain ``offset_of[item_at[positions[t]]]``;
* ``lazy_merge_cost(base, skip, add, item_at, offset_of, ports)`` —
  total cost of the chain over ``(base \\ skip) ∪ add`` positions (all
  three inputs ascending; ``skip ⊆ base``, ``add`` disjoint from
  ``base``).  This is the delta-probe kernel: cc merges on the fly, numpy
  drops ``skip`` through a ``searchsorted`` mask and sorts in ``add``.
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

_C_SOURCE = r"""
#include <stdint.h>

/* Branchless |v|: the greedy pick below is data-dependent, so any branch
   on it mispredicts ~50% on low-locality traces. */
static inline int64_t iabs64(int64_t v) {
    int64_t m = v >> 63;
    return (v + m) ^ m;
}

/* One branchless automaton step for the common P=2 case: pick the port
   minimising |offset - port - head|, strict < keeps the lower port on
   ties (take1 only when c1 < c0). */
#define STEP2(offset)                                                      \
    do {                                                                   \
        int64_t t0 = (offset) - p0;                                        \
        int64_t t1 = (offset) - p1;                                        \
        int64_t c0 = iabs64(t0 - head);                                    \
        int64_t c1 = iabs64(t1 - head);                                    \
        int64_t take1 = -(int64_t)(c1 < c0);                               \
        cost = (c1 & take1) | (c0 & ~take1);                               \
        head = (t1 & take1) | (t0 & ~take1);                               \
        total += cost;                                                     \
    } while (0)

/* Generic branchless step for P >= 3 (inner min is mask-selected). */
#define STEPN(offset)                                                      \
    do {                                                                   \
        int64_t best_cost = iabs64((offset) - ports[0] - head);            \
        int64_t best_target = (offset) - ports[0];                         \
        int64_t p;                                                         \
        for (p = 1; p < num_ports; ++p) {                                  \
            int64_t target = (offset) - ports[p];                          \
            int64_t c = iabs64(target - head);                             \
            int64_t take = -(int64_t)(c < best_cost);                      \
            best_cost = (c & take) | (best_cost & ~take);                  \
            best_target = (target & take) | (best_target & ~take);         \
        }                                                                  \
        cost = best_cost;                                                  \
        total += best_cost;                                                \
        head = best_target;                                                \
    } while (0)

/* Per-access lazy costs of one replay.  Head starts at 0.  Returns the
   total; fills `out` (may be NULL) with per-access costs. */
int64_t repro_lazy_costs(const int64_t *offsets, int64_t n,
                         const int64_t *ports, int64_t num_ports,
                         int64_t *out)
{
    int64_t head = 0, total = 0, cost, t;
    if (num_ports == 1) {
        int64_t port = ports[0];
        for (t = 0; t < n; ++t) {
            int64_t target = offsets[t] - port;
            cost = iabs64(target - head);
            total += cost;
            head = target;
            if (out) out[t] = cost;
        }
        return total;
    }
    if (num_ports == 2) {
        int64_t p0 = ports[0], p1 = ports[1];
        for (t = 0; t < n; ++t) {
            STEP2(offsets[t]);
            if (out) out[t] = cost;
        }
        return total;
    }
    for (t = 0; t < n; ++t) {
        STEPN(offsets[t]);
        if (out) out[t] = cost;
    }
    return total;
}

/* Fused gather + walk: the replayed offset sequence is
   offset_of[item_at[positions[t]]].  No intermediates. */
int64_t repro_lazy_chain_cost(const int64_t *positions, int64_t n,
                              const int64_t *item_at,
                              const int64_t *offset_of,
                              const int64_t *ports, int64_t num_ports)
{
    int64_t head = 0, total = 0, cost, t;
    if (num_ports == 2) {
        int64_t p0 = ports[0], p1 = ports[1];
        for (t = 0; t < n; ++t) {
            STEP2(offset_of[item_at[positions[t]]]);
        }
        return total;
    }
    if (num_ports == 1) {
        int64_t port = ports[0];
        for (t = 0; t < n; ++t) {
            int64_t target = offset_of[item_at[positions[t]]] - port;
            total += iabs64(target - head);
            head = target;
        }
        return total;
    }
    for (t = 0; t < n; ++t) {
        STEPN(offset_of[item_at[positions[t]]]);
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
    int64_t ib = 0, is = 0, ia = 0;
    int64_t head = 0, total = 0, cost;
    int two = (num_ports == 2);
    int64_t p0 = ports[0], p1 = two ? ports[1] : 0;
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
        {
            int64_t offset = offset_of[item_at[pos]];
            if (two) {
                STEP2(offset);
            } else if (num_ports == 1) {
                int64_t target = offset - p0;
                total += iabs64(target - head);
                head = target;
            } else {
                STEPN(offset);
            }
        }
    }
    (void)cost;
    return total;
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


# ---------------------------------------------------------------------------
# Tiers
# ---------------------------------------------------------------------------

class NumpyKernels:
    """The numpy tier: vectorised walks, no compiler needed.

    Uses the diff for one port, the closed form for two ports (on a
    25k-access chain the Hillis–Steele scan takes ~8× as long) and the
    scan for ``P ≥ 3``.
    """

    name = "numpy"

    def lazy_costs(self, offsets, ports, out=None):
        """Per-access costs; returns ``out`` (allocated when ``None``)."""
        import numpy as np

        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            costs = np.empty(0, dtype=np.int64)
        elif len(ports) == 1:
            costs = single_port_access_costs_numpy(offsets, ports[0])
        elif len(ports) == 2:
            costs = two_port_access_costs_numpy(offsets, ports)
        else:
            costs = multi_port_access_costs_numpy(offsets, ports)
        if out is None:
            return costs
        out[:] = costs
        return out

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
        lib.repro_lazy_costs.restype = i64
        lib.repro_lazy_costs.argtypes = [ptr, i64, ptr, i64, ptr]
        lib.repro_lazy_chain_cost.restype = i64
        lib.repro_lazy_chain_cost.argtypes = [ptr, i64, ptr, ptr, ptr, i64]
        lib.repro_lazy_merge_cost.restype = i64
        lib.repro_lazy_merge_cost.argtypes = [
            ptr, i64, ptr, i64, ptr, i64, ptr, ptr, ptr, i64,
        ]
        self._lib = lib
        self._np = np
        self.library_path = library_path

    def lazy_costs(self, offsets, ports, out=None):
        """Per-access costs; returns ``out`` (allocated when ``None``)."""
        np = self._np
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        ports = np.ascontiguousarray(ports, dtype=np.int64)
        if out is None:
            out = np.empty(offsets.size, dtype=np.int64)
        self._lib.repro_lazy_costs(
            offsets.ctypes.data,
            offsets.size,
            ports.ctypes.data,
            ports.size,
            out.ctypes.data,
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
