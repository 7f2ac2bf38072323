"""Tests for the lazy-walk kernel tiers (repro.core.kernels).

The contract: whichever tier gets selected (cc, or the numpy tier),
every kernel output is bit-identical to the Hillis–Steele numpy reference
``multi_port_access_costs_numpy`` — the cc tier is a wall-clock
optimisation only.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import kernels
from repro.core.incremental import (
    multi_port_access_costs,
    two_port_access_costs,
)
from repro.core.kernels import (
    multi_port_access_costs_numpy,
    two_port_access_costs_numpy,
)
from repro.dwm.dbc import port_access_cost


@pytest.fixture
def backend_env(monkeypatch):
    """Set kernel env knobs, re-select the tier, restore afterwards."""

    def select(**env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        kernels.reset_backend()
        return kernels.active()

    yield select
    kernels.reset_backend()


@pytest.fixture
def cc_tier(backend_env):
    """The cc tier, or skip when no C compiler can build it here."""
    tier = backend_env(REPRO_KERNEL="cc")
    if tier.name != "cc":
        pytest.skip("no C compiler available")
    return tier


def _random_chains(seed: int, count: int = 20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        length = int(rng.integers(2, 96))
        n = int(rng.integers(1, 400))
        offsets = rng.integers(0, length, size=n, dtype=np.int64)
        port_count = int(rng.integers(1, min(4, length) + 1))
        ports = np.sort(
            rng.choice(length, size=port_count, replace=False)
        ).astype(np.int64)
        yield offsets, ports


class TestBackendSelection:
    def test_numpy_request_disables_compiled(self, backend_env):
        assert backend_env(REPRO_KERNEL="numpy").name == "numpy"
        assert kernels.backend_name() == "numpy"
        assert kernels.describe()["compiled"] is False

    def test_numba_request_selects_numpy_as_unknown(self, backend_env):
        assert backend_env(REPRO_KERNEL="numba").name == "numpy"
        info = kernels.describe()
        assert info["backend"] == "numpy"
        assert "unknown" in info["note"]
        assert "numba" in info["note"]

    def test_request_is_parsed_once(self, backend_env):
        expected = backend_env(REPRO_KERNEL="cc").name
        assert backend_env(REPRO_KERNEL=" CC ").name == expected
        info = kernels.describe()
        assert info["requested"] == "cc"
        assert "unknown" not in info.get("note", "")
        backend_env(REPRO_KERNEL="")
        assert kernels.describe()["requested"] == "auto"

    def test_describe_reports_selection(self, backend_env):
        backend_env(REPRO_KERNEL="auto")
        info = kernels.describe()
        assert info["backend"] in ("cc", "numpy")
        assert info["compiled"] == (info["backend"] == "cc")
        assert "no_numba" not in info
        assert "cache_dir" in info

    def test_backend_is_cached_singleton(self):
        kernels.reset_backend()
        first = kernels.active()
        assert kernels.active() is first

    def test_cc_library_cached_on_disk(self, cc_tier, backend_env):
        info = kernels.describe()
        assert os.path.exists(info["library"])
        # Re-selection must reuse the cached shared object, not recompile.
        again = backend_env(REPRO_KERNEL="cc")
        assert kernels.describe()["library"] == info["library"]
        assert again.name == "cc"


class TestKernelParity:
    """The cc tier against the reference (skipped without a compiler).

    :class:`TestNumpyKernelParity` runs the same checks on the numpy tier.
    """

    @pytest.fixture
    def tier(self, cc_tier):
        return cc_tier

    def test_lazy_costs_matches_numpy(self, tier):
        for offsets, ports in _random_chains(101):
            expected = multi_port_access_costs_numpy(offsets, ports)
            got = tier.lazy_costs(offsets, ports)
            np.testing.assert_array_equal(got, expected)

    def test_chain_cost_matches_numpy(self, tier):
        rng = np.random.default_rng(202)
        for offsets, ports in _random_chains(202):
            item_at = np.arange(offsets.size, dtype=np.int64)
            positions = np.flatnonzero(
                rng.random(offsets.size) < 0.6
            ).astype(np.int64)
            expected = (
                int(multi_port_access_costs_numpy(offsets[positions], ports).sum())
                if positions.size
                else 0
            )
            got = tier.lazy_chain_cost(positions, item_at, offsets, ports)
            assert got == expected

    def test_merge_cost_matches_numpy(self, tier):
        rng = np.random.default_rng(303)
        for offsets, ports in _random_chains(303):
            item_at = np.arange(offsets.size, dtype=np.int64)
            keep = rng.random(offsets.size) < 0.5
            base = np.flatnonzero(keep).astype(np.int64)
            skip = base[rng.random(base.size) < 0.4]
            add = np.flatnonzero(~keep).astype(np.int64)
            add = add[rng.random(add.size) < 0.5]
            merged = np.union1d(np.setdiff1d(base, skip), add).astype(np.int64)
            expected = (
                int(multi_port_access_costs_numpy(offsets[merged], ports).sum())
                if merged.size
                else 0
            )
            got = tier.lazy_merge_cost(
                base, skip, add, item_at, offsets, ports
            )
            assert got == expected

    def test_single_access_and_head_return(self, tier):
        offsets = np.array([5], dtype=np.int64)
        ports = np.array([0], dtype=np.int64)
        np.testing.assert_array_equal(
            tier.lazy_costs(offsets, ports),
            multi_port_access_costs_numpy(offsets, ports),
        )

    def test_empty_inputs_cost_nothing(self, tier):
        empty = np.empty(0, dtype=np.int64)
        ports = np.array([0, 7], dtype=np.int64)
        offsets = np.array([3, 1], dtype=np.int64)
        item_at = np.arange(2, dtype=np.int64)
        assert tier.lazy_costs(empty, ports).size == 0
        assert tier.lazy_chain_cost(empty, item_at, offsets, ports) == 0
        assert tier.lazy_merge_cost(
            np.arange(2, dtype=np.int64), np.arange(2, dtype=np.int64),
            empty, item_at, offsets, ports,
        ) == 0

    def test_fills_caller_buffer(self, tier):
        offsets = np.array([4, 0, 9, 9, 2], dtype=np.int64)
        ports = np.array([1, 8], dtype=np.int64)
        out = np.full(offsets.size, -1, dtype=np.int64)
        assert tier.lazy_costs(offsets, ports, out) is out
        np.testing.assert_array_equal(
            out, multi_port_access_costs_numpy(offsets, ports)
        )


    # lazy_scan: one interleaved pass over many DBCs, checked per DBC group
    # against the reference (carried) and the scalar port step (lanes).

    def test_scan_carried_matches_per_group_reference(self, tier):
        rng = np.random.default_rng(606)
        for ports in ([0], [2, 9], [1, 6, 11]):
            ports = np.array(ports, dtype=np.int64)
            window = _scan_instance(rng)
            item_at, dbc_of, offset_of, num_dbcs = window
            ref_costs, ref_totals, ref_maxes, ref_heads = _scan_reference(
                window, ports
            )
            state = kernels.ScanState(num_dbcs)
            cut = item_at.size // 3
            out = np.full(item_at.size, -1, dtype=np.int64)
            # Three windows, the middle one empty: heads carry across.
            for low, high in ((0, cut), (cut, cut), (cut, item_at.size)):
                writes = tier.lazy_scan(
                    item_at[low:high], dbc_of, offset_of, ports, state,
                    out[low:high],
                )
                assert writes == 0
            np.testing.assert_array_equal(out, ref_costs)
            np.testing.assert_array_equal(state.totals, ref_totals)
            np.testing.assert_array_equal(state.maxes, ref_maxes)
            np.testing.assert_array_equal(state.heads, ref_heads)

    @pytest.mark.parametrize("num_ports", [1, 2, 3])
    def test_scan_conditioned_lanes(self, tier, num_ports):
        rng = np.random.default_rng(707 + num_ports)
        ports = np.array([1, 6, 11][:num_ports], dtype=np.int64)
        window = _scan_instance(rng)
        item_at, dbc_of, offset_of, num_dbcs = window
        _costs, ref_totals, _maxes, _heads = _scan_reference(window, ports)
        state = kernels.ScanState(num_dbcs, num_ports)
        cut = item_at.size // 2
        tier.lazy_scan(item_at[:cut], dbc_of, offset_of, ports, state)
        tier.lazy_scan(item_at[cut:], dbc_of, offset_of, ports, state)
        dbc_seq = dbc_of[item_at]
        for d in range(num_dbcs):
            seq = offset_of[item_at[dbc_seq == d]].tolist()
            assert state.counts[d] == len(seq)
            if not seq:
                assert not state.totals[d].any() and not state.heads[d].any()
                continue
            assert state.first[d] == seq[0]
            for lane, port in enumerate(ports.tolist()):
                total, worst, head = _scalar_walk(seq[1:], ports, seq[0] - port)
                assert state.totals[d, lane] == total
                assert state.maxes[d, lane] == worst
                assert state.heads[d, lane] == head
            # From the fresh head the first access picks a lane; that lane's
            # total completes the reference group cost.
            cost, port, _target = port_access_cost(seq[0], 0, tuple(ports))
            lane = ports.tolist().index(port)
            assert cost + state.totals[d, lane] == ref_totals[d]

    def test_scan_dbc_touched_once(self, tier):
        ports = np.array([0, 5], dtype=np.int64)
        dbc_of = np.array([0, 1, 1], dtype=np.int64)
        offset_of = np.array([1, 7, 2], dtype=np.int64)
        item_at = np.array([1, 0, 2, 1], dtype=np.int64)
        carried = kernels.ScanState(2)
        out = np.empty(4, dtype=np.int64)
        tier.lazy_scan(item_at, dbc_of, offset_of, ports, carried, out)
        assert carried.totals[0] == carried.maxes[0] == out[1] == 1  # port 0
        assert carried.heads[0] == 1
        lanes = kernels.ScanState(2, 2)
        tier.lazy_scan(item_at, dbc_of, offset_of, ports, lanes)
        assert lanes.first[0] == 1 and lanes.counts[0] == 1
        np.testing.assert_array_equal(lanes.heads[0], [1, -4])
        np.testing.assert_array_equal(lanes.totals[0], [0, 0])

    def test_scan_empty_window(self, tier):
        ports = np.array([0], dtype=np.int64)
        dbc_of = np.array([0, 1], dtype=np.int64)
        offset_of = np.array([3, 1], dtype=np.int64)
        for codes in (np.empty(0, np.int64), np.empty(0, np.uint32)):
            for state in (kernels.ScanState(2), kernels.ScanState(2, 1)):
                out = np.empty(0, np.int64) if not state.conditioned else None
                assert tier.lazy_scan(codes, dbc_of, offset_of, ports, state, out) == 0
                assert not state.counts.any() and not state.totals.any()

    def test_scan_reads_records_with_write_bit(self, tier):
        rng = np.random.default_rng(808)
        ports = np.array([2, 9], dtype=np.int64)
        window = _scan_instance(rng)
        item_at, dbc_of, offset_of, num_dbcs = window
        writes = rng.random(item_at.size) < 0.3
        records = item_at.astype(np.uint32) | (writes.astype(np.uint32) << 31)
        for lanes in (None, 2):
            from_items = kernels.ScanState(num_dbcs, lanes)
            from_records = kernels.ScanState(num_dbcs, lanes)
            assert tier.lazy_scan(item_at, dbc_of, offset_of, ports, from_items) == 0
            assert tier.lazy_scan(
                records, dbc_of, offset_of, ports, from_records
            ) == int(writes.sum())
            for name in ("heads", "totals", "maxes", "counts", "first"):
                np.testing.assert_array_equal(
                    getattr(from_records, name), getattr(from_items, name)
                )

    def test_scan_rejects_out_of_range_indices(self, tier):
        ports = np.array([0], dtype=np.int64)
        dbc_of = np.array([0, 1], dtype=np.int64)
        offset_of = np.array([3, 1], dtype=np.int64)
        with pytest.raises(IndexError):
            tier.lazy_scan(
                np.array([0, 1, 2], dtype=np.uint32), dbc_of, offset_of,
                ports, kernels.ScanState(2),
            )
        with pytest.raises(IndexError):
            tier.lazy_scan(
                np.array([0, 1], dtype=np.int64), dbc_of, offset_of,
                ports, kernels.ScanState(1),
            )


class TestCollapsedConditionedScan:
    """The cc tier's conditioned scan steps converged lanes once; it must
    match the numpy tier, which prices every lane separately, window by
    window."""

    PORTS = {1: [3], 2: [0, 8], 3: [0, 5, 10], 4: [0, 4, 8, 12]}

    @staticmethod
    def _windows(rng):
        """Four windows over DBCs of length 16: DBC 0 hit often (its lanes
        meet mid-window), DBC 1 hit once per window, DBC 2 first hit in
        window 2, DBC 3 never."""
        dbc_of = np.repeat(np.arange(3, dtype=np.int64), 6)
        offset_of = rng.integers(0, 16, size=dbc_of.size).astype(np.int64)
        windows = []
        for w in range(4):
            codes = list(rng.integers(0, 6, size=60)) + [int(rng.integers(6, 12))]
            if w >= 2:
                codes += list(rng.integers(12, 18, size=20))
            rng.shuffle(codes)
            windows.append(np.array(codes, dtype=np.int64))
        return windows, dbc_of, offset_of

    @pytest.mark.parametrize("num_ports", [1, 2, 3, 4])
    def test_matches_numpy_tier_across_windows(self, cc_tier, num_ports):
        ports = np.array(self.PORTS[num_ports], dtype=np.int64)
        numpy_tier = kernels.NumpyKernels()
        for seed in range(5):
            windows, dbc_of, offset_of = self._windows(
                np.random.default_rng(900 + seed)
            )
            got = kernels.ScanState(4, num_ports)
            want = kernels.ScanState(4, num_ports)
            for w, codes in enumerate(windows):
                cc_tier.lazy_scan(codes, dbc_of, offset_of, ports, got)
                numpy_tier.lazy_scan(codes, dbc_of, offset_of, ports, want)
                for name in ("totals", "maxes", "heads", "counts", "first"):
                    np.testing.assert_array_equal(
                        getattr(got, name), getattr(want, name), err_msg=name
                    )
                if num_ports > 1 and w == 0:
                    # DBC 1 enters window 1 with its lanes still apart;
                    # DBC 0's have met within window 0.
                    assert len(set(want.heads[1].tolist())) == num_ports
                    assert len(set(want.heads[0].tolist())) == 1
            assert want.counts[2] == 40 and not want.counts[3]


def _scan_instance(rng):
    """``(item_at, dbc_of, offset_of, num_dbcs)``: items on four DBCs of
    length 12, one DBC left untouched."""
    num_items, num_dbcs = 20, 4
    dbc_of = rng.integers(0, num_dbcs - 1, size=num_items).astype(np.int64)
    offset_of = rng.integers(0, 12, size=num_items).astype(np.int64)
    item_at = rng.integers(0, num_items, size=300).astype(np.int64)
    return item_at, dbc_of, offset_of, num_dbcs


def _scan_reference(window, ports):
    """Per-access costs, per-DBC totals, maxima and exit heads of a carried
    scan from fresh heads, one DBC group at a time."""
    item_at, dbc_of, offset_of, num_dbcs = window
    dbc_seq = dbc_of[item_at]
    costs = np.zeros(item_at.size, dtype=np.int64)
    totals = np.zeros(num_dbcs, dtype=np.int64)
    maxes = np.zeros(num_dbcs, dtype=np.int64)
    heads = np.zeros(num_dbcs, dtype=np.int64)
    for d in range(num_dbcs):
        positions = np.flatnonzero(dbc_seq == d)
        if not positions.size:
            continue
        seq = offset_of[item_at[positions]]
        costs[positions] = multi_port_access_costs_numpy(seq, ports)
        totals[d] = costs[positions].sum()
        maxes[d] = costs[positions].max()
        heads[d] = _scalar_walk(seq.tolist(), ports, 0)[2]
    return costs, totals, maxes, heads


def _scalar_walk(offsets, ports, head):
    """``(total, max, exit head)`` of the scalar port step from ``head``."""
    total = worst = 0
    for offset in offsets:
        cost, _port, head = port_access_cost(offset, head, tuple(ports.tolist()))
        total += cost
        worst = max(worst, cost)
    return total, worst, head


class TestNumpyKernelParity(TestKernelParity):
    """The numpy tier against the reference, on every host."""

    @pytest.fixture
    def tier(self):
        return kernels.NumpyKernels()


class TestDispatchers:
    """The public cost functions agree regardless of selected backend."""

    def test_two_port_dispatcher_matches_numpy(self):
        rng = np.random.default_rng(404)
        offsets = rng.integers(0, 64, size=500, dtype=np.int64)
        ports = np.array([0, 63], dtype=np.int64)
        np.testing.assert_array_equal(
            two_port_access_costs(offsets, ports),
            two_port_access_costs_numpy(offsets, ports),
        )

    def test_multi_port_dispatcher_matches_numpy(self):
        rng = np.random.default_rng(505)
        offsets = rng.integers(0, 48, size=500, dtype=np.int64)
        ports = np.array([3, 17, 40], dtype=np.int64)
        np.testing.assert_array_equal(
            multi_port_access_costs(offsets, ports),
            multi_port_access_costs_numpy(offsets, ports),
        )
