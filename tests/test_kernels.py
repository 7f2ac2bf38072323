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
