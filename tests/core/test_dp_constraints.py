"""Direct tests for the assignment DP's allowed-totals masks — the hook
through which §6.1 machine constraints (rectangular subarrays) reach §3.1."""

import numpy as np
import pytest

from repro.core import (
    InfeasibleError,
    build_module_chain,
    optimal_assignment,
    singleton_clustering,
)
from tests.conftest import make_random_chain


def _mchain(chain):
    return build_module_chain(chain, singleton_clustering(len(chain)))


def _mask(P, allowed):
    ok = np.zeros(P + 1, dtype=bool)
    for a in allowed:
        ok[a] = True
    return ok


class TestAllowedTotals:
    def test_mask_is_respected(self):
        chain = make_random_chain(3, seed=1)
        mc = _mchain(chain)
        P = 12
        allowed = {1, 2, 4, 8}
        res = optimal_assignment(
            mc, P, replication=False,
            allowed_totals=lambda i: _mask(P, allowed),
        )
        assert all(t in allowed for t in res.totals)

    def test_mask_never_improves_throughput(self):
        chain = make_random_chain(3, seed=2)
        mc = _mchain(chain)
        P = 12
        free = optimal_assignment(mc, P, replication=False)
        masked = optimal_assignment(
            mc, P, replication=False,
            allowed_totals=lambda i: _mask(P, {1, 2, 4, 8}),
        )
        assert masked.throughput <= free.throughput * (1 + 1e-9)

    def test_masked_optimum_matches_masked_brute_force(self):
        from repro.core import enumerate_allocations, throughput_of_totals
        from repro.core.response import strip_replication

        chain = make_random_chain(3, seed=3)
        mc = _mchain(chain)
        P = 10
        allowed = {1, 3, 5, 7}
        res = optimal_assignment(
            mc, P, replication=False,
            allowed_totals=lambda i: _mask(P, allowed),
        )
        stripped = strip_replication(mc)
        best = max(
            throughput_of_totals(stripped, a)[0]
            for a in enumerate_allocations([1, 1, 1], P)
            if all(x in allowed for x in a)
        )
        assert res.throughput == pytest.approx(best)

    def test_per_module_masks_differ(self):
        chain = make_random_chain(2, seed=4)
        mc = _mchain(chain)
        P = 10
        masks = [_mask(P, {2}), _mask(P, {3, 5})]
        res = optimal_assignment(
            mc, P, replication=False, allowed_totals=lambda i: masks[i]
        )
        assert res.totals[0] == 2
        assert res.totals[1] in (3, 5)

    def test_empty_mask_is_infeasible(self):
        chain = make_random_chain(2, seed=5)
        mc = _mchain(chain)
        with pytest.raises(InfeasibleError):
            optimal_assignment(
                mc, 8, allowed_totals=lambda i: np.zeros(9, dtype=bool)
            )

    def test_rectangular_mask_matches_feasibility_path(self):
        """The instance_size_ok plumbing in optimal_mapping must equal
        applying the equivalent totals mask by hand (no replication)."""
        from repro.core import optimal_mapping
        from repro.machine import is_rectangularizable

        chain = make_random_chain(3, seed=6)
        P = 12
        ok_size = lambda s: is_rectangularizable(s, 3, 4)
        via_mapping = optimal_mapping(
            chain, P, replication=False,
            instance_size_ok=ok_size,
        )
        mc = _mchain(chain)
        mask = np.array([s > 0 and ok_size(s) for s in range(P + 1)])
        via_dp = optimal_assignment(
            mc, P, replication=False, allowed_totals=lambda i: mask
        )
        # optimal_mapping also explores merged clusterings, so it can only
        # match or beat the singleton-clustering DP.
        assert via_mapping.throughput >= via_dp.throughput * (1 - 1e-9)
