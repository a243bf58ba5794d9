"""Tests for the blocked-contraction driver."""

import numpy as np
import pytest

from repro.apps.blocked import BlockedContraction
from repro.autotune import Autotuner
from repro.errors import SimulationError
from repro.gpusim.arch import GTX980


class TestBlockedContraction:
    def test_blocked_equals_direct(self):
        blocked = BlockedContraction(block=4, blocks_per_mode=3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12))
        np.testing.assert_allclose(
            blocked.contract(a, b), blocked.reference(a, b), atol=1e-10
        )

    def test_shapes_validated(self):
        blocked = BlockedContraction(block=4, blocks_per_mode=2)
        with pytest.raises(SimulationError, match="8x8"):
            blocked.contract(np.zeros((4, 4)), np.zeros((8, 8)))

    def test_bad_params(self):
        with pytest.raises(SimulationError):
            BlockedContraction(block=1)
        with pytest.raises(SimulationError):
            BlockedContraction(blocks_per_mode=0)

    def test_flops(self):
        blocked = BlockedContraction(block=16, blocks_per_mode=4)
        assert blocked.total_flops() == 2 * 64**3

    def test_modeled_rate_scales_with_blocks(self):
        blocked_small = BlockedContraction(block=16, blocks_per_mode=2)
        blocked_big = BlockedContraction(block=16, blocks_per_mode=6)
        tuner = Autotuner(GTX980, max_evaluations=25, pool_size=400, seed=1)
        tuned = blocked_small.tune_block_kernel(tuner)
        # Larger grids amortize the per-solve transfers better.
        small_rate = blocked_small.modeled_gflops(tuned)
        big_rate = blocked_big.modeled_gflops(tuned)
        assert big_rate > 0 and small_rate > 0
        assert blocked_big.modeled_seconds(tuned) > blocked_small.modeled_seconds(tuned)
