"""Tests for boundary processing helpers and padding cost models."""

import numpy as np
import pytest

from repro.dsl import ScheduleSpace
from repro.machine.config import default_config
from repro.optimizer.boundary import (
    boundary_gemm_sites,
    lightweight_pad_sites,
    pad_tensor,
    pad_up,
    traditional_pad_cost,
    unpad_tensor,
)
from repro.scheduler import lower_strategy

from ..scheduler.test_lower import gemm_cd


class TestPadMath:
    def test_pad_up(self):
        assert pad_up(13, 4) == 16
        assert pad_up(16, 4) == 16
        assert pad_up(1, 128) == 128

    def test_pad_up_validation(self):
        with pytest.raises(ValueError):
            pad_up(4, 0)


class TestFunctionalPadding:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.random((5, 7)).astype(np.float32)
        p = pad_tensor(x, (8, 8))
        assert p.shape == (8, 8)
        assert (p[5:, :] == 0).all() and (p[:, 7:] == 0).all()
        np.testing.assert_array_equal(unpad_tensor(p, (5, 7)), x)

    def test_rank_checked(self):
        with pytest.raises(ValueError):
            pad_tensor(np.zeros((2, 2)), (4,))


class TestTraditionalCost:
    def test_cost_scales_with_padded_size(self):
        small = traditional_pad_cost((100, 100), (128, 128))
        big = traditional_pad_cost((1000, 1000), (1024, 1024))
        assert big.cycles > small.cycles
        assert big.bytes_copied > small.bytes_copied

    def test_round_trip_copies_in_and_out(self):
        cfg = default_config()
        c = traditional_pad_cost((100, 100), (128, 128))
        assert c.bytes_copied == (100 * 100 + 128 * 128) * cfg.dtype_bytes

    def test_unpad_direction(self):
        c = traditional_pad_cost((100, 100), (128, 128), round_trip=False)
        assert c.bytes_copied == (100 * 100 + 128 * 128) * 4

    def test_traditional_dwarfs_boundary_data(self):
        """The whole-tensor copy moves orders of magnitude more data
        than the boundary region itself -- the Fig. 11 motivation."""
        shape, padded = (2000, 2000), (2048, 2048)
        c = traditional_pad_cost(shape, padded)
        boundary_bytes = (2048 * 2048 - 2000 * 2000) * 4
        assert c.bytes_copied > 3 * boundary_bytes


class TestKernelAnalyses:
    def _kernel(self, M=100, tm=64):
        cd = gemm_cd(M, 128, 128)
        sp = ScheduleSpace(cd)
        sp.split("M", [tm]); sp.split("N", [64]); sp.split("K", [64])
        return lower_strategy(cd, sp.strategy())

    def test_boundary_sites_counted(self):
        k = self._kernel(M=100, tm=64)  # tail 36
        sites = boundary_gemm_sites(k)
        assert sites["boundary"] > 0
        assert sites["main"] > 0

    def test_aligned_kernel_has_no_boundary(self):
        k = self._kernel(M=128, tm=64)
        assert boundary_gemm_sites(k)["boundary"] == 0

    def test_lightweight_sites(self):
        k = self._kernel(M=66, tm=64)  # tail 2 -> padded
        assert lightweight_pad_sites(k) > 0
        k2 = self._kernel(M=128, tm=64)
        assert lightweight_pad_sites(k2) == 0
