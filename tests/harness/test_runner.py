"""Tests for the operator runner: sharding, correctness, comparisons."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.harness.runner import (
    OperatorRun,
    clip_strategy,
    run_conv_explicit,
    run_conv_implicit,
    run_conv_winograd,
    run_gemm,
    shard_conv,
)
from repro.ops.conv_common import ConvParams
from repro.ops.direct import conv2d_reference
from repro.ops.gemm import make_compute


@pytest.fixture(scope="module")
def conv_case():
    params = ConvParams(batch=8, ni=16, no=16, ri=8, ci=8, kr=3, kc=3, pad=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(params.input_shape).astype(np.float32)
    w = rng.standard_normal(params.weight_shape).astype(np.float32)
    return params, x, w, conv2d_reference(x, w, params)


class TestSharding:
    def test_batch_sharding(self):
        p = ConvParams(batch=8, ni=8, no=8, ri=8, ci=8, pad=1)
        shards = shard_conv(p)
        assert len(shards) == 4
        assert all(s.params.batch == 2 for s in shards)
        assert [s.batch for s in shards] == [(0, 2), (2, 2), (4, 2), (6, 2)]

    def test_row_sharding_for_small_batch(self):
        p = ConvParams(batch=1, ni=8, no=8, ri=16, ci=16, pad=1)
        shards = shard_conv(p)
        assert len(shards) == 4
        assert all(s.batch == (0, 1) for s in shards)
        assert sum(s.rows[1] for s in shards) == p.ro
        # each shard's input window covers its rows + halo
        for s in shards:
            assert s.params.ri == s.rows[1] + p.kr - 1

    def test_row_sharding_alignment(self):
        p = ConvParams(batch=1, ni=8, no=8, ri=10, ci=10, pad=1)
        shards = shard_conv(p, row_align=2)
        for s in shards:
            assert s.rows[0] % 2 == 0

    def test_shard_params_have_no_pad(self):
        p = ConvParams(batch=8, ni=8, no=8, ri=8, ci=8, pad=1)
        for s in shard_conv(p):
            assert s.params.pad == 0
            assert s.params.ri == p.padded_ri


class TestClipStrategy:
    def test_tiles_clipped(self):
        from repro.dsl.schedule import ScheduleStrategy

        cd = make_compute(32, 32, 32)
        s = ScheduleStrategy({"tile:M": 128, "tile:N": 16, "order": ("M", "N", "K")})
        c = clip_strategy(s, cd)
        assert c.tile("M") == 32
        assert c.tile("N") == 16


class TestGemmRunner:
    def test_swatop_correct(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((96, 64)).astype(np.float32)
        b = rng.standard_normal((64, 80)).astype(np.float32)
        run = run_gemm(a, b, library="swatop", quick=True)
        np.testing.assert_allclose(run.output, a @ b, rtol=1e-4, atol=1e-3)
        assert run.tuning is not None

    def test_xmath_correct(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((96, 64)).astype(np.float32)
        b = rng.standard_normal((64, 80)).astype(np.float32)
        run = run_gemm(a, b, library="xmath")
        np.testing.assert_allclose(run.output, a @ b, rtol=1e-4, atol=1e-3)

    def test_unknown_library(self):
        with pytest.raises(WorkloadError):
            run_gemm(np.zeros((4, 4)), np.zeros((4, 4)), library="mkl")


class TestConvRunners:
    def test_implicit_swatop(self, conv_case):
        params, x, w, ref = conv_case
        run = run_conv_implicit(params, x, w, library="swatop", quick=True)
        np.testing.assert_allclose(run.output, ref, rtol=1e-3, atol=1e-2)
        assert run.report.num_cgs_used == 4

    def test_winograd_both_libraries(self, conv_case):
        params, x, w, ref = conv_case
        for lib in ("swatop", "manual"):
            run = run_conv_winograd(params, x, w, library=lib, quick=True)
            np.testing.assert_allclose(run.output, ref, rtol=1e-3, atol=1e-2)

    def test_explicit_both_libraries(self, conv_case):
        params, x, w, ref = conv_case
        for lib in ("swatop", "manual"):
            run = run_conv_explicit(params, x, w, library=lib, quick=True)
            np.testing.assert_allclose(run.output, ref, rtol=1e-3, atol=1e-2)

    def test_batch_one_row_sharding_correct(self):
        params = ConvParams(batch=1, ni=16, no=16, ri=12, ci=12, kr=3, kc=3, pad=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        ref = conv2d_reference(x, w, params)
        for runner in (run_conv_implicit, run_conv_winograd, run_conv_explicit):
            run = runner(params, x, w, library="swatop", quick=True)
            np.testing.assert_allclose(run.output, ref, rtol=1e-3, atol=1e-2)

    def test_collect_output_false_skips_assembly(self, conv_case):
        params, x, w, _ = conv_case
        run = run_conv_implicit(
            params, x, w, library="swatop", quick=True, collect_output=False
        )
        assert run.output is None
        assert run.cycles > 0

    def test_swdnn_rejects_small_batch(self, conv_case):
        params, x, w, _ = conv_case
        with pytest.raises(WorkloadError):
            run_conv_implicit(params, x, w, library="swdnn")
