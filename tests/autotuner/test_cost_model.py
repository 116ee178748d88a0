"""Tests for the Eq. (1)/(2) cost model and its calibration."""

import numpy as np
import pytest

from repro.autotuner import (
    calibration_samples,
    default_coeffs,
    eq2_features,
    fit_all,
    fit_variant,
    predict_dma,
    predict_gemm,
    predict_kernel,
)
from repro.codegen import compile_candidate
from repro.dsl import ScheduleSpace
from repro.errors import TuningError
from repro.ir import AffineExpr, DmaCgNode, DmaGeometry, TileAccess
from repro.machine.config import default_config
from repro.machine.dma import MEM_TO_SPM
from repro.primitives.gemm_kernel import kernel_cycles
from repro.primitives.microkernel import ALL_VARIANTS
from repro.scheduler import Candidate, lower_strategy

from ..scheduler.test_lower import gemm_cd


class TestEq2:
    def test_features_shape(self):
        f = eq2_features(64, 128, 32, "M")
        assert len(f) == 4
        assert f[0] == 32.0 and f[3] == 1.0

    def test_quantized_features_flat_within_block(self):
        """M=40 and M=120 quantise to the same effective extent (one
        16-row register block per CPE)."""
        assert eq2_features(40, 64, 32, "M") == eq2_features(120, 64, 32, "M")
        assert eq2_features(120, 64, 32, "M") != eq2_features(136, 64, 32, "M")

    def test_fit_accuracy_within_eight_percent_typical(self):
        """Mean relative error of the fitted model stays under ~8% --
        the regime behind Fig. 9's small losses."""
        for v in ALL_VARIANTS:
            x, y = calibration_samples(v)
            pred = x @ np.asarray(fit_variant(v))
            mean_rel_err = (np.abs(pred - y) / np.maximum(y, 1.0)).mean()
            assert mean_rel_err < 0.08, (v.name, mean_rel_err)

    def test_predict_matches_structural_at_large_tiles(self):
        coeffs = default_coeffs()
        v = ALL_VARIANTS[0]
        pred = predict_gemm(256, 256, 256, v, coeffs)
        real = kernel_cycles(256, 256, 256, v).total
        assert abs(pred - real) / real < 0.10

    def test_missing_coeffs_raise(self):
        with pytest.raises(TuningError):
            predict_gemm(64, 64, 64, ALL_VARIANTS[0], {})

    def test_fit_all_covers_variants(self):
        coeffs = fit_all()
        assert set(coeffs) == {v.name for v in ALL_VARIANTS}

    def test_coeffs_cached(self):
        assert default_coeffs() == default_coeffs()

    def test_coeffs_keyed_on_full_machine_signature(self):
        """Two configs that compare equal (dataclass hashing skips the
        latency tables) but time instructions differently must fit
        different coefficients -- the old object-keyed lru_cache
        silently handed the second config the first one's fit."""
        base = default_config()
        slow = base.with_overrides(
            latencies={**base.latencies, "vmad": base.latencies["vmad"] + 32}
        )
        assert slow == base
        assert default_coeffs(slow) != default_coeffs(base)
        # and repeat queries still answer from the cache
        assert default_coeffs(slow) == default_coeffs(slow)


class TestEq1:
    def _dma(self, n_blocks, block, stride, descs=1):
        return DmaCgNode(
            access=TileAccess("T", ((AffineExpr(0), 1),)),
            spm="spm_a",
            direction=MEM_TO_SPM,
            geometry=DmaGeometry(n_blocks, block, stride, descs),
        )

    def test_latency_floor(self):
        cfg = default_config()
        t = predict_dma(self._dma(1, 64, 0))
        assert t >= cfg.dma_latency_cycles

    def test_bandwidth_term_scales(self):
        small = predict_dma(self._dma(16, 512, 0))
        big = predict_dma(self._dma(64, 512, 0))
        assert big > small

    def test_waste_charged_for_unaligned_strides(self):
        """Blocks drifting off 128 B alignment pay more than aligned
        ones of the same payload."""
        aligned = predict_dma(self._dma(64, 128, 128))  # step 256, aligned
        drifted = predict_dma(self._dma(64, 128, 72))   # step 200: drifts
        assert drifted > aligned

    def test_requires_geometry(self):
        node = DmaCgNode(
            access=TileAccess("T", ((AffineExpr(0), 1),)),
            spm="spm_a",
            direction=MEM_TO_SPM,
        )
        with pytest.raises(TuningError):
            predict_dma(node)


class TestKernelPrediction:
    def _compiled(self, M=512, N=512, K=512, tm=128, tn=128, tk=64):
        cd = gemm_cd(M, N, K)
        sp = ScheduleSpace(cd)
        sp.split("M", [tm]); sp.split("N", [tn]); sp.split("K", [tk])
        strat = sp.strategy()
        cand = Candidate(strat, lower_strategy(cd, strat), cd)
        return cd, compile_candidate(cand)

    def test_prediction_close_to_simulation(self):
        """End-to-end: predicted vs simulated time within ~25% for a
        regular schedule (the model need only rank, but it should be in
        the right ballpark)."""
        cd, ck = self._compiled()
        pred = predict_kernel(ck.kernel, default_coeffs())
        rng = np.random.default_rng(0)
        feeds = {
            "A": rng.standard_normal((512, 512)).astype(np.float32),
            "B": rng.standard_normal((512, 512)).astype(np.float32),
        }
        measured = ck.run(feeds).report.cycles
        assert abs(pred.total - measured) / measured < 0.25

    def test_pipelined_kernel_uses_max(self):
        cd, ck = self._compiled()
        pred = predict_kernel(ck.kernel, default_coeffs())
        assert pred.pipelined
        assert pred.total <= pred.dma + pred.compute + 1e4

    def test_bound_classification(self):
        cd, ck = self._compiled(tk=64)
        pred = predict_kernel(ck.kernel, default_coeffs())
        assert pred.bound in ("dma", "compute")

    def test_prediction_ranks_schedules(self):
        """The model orders a clearly-bad schedule after a good one --
        the property tuning correctness rests on."""
        _, good = self._compiled(tm=128, tn=128, tk=256)
        _, bad = self._compiled(tm=32, tn=32, tk=32)
        coeffs = default_coeffs()
        assert (
            predict_kernel(good.kernel, coeffs).total
            < predict_kernel(bad.kernel, coeffs).total
        )
