"""Execution-level robustness of the runtime library: a corrupted
cached kernel must be *detected* (differential validation), *removed*
(cache quarantine) and *survived* (reference fallback with a correct
result) -- the caller never sees garbage."""

import numpy as np
import pytest

from repro.faults import FaultPlan, compute_digest
from repro.machine.config import default_config
from repro.machine.trace import SimReport
from repro.ops import conv2d_reference
from repro.ops.conv_common import ConvParams
from repro.runtime import (
    AtopLibrary,
    KernelCache,
    KernelFallbackWarning,
    TunedEntry,
)
from repro.runtime.network import FALLBACK_METHODS, LayerResult, NetworkResult
from repro.workloads.networks import LayerSpec
from repro.dsl.schedule import ScheduleStrategy
from repro.ops.gemm import make_compute as gemm_compute
from repro.options import use


POISON = FaultPlan(poison=compute_digest(gemm_compute(64, 32, 48))[:12])


def gemm_feeds(m=64, n=32, k=48, seed=3):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((m, k)).astype(np.float32),
        rng.standard_normal((k, n)).astype(np.float32),
    )


class TestCorruptedKernelEndToEnd:
    def test_poisoned_cached_kernel_detected_quarantined_and_survived(
        self, tmp_path
    ):
        """The acceptance scenario: a kernel cached by an earlier
        (unvalidated) session starts producing corrupt outputs; the
        next validated use detects it, quarantines the entry and still
        returns the correct result via the reference fallback."""
        a, b = gemm_feeds()
        path = tmp_path / "kernels.json"

        # session 1: warm the cache with validation off -- no digest
        # is recorded, so the entry is untrusted on the next hit.
        warm = AtopLibrary(quick=True, cache_path=path, validate="off")
        warm.gemm(a, b)
        assert warm.stats.tuned == 1
        key = warm.gemm_key(64, 32, 48)
        assert key in warm.cache

        # the kernel goes bad: every execution of this compute now
        # silently perturbs its outputs (repro.faults poison).
        with use(faults=POISON):
            # session 2: validated library over the same warm cache.
            lib = AtopLibrary(quick=True, cache_path=path, validate="all")
            assert key in lib.cache
            with pytest.warns(KernelFallbackWarning):
                run = lib.gemm(a, b)

        # detected ...
        assert lib.stats.validations == 1
        assert run.fallback_reason is not None
        assert "ValidationError" in run.fallback_reason
        # ... quarantined ...
        assert key not in lib.cache
        assert key in lib.cache.quarantined_keys
        assert lib.stats.quarantined == 1
        assert lib.stats.fallbacks == 1
        # quarantine is persisted: a restart does not resurrect it
        assert key not in KernelCache.load(path)
        # ... and survived: the caller still gets the right answer.
        assert run.report.detail == "validation-fallback"
        np.testing.assert_allclose(
            run.output, a @ b, rtol=1e-4, atol=1e-3
        )

    def test_recovery_after_the_fault_clears(self, tmp_path):
        """Once the poison is gone the quarantined key re-tunes and is
        certified (digest recorded), so later hits validate for free."""
        a, b = gemm_feeds()
        path = tmp_path / "kernels.json"
        warm = AtopLibrary(quick=True, cache_path=path, validate="off")
        warm.gemm(a, b)
        lib = AtopLibrary(quick=True, cache_path=path, validate="all")
        with use(faults=POISON):
            with pytest.warns(KernelFallbackWarning):
                lib.gemm(a, b)

        run = lib.gemm(a, b)  # key quarantined -> re-tunes cleanly
        assert run.fallback_reason is None
        assert lib.stats.tuned == 1
        np.testing.assert_allclose(run.output, a @ b, rtol=1e-4, atol=1e-3)
        key = lib.gemm_key(64, 32, 48)
        entry = lib.cache._entries[key]
        assert entry.validation_digest is not None

        # the recorded digest makes the next hit free: no revalidation
        validations = lib.stats.validations
        again = lib.gemm(a, b)
        assert again.fallback_reason is None
        assert lib.stats.validations == validations

    def test_one_warning_per_key(self, tmp_path):
        """Repeated failures of one kernel warn once, not per call."""
        import warnings as warnings_mod

        # neutralize REPRO_SANITIZE: with it set the *tuner* would also
        # validate and refuse to re-tune the poisoned kernel at all --
        # this test is about the library-level single-warning contract.
        with use(sanitize=False):
            a, b = gemm_feeds()
            path = tmp_path / "kernels.json"
            warm = AtopLibrary(quick=True, cache_path=path, validate="off")
            warm.gemm(a, b)
            lib = AtopLibrary(quick=True, cache_path=path, validate="all")
            with use(faults=POISON), \
                    warnings_mod.catch_warnings(record=True) as caught:
                warnings_mod.simplefilter("always")
                lib.gemm(a, b)  # hit -> detected -> fallback (warns)
                lib.gemm(a, b)  # miss -> re-tune -> still poisoned (silent)
        fallback_warnings = [
            w for w in caught
            if issubclass(w.category, KernelFallbackWarning)
        ]
        assert len(fallback_warnings) == 1
        assert lib.stats.fallbacks == 2

    def test_validated_conv_hit_is_certified_once(self):
        """The conv path certifies a fresh tune and amortizes later
        hits through the recorded digest."""
        params = ConvParams(batch=8, ni=16, no=16, ri=8, ci=8,
                            kr=3, kc=3, pad=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        lib = AtopLibrary(quick=True, validate="all")
        r1 = lib.conv2d(x, w, params)
        assert r1.fallback_reason is None
        assert lib.stats.validations == 1
        r2 = lib.conv2d(x, w, params)  # hit: digest fresh, no recheck
        assert lib.stats.validations == 1
        np.testing.assert_allclose(
            r1.output, conv2d_reference(x, w, params), rtol=1e-3, atol=1e-2
        )
        np.testing.assert_allclose(r1.output, r2.output, rtol=1e-5)


class TestKernelCacheQuarantine:
    def entry(self):
        return TunedEntry(
            strategy=ScheduleStrategy(
                {"tile:M": 32, "order": ("M", "N", "K"), "vec_dim": "M"}
            )
        )

    def test_quarantine_removes_and_records(self):
        c = KernelCache()
        c.put("k", self.entry())
        dropped = c.quarantine("k")
        assert dropped is not None
        assert "k" not in c
        assert c.quarantined_keys == ["k"]

    def test_quarantine_missing_key_is_noop(self):
        c = KernelCache()
        assert c.quarantine("ghost") is None
        assert c.quarantined_keys == []

    def test_validation_digest_roundtrips_json(self):
        e = self.entry()
        e.validation_digest = "ab" * 32
        back = TunedEntry.from_json(e.to_json())
        assert back.validation_digest == "ab" * 32

    def test_old_cache_entries_load_with_no_digest(self):
        data = self.entry().to_json()
        assert "validation_digest" not in data  # old format unchanged
        assert TunedEntry.from_json(data).validation_digest is None


class TestFallbackAccounting:
    def _layer(self, name, method, cycles):
        spec = LayerSpec(name, ni=4, no=4, spatial=8)
        params = ConvParams(batch=1, ni=4, no=4, ri=8, ci=8, kr=3, kc=3,
                            pad=1)
        report = SimReport(
            cycles=cycles, compute_cycles=cycles, flops=1,
            config=default_config(), detail=method,
        )
        return LayerResult(spec=spec, params=params, method=method,
                           report=report)

    def test_fallback_fraction_is_cycle_weighted_over_all_fallbacks(self):
        res = NetworkResult(
            name="synthetic", batch=1,
            layers=[
                self._layer("l0", "implicit", 700.0),
                self._layer("l1", "mpe-fallback", 200.0),
                self._layer("l2", "validation-fallback", 100.0),
            ],
        )
        assert res.fallback_layers == 2
        assert res.fallback_fraction() == pytest.approx(0.3)
        assert set(FALLBACK_METHODS) == {
            "mpe-fallback", "validation-fallback"
        }

    def test_no_fallbacks_is_zero(self):
        res = NetworkResult(
            name="synthetic", batch=1,
            layers=[self._layer("l0", "implicit", 700.0)],
        )
        assert res.fallback_layers == 0
        assert res.fallback_fraction() == 0.0
