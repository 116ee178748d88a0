"""Tests for differential kernel validation (repro.engine.validate)."""

import numpy as np
import pytest

from repro.engine import (
    CandidatePipeline,
    SimulatorEvaluator,
    ValidatingEvaluator,
    compare_tensors,
    reference_outputs,
    resolve_validate,
    synthetic_feeds,
    tolerance_for,
    validate_candidate,
    validation_digest,
)
from repro.errors import ValidationError
from repro.faults import FaultPlan, compute_digest
from repro.options import TuneOptions, use
from repro.ops.conv_common import ConvParams
from repro.ops import conv_implicit, conv_winograd, conv2d_reference
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space


def first_candidate(compute, space):
    pipeline = CandidatePipeline(compute, space)
    return pipeline, next(pipeline.candidates(limit=1))


def env_options(environ):
    """``use()`` changes installing ``TuneOptions.from_env(environ)``."""
    return vars(TuneOptions.from_env(environ))


class TestModes:
    def test_default_off(self):
        with use(**env_options({})):
            assert resolve_validate(None) == "off"

    def test_sanitize_forces_all(self):
        with use(**env_options({"REPRO_SANITIZE": "1"})):
            assert resolve_validate(None) == "all"
        with use(sanitize=True, validate=None):
            assert resolve_validate(None) == "all"

    def test_explicit_mode_wins(self):
        with use(**env_options({"REPRO_SANITIZE": "1"})), use(validate="winner"):
            assert resolve_validate(None) == "winner"
            assert resolve_validate("off") == "off"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            TuneOptions(validate="sometimes")
        with pytest.raises(ValueError):
            with use(validate="sometimes"):
                pass
        with pytest.raises(ValueError):
            resolve_validate("maybe")


class TestReference:
    def test_gemm_reference_is_matmul(self):
        compute = gemm_compute(24, 20, 28)
        feeds = synthetic_feeds(compute)
        refs = reference_outputs(compute, feeds)
        a64 = np.asarray(feeds["A"], np.float64)
        b64 = np.asarray(feeds["B"], np.float64)
        np.testing.assert_allclose(refs["C"], a64 @ b64, rtol=1e-12)

    def test_conv_reference_matches_direct(self):
        params = ConvParams(batch=2, ni=8, no=8, ri=10, ci=10)
        compute = conv_implicit.make_compute(params)
        feeds = synthetic_feeds(compute)
        refs = reference_outputs(compute, feeds)
        direct = conv2d_reference(feeds["input"], feeds["weight"], params)
        (out_name,) = refs
        np.testing.assert_allclose(
            refs[out_name], direct, rtol=1e-4, atol=1e-4
        )

    def test_tolerance_grows_with_reduction_length(self):
        small = gemm_compute(16, 16, 16)
        large = gemm_compute(16, 16, 4096)
        assert tolerance_for(large)[0] > tolerance_for(small)[0]
        assert tolerance_for(small)[0] >= 1e-5

    def test_compare_tensors_structured_error(self):
        ref = np.zeros((4, 4))
        bad = ref.copy()
        bad[1, 2] = 5.0
        with pytest.raises(ValidationError) as exc:
            compare_tensors(
                bad, ref, rtol=1e-5, atol=1e-5, op="gemm", tensor="C"
            )
        err = exc.value
        assert err.op == "gemm"
        assert err.tensor == "C"
        assert err.mismatches == 1
        assert err.max_abs_err == pytest.approx(5.0)

    def test_compare_tensors_shape_mismatch(self):
        with pytest.raises(ValidationError):
            compare_tensors(
                np.zeros((2, 2)), np.zeros((2, 3)),
                rtol=1e-5, atol=1e-5,
            )


class TestValidateCandidate:
    def test_honest_gemm_passes(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        _, cand = first_candidate(compute, space)
        report = validate_candidate(cand)
        assert report.op == compute.name
        assert report.max_abs_err <= report.atol + report.rtol
        assert report.cycles > 0

    def test_honest_winograd_passes(self):
        params = ConvParams(batch=1, ni=8, no=8, ri=10, ci=10)
        compute = conv_winograd.make_compute(params)
        space = conv_winograd.make_space(params, quick=True)
        _, cand = first_candidate(compute, space)
        report = validate_candidate(cand)
        assert report.tensors

    def test_poisoned_kernel_fails(self):
        """A fault-plan poison silently corrupting kernel outputs is
        exactly what differential validation exists to catch."""
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        _, cand = first_candidate(compute, space)
        with use(faults=FaultPlan(poison=compute_digest(compute)[:12])):
            with pytest.raises(ValidationError):
                validate_candidate(cand)

    def test_pipeline_validate_counts_failures(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        pipeline, cand = first_candidate(compute, space)
        pipeline.validate(cand)
        assert pipeline.metrics.validation.count == 1
        assert pipeline.metrics.validation_failures == 0
        with use(faults=FaultPlan(poison=compute_digest(compute)[:12])):
            with pytest.raises(ValidationError):
                pipeline.validate(cand)
        assert pipeline.metrics.validation_failures == 1
        assert pipeline.metrics.event_counts().get("validation") == 1


class TestValidatingEvaluator:
    def test_wraps_and_delegates(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        _, cand = first_candidate(compute, space)
        inner = SimulatorEvaluator(synthetic_feeds(compute))
        ev = ValidatingEvaluator(inner)
        assert ev.kind == inner.kind + "+validate"
        assert ev.params_key()[0] == inner.params_key()
        result = ev.evaluate(cand)
        assert not result.failed
        assert result.measured_cycles > 0
        assert ev.validations == 1 and ev.failures == 0

    def test_poison_becomes_failed_evaluation(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        _, cand = first_candidate(compute, space)
        inner = SimulatorEvaluator(synthetic_feeds(compute))
        ev = ValidatingEvaluator(inner)
        with use(faults=FaultPlan(poison=compute_digest(compute)[:12])):
            result = ev.evaluate(cand)
        assert result.failed
        assert result.site == "validation"
        assert ev.failures == 1


class TestDigest:
    def test_digest_depends_on_key_and_strategy(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        pipeline = CandidatePipeline(compute, space)
        cands = list(pipeline.candidates(limit=2))
        d1 = validation_digest("gemm:48x48x48", cands[0].strategy)
        assert d1 == validation_digest("gemm:48x48x48", cands[0].strategy)
        assert d1 != validation_digest("gemm:64x48x48", cands[0].strategy)
        if len(cands) > 1:
            assert d1 != validation_digest(
                "gemm:48x48x48", cands[1].strategy
            )
