"""Tests for the model-based and black-box autotuners."""

import numpy as np
import pytest

from repro.autotuner import synthetic_feeds, tune_blackbox, tune_with_model
from repro.dsl import ScheduleSpace
from repro.engine import CandidatePipeline
from repro.errors import TuningError, ValidationError

from ..scheduler.test_lower import gemm_cd


def small_space(M=256, N=256, K=256):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [64, 128])
    sp.split("N", [64, 128])
    sp.split("K", [64, 128])
    return cd, sp


class TestSyntheticFeeds:
    def test_covers_inputs_only(self):
        cd, _ = small_space()
        feeds = synthetic_feeds(cd)
        assert set(feeds) == {"A", "B"}
        assert feeds["A"].shape == (256, 256)
        assert feeds["A"].dtype == np.float32

    def test_deterministic_by_seed(self):
        cd, _ = small_space()
        a = synthetic_feeds(cd, seed=3)["A"]
        b = synthetic_feeds(cd, seed=3)["A"]
        np.testing.assert_array_equal(a, b)


class TestModelTuner:
    def test_basic_tuning(self):
        cd, sp = small_space()
        result = tune_with_model(cd, sp)
        assert result.method == "model"
        assert result.space_size == 8
        assert result.evaluated == result.legal_count
        assert result.report is not None
        assert result.best.measured_cycles is not None

    def test_predictions_populated(self):
        cd, sp = small_space()
        result = tune_with_model(cd, sp, keep_scores=True)
        assert len(result.scores) == result.evaluated
        assert all(s.predicted_cycles is not None for s in result.scores)
        preds = [s.predicted_cycles for s in result.scores]
        assert preds == sorted(preds)

    def test_run_best_false_skips_execution(self):
        cd, sp = small_space()
        result = tune_with_model(cd, sp, run_best=False)
        assert result.report is None
        assert result.best.measured_cycles is None

    def test_top_k_measures_finalists(self):
        cd, sp = small_space()
        result = tune_with_model(cd, sp, top_k=3, keep_scores=True)
        measured = [s for s in result.scores if s.measured_cycles is not None]
        assert len(measured) == 3

    def test_empty_space(self):
        cd, sp = small_space()
        sp.reorder([("K", "M", "N")])
        with pytest.raises(TuningError):
            tune_with_model(cd, sp)

    def test_summary_text(self):
        cd, sp = small_space()
        result = tune_with_model(cd, sp)
        assert "model" in result.summary()


class TestBlackbox:
    def test_basic_tuning(self):
        cd, sp = small_space(128, 128, 128)
        result = tune_blackbox(cd, sp)
        assert result.method == "blackbox"
        assert result.evaluated == result.legal_count
        assert result.report is not None

    def test_limit(self):
        cd, sp = small_space(128, 128, 128)
        result = tune_blackbox(cd, sp, limit=2)
        assert result.evaluated == 2

    def test_finds_true_optimum(self):
        cd, sp = small_space(128, 128, 128)
        full = tune_blackbox(cd, sp, keep_scores=True)
        measured = [s.measured_cycles for s in full.scores]
        assert full.best.measured_cycles == min(measured)


class TestEngineIntegration:
    @pytest.mark.parametrize("tune", [tune_blackbox, tune_with_model])
    def test_workers_other_than_one_rejected(self, tune):
        cd, sp = small_space()
        with pytest.raises(ValueError, match="workers=2"):
            tune(cd, sp, workers=2)

    def test_measured_scores_carry_reports(self):
        cd, sp = small_space()
        result = tune_with_model(cd, sp, top_k=3, keep_scores=True)
        measured = [s for s in result.scores if s.measured_cycles is not None]
        assert measured
        for s in measured:
            assert s.report is not None
            assert s.report.cycles == s.measured_cycles
        assert result.best.report is result.report

    def test_metrics_populated(self):
        cd, sp = small_space()
        result = tune_with_model(cd, sp)
        m = result.metrics
        assert m is not None
        assert m.enumeration.count == result.space_size
        assert m.optimization.count == result.legal_count
        assert m.prediction.count + m.memo_hits >= result.evaluated
        assert "engine:" in result.summary()

    def test_blackbox_metrics_count_executions(self):
        cd, sp = small_space(128, 128, 128)
        result = tune_blackbox(cd, sp)
        m = result.metrics
        assert m is not None
        assert m.execution.count == result.evaluated
        assert m.prediction.count == 0


class TestModelVsBlackbox:
    def test_model_close_to_brute_force(self):
        """The Fig. 9 property at test scale: the model's pick is
        within 8% of the brute-force best."""
        cd, sp = small_space(256, 256, 256)
        model = tune_with_model(cd, sp)
        brute = tune_blackbox(cd, sp)
        loss = model.report.cycles / brute.report.cycles
        assert loss <= 1.08

    def test_model_much_faster_to_tune(self):
        cd, sp = small_space(256, 256, 256)
        model = tune_with_model(cd, sp, run_best=False)
        brute = tune_blackbox(cd, sp)
        assert model.wall_seconds < brute.wall_seconds


def _tune(tuner, cd, sp, **kw):
    # top_k=3 gives the model tuner's winner walk a runner-up to fall to
    if tuner == "model":
        return tune_with_model(cd, sp, top_k=3, **kw)
    return tune_blackbox(cd, sp, **kw)


def _decisions(result):
    return result.best.candidate.strategy.decisions


@pytest.mark.parametrize("tuner", ["model", "blackbox"])
class TestValidateArgument:
    def test_modes_agree_on_winner(self, tuner):
        cd, sp = small_space(128, 128, 128)
        winners = [
            _decisions(_tune(tuner, cd, sp, validate=mode))
            for mode in ("off", "winner", "all")
        ]
        assert winners[0] == winners[1] == winners[2]

    def test_failed_winner_falls_to_next_ranked(self, tuner, monkeypatch):
        cd, sp = small_space(128, 128, 128)
        baseline = _tune(tuner, cd, sp, validate="off", keep_scores=True)
        ranked = sorted(
            (s for s in baseline.scores if s.measured_cycles is not None),
            key=lambda s: s.measured_cycles,
        )
        top = ranked[0].candidate.strategy.decisions
        assert top == _decisions(baseline)
        real = CandidatePipeline.validate

        def reject_top(self, candidate, **kw):
            if candidate.strategy.decisions == top:
                raise ValidationError("injected mismatch")
            return real(self, candidate, **kw)

        monkeypatch.setattr(CandidatePipeline, "validate", reject_top)
        result = _tune(tuner, cd, sp, validate="winner")
        assert _decisions(result) == ranked[1].candidate.strategy.decisions
        assert result.best.measured_cycles == ranked[1].measured_cycles

    def test_every_candidate_failing_raises(self, tuner, monkeypatch):
        cd, sp = small_space(128, 128, 128)

        def reject_all(self, candidate, **kw):
            raise ValidationError("injected mismatch")

        monkeypatch.setattr(CandidatePipeline, "validate", reject_all)
        with pytest.raises(TuningError, match="differential validation"):
            _tune(tuner, cd, sp, validate="winner")
