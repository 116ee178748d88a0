"""Tests for tuning-result records and the error hierarchy."""

import pytest

import repro.errors as E
from repro.autotuner.result import CandidateScore, TuningResult
from repro.dsl.schedule import ScheduleStrategy
from repro.scheduler.enumerate import Candidate


def make_score(**kw):
    cand = Candidate(
        strategy=ScheduleStrategy({"tile:M": 4}),
        kernel=None,  # records never dereference the kernel
        compute=None,
    )
    return CandidateScore(candidate=cand, **kw)


class TestCandidateScore:
    def test_measured_preferred_over_predicted(self):
        s = make_score(predicted_cycles=100.0, measured_cycles=120.0)
        assert s.cycles == 120.0

    def test_predicted_fallback(self):
        assert make_score(predicted_cycles=100.0).cycles == 100.0

    def test_unevaluated_raises(self):
        with pytest.raises(ValueError):
            make_score().cycles


class TestTuningResult:
    def test_summary_mentions_method_and_space(self):
        r = TuningResult(
            best=make_score(predicted_cycles=10.0),
            space_size=42,
            legal_count=40,
            evaluated=40,
            wall_seconds=1.5,
            method="model",
        )
        text = r.summary()
        assert "model" in text and "space=42" in text

    def test_summary_prefers_measured_report(self):
        from repro.machine.trace import SimReport

        r = TuningResult(
            best=make_score(predicted_cycles=10.0),
            space_size=1,
            legal_count=1,
            evaluated=1,
            wall_seconds=0.1,
            method="blackbox",
            report=SimReport(cycles=123.0),
        )
        assert "measured" in r.summary()


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        for name in dir(E):
            obj = getattr(E, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not E.ReproError:
                    assert issubclass(obj, E.ReproError), name

    def test_pruning_error_is_a_schedule_error(self):
        assert issubclass(E.IllegalCandidateError, E.ScheduleError)

    def test_machine_errors_grouped(self):
        for cls in (E.SpmCapacityError, E.PipelineError, E.MainMemoryError):
            assert issubclass(cls, E.MachineError)

    def test_cache_error_importable(self):
        from repro.runtime import CacheError

        assert issubclass(CacheError, E.ReproError)
