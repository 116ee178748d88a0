"""Checkpoint/resume of the branch-and-bound search.

The contract: a sweep interrupted at any batch boundary and resumed
from its checkpoint finishes with results bit-identical to an
uninterrupted run; corrupt or mismatched checkpoints never poison a
search -- they are quarantined or ignored and the sweep starts fresh.
"""

import json

import pytest

from repro.autotuner import tune_with_model
from repro.dsl import ScheduleSpace
from repro.engine import (
    AnalyticEvaluator,
    CandidatePipeline,
    CheckpointPolicy,
    SearchCheckpoint,
    search_candidates,
)
from repro.engine.checkpoint import CHECKPOINT_VERSION
from repro.options import use
from repro.persist import code_salt

from ..scheduler.test_lower import gemm_cd


@pytest.fixture(autouse=True)
def no_default_checkpoint():
    with use(checkpoint=None):
        yield


def make_space():
    cd = gemm_cd(128, 128, 128)
    sp = ScheduleSpace(cd)
    sp.split("M", [16, 32, 64, 128])
    sp.split("N", [16, 32, 64, 128])
    sp.split("K", [16, 32, 64, 128])
    return cd, sp


def make_pipeline():
    cd, sp = make_space()
    return CandidatePipeline(cd, sp)


def run_search(pipeline, evaluator=None, **kw):
    evaluator = evaluator or AnalyticEvaluator(config=pipeline.config)
    # batch_size=1 gives the space several branch-and-bound batches
    # (i.e. several checkpoint writes) before the tail is pruned: the
    # search scores three strategies
    return search_candidates(
        pipeline, evaluator, prune=True, batch_size=1, **kw
    )


def signature(pairs):
    return [
        (tuple(sorted(c.strategy.decisions.items())), e.cycles)
        for c, e in pairs
    ]


class InterruptingEvaluator(AnalyticEvaluator):
    """Raises KeyboardInterrupt after ``budget`` evaluations -- the
    same kind/params as AnalyticEvaluator, so the search digest (and
    with it the checkpoint identity) is unchanged."""

    def __init__(self, budget, config=None):
        super().__init__(config=config)
        self.budget = budget
        self.done = 0

    def evaluate(self, candidate):
        if self.done >= self.budget:
            raise KeyboardInterrupt
        self.done += 1
        return super().evaluate(candidate)


class TestCheckpointFile:
    def test_written_and_complete(self, tmp_path):
        path = tmp_path / "ckpt.json"
        pipeline = make_pipeline()
        results = run_search(pipeline, checkpoint=path)
        assert results
        raw = json.loads(path.read_text())
        assert raw["version"] == CHECKPOINT_VERSION
        assert raw["salt"] == code_salt()
        assert raw["complete"] is True
        assert len(raw["scored"]) == len(results)

    def test_resume_complete_checkpoint_skips_evaluation(self, tmp_path):
        path = tmp_path / "ckpt.json"
        first_pipe = make_pipeline()
        first = run_search(first_pipe, checkpoint=path)

        second_pipe = make_pipeline()
        second = run_search(second_pipe, checkpoint=path, resume=True)
        assert signature(second) == signature(first)
        # everything came from the checkpoint, nothing was re-scored
        assert second_pipe.metrics.prediction.count == 0
        assert second_pipe.metrics.event_counts().get("checkpoint-resume") == 1

    def test_interrupt_then_resume_bit_identical(self, tmp_path):
        path = tmp_path / "ckpt.json"
        clean_pipe = make_pipeline()
        clean = run_search(clean_pipe)

        interrupted_pipe = make_pipeline()
        interrupting = InterruptingEvaluator(
            budget=1, config=interrupted_pipe.config
        )
        with pytest.raises(KeyboardInterrupt):
            run_search(interrupted_pipe, interrupting, checkpoint=path)
        partial = json.loads(path.read_text())
        assert partial["complete"] is False
        # it really stopped mid-sweep with at least one batch banked
        assert 0 < len(partial["scored"]) < len(clean)

        resumed_pipe = make_pipeline()
        resumed = run_search(resumed_pipe, checkpoint=path, resume=True)
        assert signature(resumed) == signature(clean)
        # the resumed run scored strictly less than the whole sweep
        assert 0 < resumed_pipe.metrics.prediction.count < len(clean)

    def test_without_resume_checkpoint_is_ignored(self, tmp_path):
        path = tmp_path / "ckpt.json"
        first_pipe = make_pipeline()
        first = run_search(first_pipe, checkpoint=path)

        again_pipe = make_pipeline()
        again = run_search(again_pipe, checkpoint=path)  # resume not set
        assert signature(again) == signature(first)
        assert again_pipe.metrics.prediction.count > 0  # re-evaluated


class TestCheckpointValidation:
    def test_corrupt_checkpoint_quarantined_and_fresh(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{definitely not json")
        pipeline = make_pipeline()
        results = run_search(pipeline, checkpoint=path, resume=True)
        assert results
        assert (tmp_path / "ckpt.json.corrupt").exists()
        assert json.loads(path.read_text())["complete"] is True

    def test_mismatched_space_ignored_in_place(self, tmp_path):
        path = tmp_path / "ckpt.json"
        SearchCheckpoint(space="0" * 64, pos=4).save(path)
        pipeline = make_pipeline()
        clean = run_search(make_pipeline())
        results = run_search(pipeline, checkpoint=path, resume=True)
        assert signature(results) == signature(clean)
        assert not (tmp_path / "ckpt.json.corrupt").exists()

    def test_inconsistent_cursor_quarantined(self, tmp_path):
        path = tmp_path / "ckpt.json"
        state = SearchCheckpoint(space="x", pos=1)
        state.scored = [(0, {"predicted": 1.0}), (1, {"predicted": 2.0})]
        state.save(path)
        assert SearchCheckpoint.load(path, expect_space="x") is None
        assert (tmp_path / "ckpt.json.corrupt").exists()

    @pytest.mark.parametrize(
        "field, value", [("counters", 5), ("pos", "x"), ("worst_k", [[]])]
    )
    def test_malformed_fields_quarantined(self, tmp_path, field, value):
        path = tmp_path / "ckpt.json"
        SearchCheckpoint(space="x", pos=1).save(path)
        raw = json.loads(path.read_text())
        raw[field] = value
        path.write_text(json.dumps(raw))
        assert SearchCheckpoint.load(path, expect_space="x") is None
        assert (tmp_path / "ckpt.json.corrupt").exists()

    def test_failed_evaluation_round_trips(self):
        from repro.engine import FailedEvaluation

        failure = FailedEvaluation(
            site="crash",
            error_type="InjectedCrash",
            error_message="boom",
            error_chain=("InjectedCrash: boom",),
            attempts=3,
        )
        raw = SearchCheckpoint.pack_eval(failure)
        back = SearchCheckpoint.unpack_eval(raw, None)
        assert back == failure


class TestDefaultPolicy:
    def test_directory_policy_resumes_per_search(self, tmp_path):
        with use(checkpoint=CheckpointPolicy(tmp_path, resume=True)):
            first_pipe = make_pipeline()
            first = run_search(first_pipe)
            files = list(tmp_path.glob("search-*.json"))
            assert len(files) == 1

            second_pipe = make_pipeline()
            second = run_search(second_pipe)
        assert signature(second) == signature(first)
        assert second_pipe.metrics.prediction.count == 0  # resumed

    def test_lowering_context_splits_policy_files(self, tmp_path):
        """The two arms of a prefetch ablation search the same compute
        and space with the same evaluator: each must get its own
        checkpoint, never resume the other's scores."""
        cd, sp = make_space()
        arms = {
            prefetch: signature(
                run_search(CandidatePipeline(cd, sp, prefetch=prefetch))
            )
            for prefetch in (True, False)
        }
        assert arms[True] != arms[False]
        with use(checkpoint=CheckpointPolicy(tmp_path, resume=True)):
            for prefetch in (True, False, True, False):
                pipe = CandidatePipeline(cd, sp, prefetch=prefetch)
                assert signature(run_search(pipe)) == arms[prefetch]
        assert len(list(tmp_path.glob("search-*.json"))) == 2

    def test_explicit_argument_beats_policy(self, tmp_path):
        policy = CheckpointPolicy(tmp_path / "policy-dir", resume=True)
        explicit = tmp_path / "explicit.json"
        with use(checkpoint=policy):
            run_search(make_pipeline(), checkpoint=explicit)
        assert explicit.exists()
        assert not (tmp_path / "policy-dir").exists()


class TestTunerResume:
    def test_tune_with_model_resume_from(self, tmp_path):
        path = tmp_path / "tuner.json"
        cd, sp = make_space()
        first = tune_with_model(
            cd, sp, run_best=False, prune=True, checkpoint=path
        )
        cd2, sp2 = make_space()
        resumed = tune_with_model(
            cd2, sp2, run_best=False, prune=True, resume_from=path
        )
        assert (
            resumed.best.candidate.strategy.decisions
            == first.best.candidate.strategy.decisions
        )
        assert resumed.best.predicted_cycles == first.best.predicted_cycles
        assert resumed.metrics.prediction.count == 0  # answered by resume
