"""Checkpointing a sweep: the persistent eval store is the checkpoint.

The search is deterministic, so running it again over the store an
interrupted run flushed takes the same batches and answers every banked
score from the store: the rerun returns exactly what an uninterrupted
run returns and evaluates only what was not banked.  The oracle-space
cases (every batch boundary of the default schedule, a mid-search
interrupt) are in ``test_search.py``.
"""

import pytest

from repro.autotuner import tune_with_model
from repro.dsl import ScheduleSpace
from repro.engine import (
    AnalyticEvaluator,
    CandidatePipeline,
    MemoizingEvaluator,
    PersistentEvalStore,
    search_candidates,
)
from repro.engine import evaluators
from repro.faults import FaultPlan, candidate_digest
from repro.options import use

from ..scheduler.test_lower import gemm_cd


class InterruptingEvaluator(AnalyticEvaluator):
    """Counts its evaluations in ``done`` and raises KeyboardInterrupt
    once ``budget`` of them ran -- the same kind and parameters as
    :class:`AnalyticEvaluator`, so it shares the memo keys of an
    uninterrupted search."""

    def __init__(self, budget=float("inf"), config=None):
        super().__init__(config=config)
        self.budget = budget
        self.done = 0

    def evaluate(self, candidate):
        if self.done >= self.budget:
            raise KeyboardInterrupt
        self.done += 1
        return super().evaluate(candidate)


def banking(inner, path):
    """``inner`` behind an empty in-process memo and the eval store at
    ``path``: what a new process run with ``--eval-cache path`` sees."""
    return MemoizingEvaluator(inner, store={}, disk=PersistentEvalStore(path))


def make_space(depth=128):
    cd = gemm_cd(128, 128, depth)
    sp = ScheduleSpace(cd)
    sp.split("M", [16, 32, 64, 128])
    sp.split("N", [16, 32, 64, 128])
    sp.split("K", [16, 32, 64, 128])
    return cd, sp


def run_search(evaluator, depth=128):
    """One search in batches of one, so the space takes several batches
    (and store flushes) before its tail is pruned: its comparable
    results, its pairs and its metrics."""
    pipe = CandidatePipeline(*make_space(depth))
    pairs = search_candidates(pipe, evaluator, prune=True, batch_size=1)
    m = pipe.metrics
    signature = [
        (tuple(sorted(c.strategy.decisions.items())), e.cycles, e.failed)
        for c, e in pairs
    ]
    return (signature, m.bound_pruned, m.spm_pruned, m.prune_batches), pairs, m


class TestCheckpointFile:
    def test_resume_complete_checkpoint_skips_evaluation(self, tmp_path):
        path = tmp_path / "ev.json"
        first = InterruptingEvaluator()
        done, _, _ = run_search(banking(first, path))
        assert first.done == len(done[0]) > 2

        again = InterruptingEvaluator()
        rerun, _, metrics = run_search(banking(again, path))
        assert rerun == done
        assert again.done == 0
        assert metrics.prediction.count == 0
        assert metrics.memo_hits == len(done[0])

    def test_interrupt_then_resume_bit_identical(self, tmp_path):
        path = tmp_path / "ev.json"
        clean, _, _ = run_search(AnalyticEvaluator())

        with pytest.raises(KeyboardInterrupt):
            run_search(banking(InterruptingEvaluator(budget=1), path))
        banked = len(PersistentEvalStore(path))
        # it really stopped mid-sweep with at least one batch banked
        assert 0 < banked < len(clean[0])

        inner = InterruptingEvaluator()
        resumed, _, _ = run_search(banking(inner, path))
        assert resumed == clean
        assert inner.done == len(clean[0]) - banked


class TestDefaultPolicy:
    def test_directory_policy_resumes_per_search(self, tmp_path, monkeypatch):
        """One store installed for the run banks every search of it; a
        rerun of the run resumes each search from it."""
        path = tmp_path / "ev.json"
        runs = []
        for _ in range(2):
            # a new process: only the store outlives the run
            monkeypatch.setattr(evaluators, "_SHARED_MEMO", {})
            inner = InterruptingEvaluator()
            with use(eval_store=PersistentEvalStore(path)):
                memo = MemoizingEvaluator(inner, store={})
                results = [run_search(memo, depth)[0] for depth in (128, 256)]
            runs.append((results, inner.done))
        (first, evaluated), (again, reevaluated) = runs
        assert again == first
        assert first[0][0] != first[1][0]  # two different searches
        assert evaluated == sum(len(result[0]) for result in first)
        assert reevaluated == 0


class TestTunerResume:
    def test_tune_with_model_resume_from(self, tmp_path, monkeypatch):
        """A tuner rerun under the same run-wide store simulates no
        finalist twice."""
        path = tmp_path / "ev.json"
        runs = []
        for _ in range(2):
            # a new process: only the store outlives the run
            monkeypatch.setattr(evaluators, "_SHARED_MEMO", {})
            with use(eval_store=PersistentEvalStore(path)):
                runs.append(tune_with_model(*make_space(), top_k=2, prune=True))
        first, again = runs
        assert first.metrics.execution.count == 2
        assert again.metrics.execution.count == 0
        assert again.metrics.memo_hits == 2
        # the analytic ranker has no memo: the rerun predicts again
        assert again.metrics.prediction.count == first.metrics.prediction.count
        assert (
            again.best.candidate.strategy.decisions
            == first.best.candidate.strategy.decisions
        )
        assert again.best.measured_cycles == first.best.measured_cycles
        assert again.report.cycles == first.report.cycles


def test_faulty_search_resumes_to_the_same_quarantined_set(tmp_path):
    # poison the winner; the transient crashes are retried
    _, pairs, _ = run_search(AnalyticEvaluator())
    winner, _ = min(pairs, key=lambda pair: pair[1].cycles)
    plan = FaultPlan(seed=13, crash=0.2, poison=candidate_digest(winner)[:16])
    path = tmp_path / "ev.json"
    with use(faults=plan):
        faulty, _, faulty_metrics = run_search(AnalyticEvaluator())
        with pytest.raises(KeyboardInterrupt):
            run_search(banking(InterruptingEvaluator(budget=1), path))
        banked = len(PersistentEvalStore(path))
        resumed_inner = InterruptingEvaluator()
        resumed, _, metrics = run_search(banking(resumed_inner, path))

    quarantined = [entry[0] for entry in faulty[0] if entry[2]]
    assert quarantined == [tuple(sorted(winner.strategy.decisions.items()))]
    assert faulty_metrics.retries > 0
    assert resumed == faulty  # failures included
    assert metrics.quarantined == faulty_metrics.quarantined
    # the interrupt came mid-search, and the rerun evaluated exactly
    # what the store did not hold (failures are never banked)
    healthy = len(faulty[0]) - len(quarantined)
    assert 0 < banked < healthy
    assert resumed_inner.done == healthy - banked
