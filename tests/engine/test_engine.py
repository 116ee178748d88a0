"""Tests for the unified candidate-evaluation engine."""

import numpy as np
import pytest

from repro.dsl import ScheduleSpace
from repro.dsl.schedule import ScheduleStrategy
from repro.engine import (
    AnalyticEvaluator,
    CandidatePipeline,
    EngineMetrics,
    MemoizingEvaluator,
    SimulatorEvaluator,
    clear_feeds_cache,
    clip_strategy,
    compile_strategy,
    compute_signature,
    evaluate_batch,
    strategy_key,
    synthetic_feeds,
)
from repro.errors import TuningError

from ..scheduler.test_lower import gemm_cd


def small_space(M=128, N=128, K=128):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [32, 64])
    sp.split("N", [32, 64])
    sp.split("K", [32, 64])
    return cd, sp


class TestCandidatePipeline:
    def test_enumerates_whole_space(self):
        cd, sp = small_space()
        pipe = CandidatePipeline(cd, sp)
        cands = list(pipe.candidates())
        assert len(cands) == pipe.stats.legal
        assert pipe.stats.declared == sp.size() == 8
        # every declared strategy is accounted in the enumeration stage,
        # every legal one went through the optimizer
        assert pipe.metrics.enumeration.count == pipe.stats.declared
        assert pipe.metrics.optimization.count == len(cands)

    def test_limit_stops_at_n_legal(self):
        cd, sp = small_space()
        pipe = CandidatePipeline(cd, sp)
        assert len(list(pipe.candidates(limit=2))) == 2

    def test_candidates_without_space_raises(self):
        cd, _ = small_space()
        with pytest.raises(TuningError):
            next(CandidatePipeline(cd).candidates())

    def test_prepare_single_strategy(self):
        cd, sp = small_space()
        pipe = CandidatePipeline(cd, sp)
        target = next(pipe.candidates())
        again = CandidatePipeline(cd).prepare(target.strategy)
        assert again.strategy.decisions == target.strategy.decisions
        assert pipe.metrics.optimization.count >= 1

    def test_compile_strategy_runs_correctly(self):
        cd, sp = small_space(64, 64, 64)
        pipe = CandidatePipeline(cd, sp)
        strategy = next(pipe.candidates()).strategy
        ck = compile_strategy(cd, strategy)
        feeds = synthetic_feeds(cd)
        out = ck.run(feeds).outputs["C"]
        np.testing.assert_allclose(
            out, feeds["A"] @ feeds["B"], rtol=1e-4, atol=1e-3
        )

    def test_clip_strategy_clamps_tiles(self):
        cd = gemm_cd(32, 32, 32)
        s = ScheduleStrategy({"tile:M": 64, "tile:N": 16, "vec_dim": "M"})
        clipped = clip_strategy(s, cd)
        assert clipped["tile:M"] == 32  # clamped to the axis extent
        assert clipped["tile:N"] == 16  # already legal: untouched


class TestEvaluators:
    def test_analytic_predicts_without_running(self):
        cd, sp = small_space()
        cand = next(CandidatePipeline(cd, sp).candidates())
        ev = AnalyticEvaluator().evaluate(cand)
        assert ev.predicted_cycles is not None and ev.predicted_cycles > 0
        assert ev.measured_cycles is None and ev.report is None
        assert ev.cycles == ev.predicted_cycles

    def test_simulator_measures_and_counts(self):
        cd, sp = small_space(64, 64, 64)
        cand = next(CandidatePipeline(cd, sp).candidates())
        sim = SimulatorEvaluator()
        ev = sim.evaluate(cand)
        assert sim.executions == 1
        assert ev.measured_cycles is not None and ev.measured_cycles > 0
        assert ev.report is not None
        assert ev.report.cycles == ev.measured_cycles

    def test_compute_signature_distinguishes_shapes(self):
        a, _ = small_space(64, 64, 64)
        b, _ = small_space(64, 64, 64)
        c, _ = small_space(128, 64, 64)
        assert compute_signature(a) == compute_signature(b)
        assert compute_signature(a) != compute_signature(c)

    def test_strategy_key_order_independent(self):
        s1 = ScheduleStrategy({"tile:M": 64, "vec_dim": "M"})
        s2 = ScheduleStrategy({"vec_dim": "M", "tile:M": 64})
        assert strategy_key(s1) == strategy_key(s2)


class TestMemoization:
    def test_second_evaluation_is_a_hit(self):
        cd, sp = small_space(64, 64, 64)
        cand = next(CandidatePipeline(cd, sp).candidates())
        sim = SimulatorEvaluator()
        memo = MemoizingEvaluator(sim, store={})
        first = memo.evaluate(cand)
        second = memo.evaluate(cand)
        assert sim.executions == 1  # the probe: no re-execution
        assert memo.hits == 1
        assert not first.memoized and second.memoized
        assert second.measured_cycles == first.measured_cycles
        assert second.report is first.report  # cached SimReport survives

    def test_salt_separates_contexts(self):
        cd, sp = small_space(64, 64, 64)
        cand = next(CandidatePipeline(cd, sp).candidates())
        store = {}
        sim = SimulatorEvaluator()
        MemoizingEvaluator(sim, store=store, salt=("prefetch",)).evaluate(cand)
        MemoizingEvaluator(sim, store=store, salt=("bare",)).evaluate(cand)
        assert sim.executions == 2  # different salt: no sharing
        assert len(store) == 2

    def test_batch_memo_skips_execution(self):
        cd, sp = small_space(64, 64, 64)
        cands = list(CandidatePipeline(cd, sp).candidates())
        store = {}
        warm = SimulatorEvaluator()
        first = evaluate_batch(cands, MemoizingEvaluator(warm, store=store))
        assert warm.executions == len(cands)

        cold = SimulatorEvaluator()
        metrics = EngineMetrics()
        second = evaluate_batch(
            cands, MemoizingEvaluator(cold, store=store), metrics=metrics
        )
        assert cold.executions == 0  # everything answered from the memo
        assert metrics.memo_hits == len(cands)
        assert metrics.execution.count == 0
        for a, b in zip(first, second):
            assert b.memoized
            assert b.measured_cycles == a.measured_cycles
            assert b.report is not None


class TestBatch:
    def test_results_are_order_stable(self):
        cd, sp = small_space()
        cands = list(CandidatePipeline(cd, sp).candidates())
        sim = SimulatorEvaluator()
        batch = evaluate_batch(cands, sim)
        for cand, ev in zip(cands, batch):
            assert ev.measured_cycles == sim.evaluate(cand).measured_cycles

    def test_metrics_record_execution_counts(self):
        cd, sp = small_space()
        cands = list(CandidatePipeline(cd, sp).candidates())
        metrics = EngineMetrics()
        evaluate_batch(cands, SimulatorEvaluator(), metrics=metrics)
        assert metrics.execution.count == len(cands)
        assert metrics.execution.seconds > 0

    def test_analytic_batch_reports_into_prediction_stage(self):
        cd, sp = small_space()
        cands = list(CandidatePipeline(cd, sp).candidates())
        metrics = EngineMetrics()
        batch = evaluate_batch(cands, AnalyticEvaluator(), metrics=metrics)
        assert metrics.prediction.count == len(cands)
        assert metrics.execution.count == 0
        assert all(e.predicted_cycles is not None for e in batch)


class TestFeedsCache:
    def test_repeat_calls_reuse_arrays(self):
        cd, _ = small_space(64, 64, 64)
        clear_feeds_cache()
        first = synthetic_feeds(cd)
        second = synthetic_feeds(cd)
        assert first is not second  # callers get their own dict...
        for name in first:
            assert first[name] is second[name]  # ...over shared arrays
            assert not first[name].flags.writeable

    def test_seed_and_shape_separate_entries(self):
        cd, _ = small_space(64, 64, 64)
        other, _ = small_space(128, 64, 64)
        assert synthetic_feeds(cd, seed=0)["A"] is not synthetic_feeds(
            cd, seed=1
        )["A"]
        assert synthetic_feeds(cd)["A"].shape != synthetic_feeds(other)[
            "A"
        ].shape

    def test_values_match_uncached_generation(self):
        cd, _ = small_space(64, 64, 64)
        cached = synthetic_feeds(cd, seed=7)
        clear_feeds_cache()
        fresh = synthetic_feeds(cd, seed=7)
        for name in fresh:
            np.testing.assert_array_equal(cached[name], fresh[name])
