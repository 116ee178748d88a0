"""Resilience of the supervised evaluation engine under injected faults.

The contract mirrors the pruning one: faults change how much work a
sweep does (retries, quarantines), never what it returns.
Transient failures must recover to bit-identical results; persistent
(poison) failures must quarantine exactly the poisoned candidate.
"""

import pytest

from repro.dsl import ScheduleSpace
from repro.engine import (
    AnalyticEvaluator,
    CandidatePipeline,
    EngineMetrics,
    FailedEvaluation,
    MemoizingEvaluator,
    PersistentEvalStore,
    evaluate_batch,
    search_candidates,
)
from repro.engine import parallel as par
from repro.engine.evalcache import EVAL_CACHE_VERSION
from repro.faults import (
    FaultPlan,
    InjectedCrash,
    InjectedEvaluatorError,
    InjectedHang,
    candidate_digest,
)
from repro.options import TuneOptions, current, use

from ..scheduler.test_lower import gemm_cd


@pytest.fixture(autouse=True)
def clean_engine_state():
    with use(faults=None, eval_store=None):
        yield


def make_pipeline(splits=(32, 64, 128)):
    cd = gemm_cd(128, 128, 128)
    sp = ScheduleSpace(cd)
    sp.split("M", list(splits))
    sp.split("N", list(splits))
    sp.split("K", list(splits))
    return CandidatePipeline(cd, sp)


def eval_signature(pairs):
    """Comparable (strategy, cycles) list for bit-identity checks."""
    return [
        (tuple(sorted(c.strategy.decisions.items())), e.cycles)
        for c, e in pairs
        if not e.failed
    ]


class TestFaultPlan:
    def test_draws_are_deterministic(self):
        plan = FaultPlan(seed=7, exception=0.5)
        first = [plan.should_fire("exception", f"k{i}") for i in range(64)]
        again = [plan.should_fire("exception", f"k{i}") for i in range(64)]
        assert first == again
        assert any(first) and not all(first)

    def test_attempt_redraws(self):
        plan = FaultPlan(seed=3, crash=0.5)
        keys = [f"k{i}" for i in range(128)]
        fired0 = {k for k in keys if plan.should_fire("crash", k, 0)}
        fired1 = {k for k in keys if plan.should_fire("crash", k, 1)}
        assert fired0 and fired0 != fired1  # a retry really re-draws

    def test_seed_changes_schedule(self):
        keys = [f"k{i}" for i in range(128)]
        a = {k for k in keys if FaultPlan(seed=1, hang=0.3).should_fire("hang", k)}
        b = {k for k in keys if FaultPlan(seed=2, hang=0.3).should_fire("hang", k)}
        assert a != b

    def test_parse_round_trip(self):
        plan = FaultPlan.parse("seed=42,crash=0.1,corrupt=0.5,poison=ab12")
        assert plan == FaultPlan(seed=42, crash=0.1, corrupt=0.5, poison="ab12")
        assert FaultPlan.parse(plan.describe()) == plan

    @pytest.mark.parametrize(
        "spec",
        ["crash", "crash=2.0", "bogus=0.1", "crash=-0.5", "seed=x"],
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_noop_plan_not_installed(self):
        assert TuneOptions(faults=FaultPlan(seed=9)).faults is None
        with use(faults=FaultPlan(seed=9)):
            assert current().faults is None
        with use(faults=FaultPlan(seed=9, crash=0.1)):
            assert current().faults is not None

    def test_evaluator_raises_planned_sites(self):
        pipeline = make_pipeline((64, 128))
        cands = list(pipeline.candidates())
        digest = candidate_digest(cands[0])
        from repro.faults import FaultyEvaluator

        inner = AnalyticEvaluator(config=pipeline.config)
        for rate_name, exc_type in [
            ("crash", InjectedCrash),
            ("hang", InjectedHang),
            ("exception", InjectedEvaluatorError),
        ]:
            plan = FaultPlan(seed=0, **{rate_name: 1.0})
            with pytest.raises(exc_type):
                FaultyEvaluator(inner, plan).evaluate(cands[0])
        poisoned = FaultyEvaluator(
            inner, FaultPlan(poison=digest[:12])
        )
        with pytest.raises(InjectedEvaluatorError):
            poisoned.evaluate(cands[0])

    def test_draws_are_keyed_by_the_attempt_passed_in(self):
        pipeline = make_pipeline((64, 128))
        cand = next(pipeline.candidates())
        digest = candidate_digest(cand)
        from repro.faults import FaultyEvaluator

        plan = FaultPlan(seed=3, crash=0.5)
        faulty = FaultyEvaluator(AnalyticEvaluator(config=pipeline.config), plan)
        fired = []
        for attempt in range(8):
            try:
                faulty.evaluate(cand, attempt)
                fired.append(False)
            except InjectedCrash:
                fired.append(True)
        assert fired == [plan.should_fire("crash", digest, a) for a in range(8)]
        assert True in fired and False in fired


class TestSupervisedSerial:
    def test_transient_exceptions_recover_bit_identical(self):
        pipeline = make_pipeline()
        cands = list(pipeline.candidates())
        clean = evaluate_batch(
            cands, AnalyticEvaluator(config=pipeline.config)
        )

        # seed chosen so the plan fires on several candidates but never
        # three attempts in a row (which would be a quarantine)
        metrics = EngineMetrics()
        with use(faults=FaultPlan(seed=2, exception=0.3)):
            faulty = evaluate_batch(
                cands,
                AnalyticEvaluator(config=pipeline.config),
                metrics=metrics,
            )
        assert metrics.retries > 0  # the plan really fired
        assert metrics.quarantined == 0  # transient: retries recovered all
        assert [e.cycles for e in faulty] == [e.cycles for e in clean]

    def test_poison_quarantined_exactly(self):
        pipeline = make_pipeline()
        cands = list(pipeline.candidates())
        clean = evaluate_batch(
            cands, AnalyticEvaluator(config=pipeline.config)
        )
        victim = 3
        metrics = EngineMetrics()
        with use(faults=FaultPlan(poison=candidate_digest(cands[victim])[:12])):
            faulty = evaluate_batch(
                cands,
                AnalyticEvaluator(config=pipeline.config),
                metrics=metrics,
            )
        assert metrics.quarantined == 1
        assert isinstance(faulty[victim], FailedEvaluation)
        assert faulty[victim].site == "exception"
        assert faulty[victim].attempts == 3  # initial try + 2 retries
        assert "poison" in faulty[victim].error_message
        assert faulty[victim].error_chain  # the chain survived
        for i, (a, b) in enumerate(zip(faulty, clean)):
            if i != victim:
                assert a.cycles == b.cycles

    def test_quarantined_never_reaches_memo(self):
        pipeline = make_pipeline((64, 128))
        cands = list(pipeline.candidates())
        store = {}
        memo = MemoizingEvaluator(
            AnalyticEvaluator(config=pipeline.config), store=store, disk=None
        )
        with use(faults=FaultPlan(poison=candidate_digest(cands[0])[:12])):
            out = evaluate_batch(cands, memo)
        assert out[0].failed
        assert len(store) == len(cands) - 1

    def test_crash_and_hang_recover_bit_identical(self):
        pipeline = make_pipeline()
        cands = list(pipeline.candidates())
        clean = evaluate_batch(
            cands, AnalyticEvaluator(config=pipeline.config)
        )
        metrics = EngineMetrics()
        with use(faults=FaultPlan(seed=5, crash=0.08, hang=0.08)):
            faulty = evaluate_batch(
                cands,
                AnalyticEvaluator(config=pipeline.config),
                metrics=metrics,
            )
        # both sites really fired, and retries recovered every candidate
        retried_sites = {
            e.detail.split(" on ")[0]
            for e in metrics.events
            if e.kind == "retry"
        }
        assert retried_sites == {"crash", "hang"}
        assert metrics.retries > 0
        assert metrics.quarantined == 0
        assert [e.cycles for e in faulty] == [e.cycles for e in clean]

    def test_hang_site_classified(self):
        assert par._classify(InjectedHang("x")) == "hang"
        assert par._classify(InjectedCrash("x")) == "crash"
        assert par._classify(TimeoutError()) == "hang"
        assert par._classify(ValueError("x")) == "exception"

    def test_events_recorded(self):
        pipeline = make_pipeline((64, 128))
        cands = list(pipeline.candidates())
        metrics = EngineMetrics()
        with use(faults=FaultPlan(poison=candidate_digest(cands[0])[:12])):
            evaluate_batch(
                cands,
                AnalyticEvaluator(config=pipeline.config),
                metrics=metrics,
            )
        counts = metrics.event_counts()
        assert counts.get("retry") == 2
        assert counts.get("quarantine") == 1
        assert "quarantine 1" in metrics.describe_events()


class TestAcceptanceScenario:
    """The issue's acceptance criterion: crashes + a poison candidate +
    a corrupted eval-cache file, in one seeded sweep."""

    def test_chaos_sweep_matches_fault_free(self, tmp_path):
        # fault-free exhaustive reference
        ref_pipe = make_pipeline()
        reference = search_candidates(
            ref_pipe, AnalyticEvaluator(config=ref_pipe.config), prune=False
        )
        ref_best = min(
            reference, key=lambda p: (p[1].cycles,)
        )

        # pick a mid-ranking candidate the pruned sweep will evaluate
        pruned_pipe = make_pipeline()
        pruned = search_candidates(
            pruned_pipe,
            AnalyticEvaluator(config=pruned_pipe.config),
            prune=True,
            batch_size=8,
        )
        by_cycles = sorted(pruned, key=lambda p: p[1].cycles)
        poison_cand = by_cycles[len(by_cycles) // 2][0]
        poison = candidate_digest(poison_cand)[:16]

        # a corrupted eval-cache file the sweep must survive
        cache_path = tmp_path / "evals.json"
        cache_path.write_text(
            '{"version": %d, "salt": "x", "entries": {"trunc' % EVAL_CACHE_VERSION
        )
        store = PersistentEvalStore(cache_path)
        assert len(store) == 0

        chaos_pipe = make_pipeline()
        memo = MemoizingEvaluator(
            AnalyticEvaluator(config=chaos_pipe.config), store={}, disk=store
        )
        with use(faults=FaultPlan(seed=13, crash=0.05, poison=poison)):
            chaos = search_candidates(
                chaos_pipe, memo, prune=True, batch_size=8
            )

        # the sweep completed, quarantining exactly the poison candidate
        failed = [(c, e) for c, e in chaos if e.failed]
        assert len(failed) == 1
        assert candidate_digest(failed[0][0]).startswith(poison)
        assert chaos_pipe.metrics.quarantined == 1

        # and the winner matches the fault-free exhaustive run
        chaos_best = min(chaos, key=lambda p: (p[1].cycles,))
        assert (
            chaos_best[0].strategy.decisions == ref_best[0].strategy.decisions
        )
        assert chaos_best[1].cycles == ref_best[1].cycles

        # the store only holds healthy entries and flushes cleanly
        store.flush()
        reloaded = PersistentEvalStore(cache_path)
        assert len(reloaded) == len(store)
