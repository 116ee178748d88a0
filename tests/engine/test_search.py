"""Correctness guarantees of the branch-and-bound search.

The contract: pruning changes how much work tuning does, never what it
returns.  Winner and top-K must be bit-identical to the exhaustive
walk, for any machine config.
"""

import functools
import itertools

import numpy as np
import pytest

from repro.autotuner import tune_with_model
from repro.dsl import ScheduleSpace
from repro.engine import (
    AnalyticEvaluator,
    CandidatePipeline,
    PersistentEvalStore,
    search_candidates,
    strategy_bound,
)
from repro.engine import pipeline as pipeline_module
from repro.engine.search import PRUNE_SCHEDULE
from repro.machine.config import default_config
from repro.ops import conv_implicit
from repro.ops import gemm as gemm_ops
from repro.ops.conv_common import ConvParams
from repro.options import current, use

from ..scheduler.test_lower import gemm_cd
from .test_bounds import CONV_SPACES, WHOLE_SPACES
from .test_checkpoint import InterruptingEvaluator, banking


def make_pipeline(m, n, k, splits, config=None):
    cd = gemm_cd(m, n, k)
    sp = ScheduleSpace(cd)
    sp.split("M", splits)
    sp.split("N", splits)
    sp.split("K", splits)
    return CandidatePipeline(cd, sp, config=config)


SPACES = [
    (128, 128, 128, [32, 64, 128]),
    (96, 256, 64, [16, 32, 64]),
    (192, 64, 128, [32, 64]),
]


def strategies_of(pairs):
    return [tuple(sorted(c.strategy.decisions.items())) for c, _ in pairs]


class TestIdenticalResults:
    @pytest.mark.parametrize("m,n,k,splits", SPACES)
    @pytest.mark.parametrize("top_k", [1, 3])
    def test_winner_and_topk_match_exhaustive(self, m, n, k, splits, top_k):
        exhaustive = make_pipeline(m, n, k, splits)
        full = search_candidates(
            exhaustive, AnalyticEvaluator(config=exhaustive.config),
            top_k=top_k, prune=False,
        )
        pruned_pipe = make_pipeline(m, n, k, splits)
        pruned = search_candidates(
            pruned_pipe, AnalyticEvaluator(config=pruned_pipe.config),
            top_k=top_k, prune=True, batch_size=4,
        )
        assert pruned_pipe.metrics.bound_pruned > 0  # it really pruned

        def ranked(pairs):
            order = sorted(
                range(len(pairs)), key=lambda i: pairs[i][1].cycles
            )  # stable: enumeration order breaks ties, as the tuner does
            return [
                tuple(sorted(pairs[i][0].strategy.decisions.items()))
                for i in order[:top_k]
            ]

        assert ranked(pruned) == ranked(full)

    def test_identical_under_modified_machine(self):
        cfg = default_config().with_overrides(
            dma_latency_cycles=800, dram_peak_bw=68.0e9
        )
        full_pipe = make_pipeline(128, 128, 128, [32, 64, 128], config=cfg)
        full = search_candidates(
            full_pipe, AnalyticEvaluator(config=cfg), prune=False
        )
        pruned_pipe = make_pipeline(128, 128, 128, [32, 64, 128], config=cfg)
        pruned = search_candidates(
            pruned_pipe, AnalyticEvaluator(config=cfg), prune=True,
            batch_size=4,
        )
        best_full = min(full, key=lambda p: p[1].cycles)
        best_pruned = min(pruned, key=lambda p: p[1].cycles)
        assert (
            best_full[0].strategy.decisions == best_pruned[0].strategy.decisions
        )
        assert best_full[1].cycles == best_pruned[1].cycles

    def test_model_tuner_winner_identical(self):
        # a space larger than the first batch of PRUNE_SCHEDULE, so
        # the tuner-level path really prunes part of it
        cd = gemm_cd(128, 128, 128)
        sp = ScheduleSpace(cd)
        sp.split("M", [16, 32, 48, 64, 128])
        sp.split("N", [16, 32, 48, 64, 128])
        sp.split("K", [16, 32, 48, 64, 128])
        off = tune_with_model(cd, sp, run_best=False, prune=False)
        on = tune_with_model(cd, sp, run_best=False, prune=True)
        assert (
            off.best.candidate.strategy.decisions
            == on.best.candidate.strategy.decisions
        )
        assert off.best.predicted_cycles == on.best.predicted_cycles
        assert on.evaluated < off.evaluated  # and it was cheaper


class TestDeterminism:
    def test_results_are_in_enumeration_order(self):
        pipe = make_pipeline(128, 128, 128, [32, 64, 128])
        pairs = search_candidates(
            pipe, AnalyticEvaluator(config=pipe.config), prune=True,
            batch_size=4,
        )
        reference = make_pipeline(128, 128, 128, [32, 64, 128])
        enum_order = {
            tuple(sorted(c.strategy.decisions.items())): i
            for i, c in enumerate(reference.candidates())
        }
        positions = [enum_order[s] for s in strategies_of(pairs)]
        assert positions == sorted(positions)


class TestAccounting:
    def test_counters_partition_the_declared_space(self):
        pipe = make_pipeline(128, 128, 128, [32, 64, 128])
        pairs = search_candidates(
            pipe, AnalyticEvaluator(config=pipe.config), prune=True,
            batch_size=4,
        )
        # every declared strategy is exactly one of: scored, illegal
        # (incl. SPM overflow), or bound-pruned.
        assert pipe.stats.declared == (
            len(pairs) + pipe.stats.pruned + pipe.metrics.bound_pruned
        )
        assert pipe.metrics.spm_pruned <= pipe.stats.pruned
        assert pipe.metrics.bounds.count == pipe.stats.declared
        considered = sum(b.considered for b in pipe.metrics.prune_batches)
        assert considered == pipe.stats.declared
        assert (
            sum(b.pruned for b in pipe.metrics.prune_batches)
            == pipe.metrics.bound_pruned
        )

    def test_limit_forces_exhaustive_path(self):
        pipe = make_pipeline(128, 128, 128, [32, 64])
        pairs = search_candidates(
            pipe, AnalyticEvaluator(config=pipe.config), prune=True, limit=3
        )
        assert len(pairs) == 3
        assert pipe.metrics.bound_pruned == 0  # limit disables pruning


def pruned_by(argument, option):
    """How many strategies a search called with ``prune=argument``
    pruned under ``use(prune=option)``."""
    with use(prune=option):
        pipe = make_pipeline(128, 128, 128, [32, 64])
        search_candidates(
            pipe, AnalyticEvaluator(config=pipe.config), prune=argument,
            batch_size=1,
        )
    return pipe.metrics.bound_pruned


class TestGlobalDefault:
    def test_prune_option_round_trips(self):
        before = current()
        with use(prune=False):
            assert current().prune is False
            with use(prune=True):
                assert current().prune is True
            assert current().prune is False
        assert current() is before

    def test_explicit_argument_beats_option(self):
        assert pruned_by(True, False) > 0
        assert pruned_by(None, True) > 0
        assert pruned_by(False, True) == 0

    def test_search_honours_global_off(self):
        assert pruned_by(None, False) == 0


def per_strategy_bounds(compute, space, config):
    """The space bound as the search computed it before whole-space
    bounding: one :func:`strategy_bound` per enumerated strategy."""
    return np.array(
        [strategy_bound(compute, s, config).cycles for s in space.strategies()]
    )


ORACLE_CONV = ConvParams(batch=8, ni=64, no=128, ri=6, ci=6, pad=1)
ORACLE_SPACES = {
    "gemm": lambda: (lambda cd: (cd, gemm_ops.make_space(cd)))(
        gemm_ops.make_compute(128, 128, 640)
    ),
    "implicit": lambda: (
        conv_implicit.make_compute(ORACLE_CONV),
        conv_implicit.make_space(ORACLE_CONV, quick=True),
    ),
}


def oracle_run(kind, monkeypatch=None, evaluator=None, **kw):
    """One search over ``ORACLE_SPACES[kind]``; with ``monkeypatch`` the
    pipeline bounds the space strategy by strategy."""
    cd, sp = ORACLE_SPACES[kind]()
    pipe = CandidatePipeline(cd, sp)
    if monkeypatch is not None:
        monkeypatch.setattr(pipeline_module, "space_bounds", per_strategy_bounds)
    pairs = search_candidates(
        pipe, evaluator or AnalyticEvaluator(config=pipe.config),
        prune=True, **kw,
    )
    m = pipe.metrics
    return (
        [(tuple(sorted(c.strategy.decisions.items())), e.cycles)
         for c, e in pairs],
        m.bound_pruned, m.spm_pruned, m.prune_batches, len(pairs),
    )


class TestSpaceBoundOracle:
    """Searching by index over the whole-space bound takes exactly the
    strategies, counters and results the per-strategy path takes."""

    @pytest.mark.parametrize("kind", sorted(ORACLE_SPACES))
    @pytest.mark.parametrize("top_k", [1, 3])
    def test_same_search_as_per_strategy_bounds(self, kind, top_k, monkeypatch):
        new = oracle_run(kind, top_k=top_k)
        old = oracle_run(kind, monkeypatch, top_k=top_k)
        assert new == old
        assert new[1] > 0  # the bound really pruned

    def test_resume_mid_search_from_store(self, tmp_path, monkeypatch):
        path = tmp_path / "ev.json"
        # the search scores 9 strategies in batches of 4: the budget
        # banks one batch and interrupts the next
        with pytest.raises(KeyboardInterrupt):
            oracle_run(
                "implicit", batch_size=4,
                evaluator=banking(InterruptingEvaluator(budget=6), path),
            )
        banked = len(PersistentEvalStore(path))
        resumed = oracle_run(
            "implicit", batch_size=4,
            evaluator=banking(AnalyticEvaluator(), path),
        )
        assert 0 < banked < resumed[-1]  # it stopped mid-search
        assert oracle_run("implicit", monkeypatch, batch_size=4) == resumed


class TestGrowingSchedule:
    """The default search takes batches of ``PRUNE_SCHEDULE`` sizes, and
    an interrupted one, rerun over its eval store, takes the same
    batches."""

    def test_batches_follow_the_schedule(self):
        # 60 strategies scored in batches of 8, 16, 32 and a 4 cut at
        # the threshold, then the tail pruned in one step
        batches = oracle_run("gemm")[3]
        sizes = [b.considered for b in batches]
        assert sizes[:3] == list(PRUNE_SCHEDULE[:3])
        assert batches[-1].pruned == batches[-1].considered

    def test_resume_at_every_batch_boundary(self, tmp_path):
        clean = oracle_run("gemm")
        lowered = [b.lowered for b in clean[3] if b.lowered]
        assert len(lowered) >= 3
        for done, budget in enumerate(itertools.accumulate(lowered[:-1]), 1):
            path = tmp_path / f"ev{done}.json"
            with pytest.raises(KeyboardInterrupt):
                oracle_run(
                    "gemm",
                    evaluator=banking(InterruptingEvaluator(budget), path),
                )
            # it stopped at the boundary after ``done`` batches, each
            # flushed to the store
            assert len(PersistentEvalStore(path)) == budget
            inner = InterruptingEvaluator()
            resumed = oracle_run("gemm", evaluator=banking(inner, path))
            assert resumed == clean
            assert inner.done == clean[-1] - budget


#: the prune-on == prune-off gate: a model-gemm shape, the model-conv
#: quick space, a Winograd space and a strided phase
GATE_SPACES = {
    "gemm": ORACLE_SPACES["gemm"],
    "model-conv": CONV_SPACES["model-conv"],
    "winograd": WHOLE_SPACES["winograd"],
    "strided-phase": WHOLE_SPACES["strided-phase"],
}


def ranking(pairs):
    """``(decisions, cycles)`` of ``pairs`` stably sorted by cycles, as
    the tuner ranks them."""
    order = sorted(range(len(pairs)), key=lambda i: pairs[i][1].cycles)
    return [
        (tuple(sorted(pairs[i][0].strategy.decisions.items())),
         pairs[i][1].cycles)
        for i in order
    ]


@functools.lru_cache(maxsize=None)
def exhaustive_ranking(kind):
    cd, sp = GATE_SPACES[kind]()
    pipe = CandidatePipeline(cd, sp)
    return ranking(
        search_candidates(
            pipe, AnalyticEvaluator(config=pipe.config), prune=False
        )
    )


class TestWholeSpacePruneEquivalence:
    """Over whole spaces and under the default schedule, the pruned
    search returns the exhaustive walk's winner and top-K."""

    @pytest.mark.parametrize("kind", sorted(GATE_SPACES))
    @pytest.mark.parametrize("top_k", [1, 3])
    def test_winner_and_topk_match_prune_off(self, kind, top_k):
        cd, sp = GATE_SPACES[kind]()
        pipe = CandidatePipeline(cd, sp)
        pruned = search_candidates(
            pipe, AnalyticEvaluator(config=pipe.config), top_k=top_k,
            prune=True,
        )
        assert pipe.metrics.bound_pruned > 0  # it really pruned
        assert ranking(pruned)[:top_k] == exhaustive_ranking(kind)[:top_k]
