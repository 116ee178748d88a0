"""Admissibility of the pre-IR strategy bounds.

The branch-and-bound search is only allowed to prune a candidate when
its bound provably cannot beat the incumbent; these tests check the
"provably" part directly: over whole schedule spaces the bound (scaled
by the comparison slack ``BOUND_SAFETY``) never exceeds the predicted
score and never exceeds the measured score.  The same whole-space
walks check that the pre-IR legality check is exact and that the
allocs computed before IR cover exactly what the lowered IR touches.
"""

import numpy as np
import pytest

from repro.dsl import ScheduleSpace
from repro.dsl.schedule import ScheduleStrategy
from repro.engine import (
    BOUND_SAFETY,
    AnalyticEvaluator,
    CandidatePipeline,
    SimulatorEvaluator,
    definitely_infeasible,
    space_bounds,
    strategy_bound,
)
from repro.engine.bounds import VACUOUS, _DmaTerm
from repro.ir import DmaCgNode, GemmOpNode, walk
from repro.machine.config import default_config
from repro.ops import conv_explicit, conv_implicit, conv_winograd
from repro.ops import gemm as gemm_ops
from repro.ops.conv_common import ConvParams
from repro.ops.strided import decompose
from repro.scheduler import LoweringOptions, legal

from ..scheduler.test_lower import gemm_cd


def space_of(cd, splits):
    sp = ScheduleSpace(cd)
    sp.split("M", splits)
    sp.split("N", splits)
    sp.split("K", splits)
    return sp


SHAPES = [
    (128, 128, 128, [32, 64]),
    (96, 256, 64, [16, 32, 64]),
    (64, 192, 128, [16, 32, 64]),
]


class TestAdmissibilityVsPrediction:
    @pytest.mark.parametrize("m,n,k,splits", SHAPES)
    def test_bound_never_exceeds_predicted_score(self, m, n, k, splits):
        cd = gemm_cd(m, n, k)
        pipe = CandidatePipeline(cd, space_of(cd, splits))
        analytic = AnalyticEvaluator(config=pipe.config)
        checked = 0
        for cand in pipe.candidates():
            bound = strategy_bound(cd, cand.strategy, pipe.config)
            predicted = analytic.evaluate(cand).predicted_cycles
            assert bound.cycles * BOUND_SAFETY <= predicted, (
                f"inadmissible bound {bound.cycles} > {predicted} "
                f"for {cand.strategy.decisions}"
            )
            checked += 1
        assert checked > 0

    def test_bound_admissible_under_modified_machine(self):
        # a config whose DMA is twice as expensive and whose vmad
        # latency differs: both the bound and the model must move
        # together, with the inequality intact.
        cfg = default_config().with_overrides(
            dma_latency_cycles=3300,
            dram_peak_bw=17.0e9,
            latencies={**default_config().latencies, "vmad": 9},
        )
        cd = gemm_cd(96, 96, 96)
        pipe = CandidatePipeline(cd, space_of(cd, [32, 96]), config=cfg)
        analytic = AnalyticEvaluator(config=cfg)
        for cand in pipe.candidates():
            bound = strategy_bound(cd, cand.strategy, cfg)
            predicted = analytic.evaluate(cand).predicted_cycles
            assert bound.cycles * BOUND_SAFETY <= predicted


class TestAdmissibilityVsMeasurement:
    def test_bound_never_exceeds_measured_cycles(self):
        cd = gemm_cd(64, 64, 64)
        pipe = CandidatePipeline(cd, space_of(cd, [32, 64]))
        sim = SimulatorEvaluator()
        for cand in pipe.candidates():
            bound = strategy_bound(cd, cand.strategy, pipe.config)
            measured = sim.evaluate(cand).measured_cycles
            assert bound.cycles * BOUND_SAFETY <= measured


class TestBoundStructure:
    def test_bound_adds_serial_floor_to_the_overlap(self):
        cd = gemm_cd(128, 128, 128)
        strategy = ScheduleStrategy(
            {"tile:M": 64, "tile:N": 64, "tile:K": 64}
        )
        bound = strategy_bound(cd, strategy)
        # max(T - S, C) + S, computed as the equal max(T, C + S)
        assert bound.cycles == max(
            bound.dma_cycles, bound.compute_cycles + bound.serial_cycles
        )
        assert bound.cycles >= max(bound.dma_cycles, bound.compute_cycles)
        assert 0 < bound.serial_cycles < bound.dma_cycles
        assert bound.transfers > 0 and bound.dma_bytes > 0

    def test_fill_divides_by_the_largest_enclosing_trip_count(self):
        cd = gemm_cd(128, 128, 128)
        term = _DmaTerm(cd, default_config())
        # loops M, N, K with 4, 2 and 2 trips: A and B move 16 times
        # under all three, and C, hoisted above K, 8 times under M and
        # N.  Each divides by M's 4 trips, not by its innermost loop's
        # 2: a pipeline on M would hide all but a quarter of them.
        tiled = ScheduleStrategy({"tile:M": 32, "tile:N": 64, "tile:K": 64})
        assert term.counts(tiled) == [(16, 2, 4.0), (16, 4, 4.0), (8, 1, 2.0)]
        # nothing tiled: every tensor is hoisted above every loop and
        # moves once, all of it on the critical path -- nothing overlaps
        whole = ScheduleStrategy({"tile:M": 128, "tile:N": 128, "tile:K": 128})
        assert term.counts(whole) == [(1, 1, 1.0)] * 3
        bound = strategy_bound(cd, whole)
        assert bound.cycles == bound.compute_cycles + bound.serial_cycles

    def test_undecodable_strategy_gets_vacuous_bound(self):
        cd = gemm_cd(64, 64, 64)
        weird = ScheduleStrategy({"tile:M": "not-a-tile"})
        assert strategy_bound(cd, weird) == VACUOUS
        assert VACUOUS.serial_cycles == 0.0
        assert VACUOUS.cycles == 0.0  # never prunes

    def test_slow_variant_has_larger_compute_bound(self):
        cd = gemm_cd(128, 128, 128)
        base = {"tile:M": 64, "tile:N": 64, "tile:K": 64}
        fast = strategy_bound(
            cd,
            ScheduleStrategy(
                {**base, "vec_dim": "M",
                 "spm_layout:a": "col_major", "spm_layout:b": "col_major"}
            ),
        )
        slow = strategy_bound(
            cd,
            ScheduleStrategy(
                {**base, "vec_dim": "M",
                 "spm_layout:a": "row_major", "spm_layout:b": "col_major"}
            ),
        )
        assert slow.compute_cycles > fast.compute_cycles


def ir_alloc_shapes(kernel):
    """Per SPM buffer, the per-dimension maximum of the lengths the IR
    touches: every DMA access and every gemm operand view."""
    seen = {}

    def note(buffer, lens):
        cur = seen.setdefault(buffer, tuple(lens))
        seen[buffer] = tuple(max(a, b) for a, b in zip(cur, lens))

    for node in walk(kernel):
        if isinstance(node, DmaCgNode):
            note(node.spm, [length for _, length in node.access.dims])
        elif isinstance(node, GemmOpNode):
            note(node.a_spm, node.a_lens)
            note(node.b_spm, node.b_lens)
            note(node.c_spm, node.c_lens)
    return seen


def check_legal_and_allocs(pipe, strategy):
    """Realize one strategy; assert ``legal`` predicted the outcome and,
    when legal, that the raw kernel's allocs equal the IR walk."""
    cand = pipe.realize(strategy)
    verdict = legal(
        pipe.compute, strategy, options=pipe.options, config=pipe.config
    )
    assert verdict == (cand is not None), strategy.decisions
    if cand is not None:
        raw = pipe.lowerer.last_trace[-1].after  # build-loop-nest's output
        assert {a.name: a.shape for a in raw.allocs} == ir_alloc_shapes(raw)
    return cand


class TestSpmPrefilter:
    def test_never_rejects_a_lowerable_strategy(self):
        # a space that straddles the SPM capacity: ``legal`` must be
        # exactly "lowering succeeds", with and without double
        # buffering and on a quarter-size SPM
        cd = gemm_cd(512, 512, 512)
        sp = space_of(cd, [64, 256, 512])
        cfg = default_config()
        quarter = cfg.with_overrides(spm_bytes=cfg.spm_bytes // 4)
        settings = [
            (LoweringOptions(), cfg),
            (LoweringOptions(double_buffer=False), cfg),
            (LoweringOptions(), quarter),
        ]
        rejected = []
        for options, config in settings:
            pipe = CandidatePipeline(
                cd, sp, options=options, config=config,
                prefetch=options.double_buffer,
            )
            for strategy in pipe.strategies():
                check_legal_and_allocs(pipe, strategy)
            # every strategy decodes, so each rejection is an SPM overflow
            assert pipe.metrics.spm_pruned == pipe.stats.pruned
            assert pipe.stats.legal > 0
            rejected.append(pipe.stats.pruned)
        default, single, small = rejected
        assert single < default < small  # the default space straddles

    def test_small_tiles_are_not_flagged(self):
        cd = gemm_cd(128, 128, 128)
        strategy = ScheduleStrategy(
            {"tile:M": 32, "tile:N": 32, "tile:K": 32}
        )
        assert not definitely_infeasible(cd, strategy)


def _conv_space(module, params):
    return lambda: (module.make_compute(params), module.make_space(params))


def _strided_phase_space():
    params = ConvParams(batch=4, ni=16, no=32, ri=12, ci=12, kr=3, kc=3,
                        pad=1, stride=2)
    phase = decompose(params)[0].params
    return conv_implicit.make_compute(phase), conv_implicit.make_space(phase)


def _undecodable_space():
    # a tile decision declared through the escape hatch, half of whose
    # candidates the decoder cannot read
    cd = gemm_cd(128, 128, 128)
    sp = ScheduleSpace(cd)
    sp.split("N", [32, 128])
    sp.split("K", [16, 64])
    sp.choice("tile:M", (64, "not-a-tile"))
    sp.vectorize()
    return cd, sp


WHOLE_SPACES = {
    "gemm-512": lambda: (lambda cd: (cd, gemm_ops.make_space(cd)))(
        gemm_ops.make_compute(512, 512, 512)
    ),
    "implicit": _conv_space(
        conv_implicit, ConvParams(batch=8, ni=32, no=64, ri=10, ci=10, pad=1)
    ),
    "winograd": _conv_space(
        conv_winograd, ConvParams(batch=2, ni=64, no=128, ri=34, ci=34, pad=1)
    ),
    "explicit": _conv_space(
        conv_explicit, ConvParams(batch=2, ni=16, no=32, ri=10, ci=10)
    ),
    "strided-phase": _strided_phase_space,
    "undecodable": _undecodable_space,
}


class TestSpaceBounds:
    """The whole-space bound is the per-strategy bound, value for value,
    and its stable argsort is the search's (bound, index) order."""

    @pytest.mark.parametrize("kind", sorted(WHOLE_SPACES))
    def test_equals_strategy_bound_on_every_strategy(self, kind):
        cd, sp = WHOLE_SPACES[kind]()
        terms = [strategy_bound(cd, s) for s in sp.strategies()]
        per_strategy = [b.cycles for b in terms]
        bounds = space_bounds(cd, sp)
        assert bounds.dtype == np.float64
        assert bounds.tolist() == per_strategy
        # the serial floor really moves values the broadcast must match
        # (a strided phase is DMA-bound on every strategy)
        lifted = sum(b.cycles > max(b.dma_cycles, b.compute_cycles) for b in terms)
        assert lifted > 0 or kind in ("strided-phase", "undecodable")
        if kind == "undecodable":
            assert 0 < int((bounds == 0.0).sum()) < len(bounds)

        order = np.argsort(bounds, kind="stable").tolist()
        assert order == sorted(
            range(len(per_strategy)), key=lambda i: (per_strategy[i], i)
        )

    def test_equals_strategy_bound_under_modified_machine(self):
        cfg = default_config().with_overrides(
            dma_latency_cycles=3300,
            dram_peak_bw=17.0e9,
            latencies={**default_config().latencies, "vmad": 9},
        )
        cd = gemm_ops.make_compute(256, 384, 128)
        sp = gemm_ops.make_space(cd)
        assert space_bounds(cd, sp, cfg).tolist() == [
            strategy_bound(cd, s, cfg).cycles for s in sp.strategies()
        ]
        assert space_bounds(cd, sp, cfg).tolist() != space_bounds(cd, sp).tolist()


#: one layer of the model-conv benchmark workload, quick space
MODEL_CONV_LAYER = ConvParams(batch=16, ni=128, no=256, ri=4, ci=6, pad=1)

CONV_SPACES = {
    kind: WHOLE_SPACES[kind]
    for kind in ("implicit", "winograd", "explicit", "strided-phase")
}
CONV_SPACES["model-conv"] = lambda: (
    conv_implicit.make_compute(MODEL_CONV_LAYER),
    conv_implicit.make_space(MODEL_CONV_LAYER, quick=True),
)
#: one full space of the model-gemm benchmark workload
CONV_SPACES["gemm"] = lambda: (lambda cd: (cd, gemm_ops.make_space(cd)))(
    gemm_ops.make_compute(128, 128, 640)
)


def bound_vs_simulation(cd, sp, step):
    """Check the space bound of every ``step``-th strategy against its
    simulated cycles; returns how many strategies were checked."""
    pipe = CandidatePipeline(cd, sp)
    sim = SimulatorEvaluator()
    bounds = space_bounds(cd, sp, pipe.config)
    checked = 0
    for index in range(0, sp.size(), step):
        cand = pipe.realize(sp.strategy_at(index))
        if cand is None:
            continue
        measured = sim.evaluate(cand).measured_cycles
        assert bounds[index] * BOUND_SAFETY <= measured, (
            f"bound {bounds[index]} > simulated {measured} "
            f"for {cand.strategy.decisions}"
        )
        checked += 1
    return checked


def zero_waste_dma(bound, cfg):
    """The zero-waste DMA charge: fixed overheads once per transfer,
    every byte at peak bandwidth."""
    return (
        bound.transfers * (cfg.dma_latency_cycles + cfg.dma_issue_cycles)
        + bound.dma_bytes / cfg.dram_bytes_per_cycle
    )


class TestConvAdmissibility:
    """The transfer charge reads layouts and boundary tiles, which GEMM
    spaces barely exercise, and the serial floor reads where each
    transfer sits: check both over whole conv spaces and a whole
    model-gemm space."""

    @pytest.mark.parametrize("kind", sorted(CONV_SPACES))
    def test_bound_never_exceeds_predicted_score(self, kind):
        cd, sp = CONV_SPACES[kind]()
        pipe = CandidatePipeline(cd, sp)
        analytic = AnalyticEvaluator(config=pipe.config)
        bounds = space_bounds(cd, sp, pipe.config)
        checked = 0
        for index, strategy in enumerate(sp.strategies()):
            cand = check_legal_and_allocs(pipe, strategy)
            if cand is None:
                continue
            predicted = analytic.evaluate(cand).predicted_cycles
            assert bounds[index] * BOUND_SAFETY <= predicted, (
                f"inadmissible bound {bounds[index]} > {predicted} "
                f"for {strategy.decisions}"
            )
            checked += 1
        assert checked > 0

    def test_bound_never_exceeds_simulated_cycles(self):
        params = ConvParams(batch=4, ni=16, no=32, ri=6, ci=6, pad=1)
        # every 37th of 1536 strategies: all orders, layouts and
        # vectorizations, varied tiles
        assert bound_vs_simulation(
            conv_implicit.make_compute(params),
            conv_implicit.make_space(params),
            step=37,
        ) > 30

    def test_bound_never_exceeds_simulated_gemm_cycles(self):
        # every 11th of the 2048 strategies a pruned black-box search of
        # this model-gemm shape would rank on simulated cycles
        assert bound_vs_simulation(*CONV_SPACES["gemm"](), step=11) > 150

    @pytest.mark.parametrize(
        "kind", ["explicit", "gemm-512", "model-conv", "strided-phase", "winograd"]
    )
    def test_dma_term_at_least_zero_waste_term(self, kind):
        cd, sp = {**WHOLE_SPACES, **CONV_SPACES}[kind]()
        cfg = default_config()
        tighter = 0
        for strategy in sp.strategies():
            bound = strategy_bound(cd, strategy, cfg)
            flat = zero_waste_dma(bound, cfg)
            assert bound.dma_cycles >= flat
            tighter += bound.dma_cycles > flat
        # the transfer charge is what tightens the bound
        assert tighter > 0
