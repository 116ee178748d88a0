"""Golden tests: the staged pass pipeline is a refactor, not a rewrite.

``reference_lower_strategy`` is the frozen pre-pipeline monolith and
``infer_dma``/``apply_prefetch`` its optimizer tail; for every strategy
of a fixed set the pipeline must produce **bit-identical** IR (the
nodes are dataclasses, so ``==`` is deep structural equality) and the
tuner's ranking over the space must be unchanged.

``reference_lower_strategy`` shares the loop builder with the pipeline,
so the builder's own rewrites are pinned separately: a copy of the
builder that collapsed trip-count-1 loops by substituting zero for the
loop index must produce the same IR over whole GEMM and convolution
spaces.
"""

from typing import Dict, List

import pytest

from repro.dsl import ScheduleSpace
from repro.engine import AnalyticEvaluator, CandidatePipeline
from repro.errors import IllegalCandidateError
from repro.ir.expr import AffineExpr
from repro.ir.nodes import DmaCgNode, ForNode, Node, SeqNode, TileAccess
from repro.ops import conv_explicit, conv_implicit, conv_winograd
from repro.ops import gemm as gemm_ops
from repro.ops.conv_common import ConvParams
from repro.ops.strided import decompose
from repro.optimizer import apply_prefetch, infer_dma
from repro.passes import lowering as lowering_module
from repro.scheduler import lower_strategy, reference_lower_strategy
from repro.scheduler.enumerate import Candidate
from repro.scheduler.lower import _KernelBuilder, _tile_sizes

from ..scheduler.test_lower import conv_cd, gemm_cd


def gemm_space(M=128, N=128, K=96):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [32, 64])
    sp.split("N", [32, 128])
    sp.split("K", [48, 96])  # 48 leaves no tail, 96 is untiled
    sp.vectorize()
    return cd, sp


def conv_space():
    cd = conv_cd()
    sp = ScheduleSpace(cd)
    sp.split("No", [8, 16])
    sp.split("Co", [4, 8])
    sp.split("Ni", [4, 8])
    sp.split("Kr", [1])  # kernel axes iterate point-wise
    sp.split("Kc", [1])
    return cd, sp


def reference_compile(cd, strategy, *, prefetch=True):
    kernel = reference_lower_strategy(cd, strategy)
    kernel = infer_dma(kernel, cd)
    if prefetch:
        kernel = apply_prefetch(kernel)
    return kernel


@pytest.mark.parametrize("make_space", [gemm_space, conv_space])
class TestBitIdenticalIr:
    def test_lowering_matches_reference(self, make_space):
        cd, sp = make_space()
        checked = 0
        for strategy in sp.strategies():
            try:
                expected = reference_lower_strategy(cd, strategy)
            except IllegalCandidateError:
                with pytest.raises(IllegalCandidateError):
                    lower_strategy(cd, strategy)
                continue
            assert lower_strategy(cd, strategy) == expected
            checked += 1
        assert checked > 0

    def test_full_pipeline_matches_reference(self, make_space):
        cd, sp = make_space()
        pipe = CandidatePipeline(cd)
        checked = 0
        for strategy in sp.strategies():
            try:
                expected = reference_compile(cd, strategy)
            except IllegalCandidateError:
                continue
            assert pipe.prepare(strategy).kernel == expected
            checked += 1
        assert checked > 0


class TestTunerPicksUnchanged:
    def test_analytic_ranking_matches_reference(self):
        cd, sp = gemm_space()
        evaluator = AnalyticEvaluator()

        pipeline_scores = {}
        for cand in CandidatePipeline(cd, sp).candidates():
            key = tuple(sorted(cand.strategy.decisions.items()))
            pipeline_scores[key] = evaluator.evaluate(cand).cycles

        from repro.scheduler.enumerate import Candidate

        reference_scores = {}
        for strategy in sp.strategies():
            try:
                kernel = reference_compile(cd, strategy)
            except IllegalCandidateError:
                continue
            key = tuple(sorted(strategy.decisions.items()))
            cand = Candidate(strategy=strategy, kernel=kernel, compute=cd)
            reference_scores[key] = evaluator.evaluate(cand).cycles

        assert pipeline_scores == reference_scores
        best = min(pipeline_scores, key=pipeline_scores.__getitem__)
        ref_best = min(reference_scores, key=reference_scores.__getitem__)
        assert best == ref_best


# ---------------------------------------------------------------------------
# trip-count-1 loops: built collapsed == built indexed, then substituted
# ---------------------------------------------------------------------------
def _substitute_var(node: Node, var: str, value: int) -> Node:
    """Bind a loop variable to a constant throughout a subtree (used
    when collapsing trip-count-1 loops)."""
    from repro.ir.visitors import transform

    def rewrite(n: Node):
        if isinstance(n, DmaCgNode):
            dims = tuple(
                (off.substitute({var: value}), length)
                for off, length in n.access.dims
            )
            return DmaCgNode(
                access=TileAccess(n.access.buffer, dims),
                spm=n.spm,
                direction=n.direction,
                reply=n.reply,
                geometry=n.geometry,
                phase_var=n.phase_var,
            )
        return None

    return transform(node, rewrite)


class _SubstitutingBuilder(_KernelBuilder):
    """The loop builder as it was before trip-count-1 loops were
    collapsed at construction: build the body with the loop index, then
    substitute zero for it throughout the subtree."""

    def _loop_over_axis(
        self,
        level: int,
        offsets: Dict[str, AffineExpr],
        lens: Dict[str, int],
        *,
        in_reduction: bool = False,
    ) -> Node:
        axis = self.order[level]
        extent = self.compute.axes[axis].extent
        tile = self.tiles[axis]
        full_trips, tail = divmod(extent, tile)
        next_level = (
            self._loop_over_reductions if in_reduction else self._build_level
        )

        nodes: List[Node] = []
        if full_trips > 0:
            var = f"c{axis}"
            off = offsets | {axis: AffineExpr.var(var) * tile}
            body = next_level(level + 1, off, lens | {axis: tile})
            if full_trips == 1:
                # trip-count-1 loops collapse: bind the index to zero
                body = _substitute_var(body, var, 0)
                nodes.append(body)
            else:
                nodes.append(ForNode(var, full_trips, body))
        if tail > 0:
            # boundary region: the peeled remainder iteration
            off = offsets | {axis: AffineExpr(full_trips * tile)}
            nodes.append(next_level(level + 1, off, lens | {axis: tail}))
        if len(nodes) == 1:
            return nodes[0]
        return SeqNode(nodes)


def _strided_phase_space():
    params = ConvParams(batch=2, ni=8, no=8, ri=12, ci=12, kr=3, kc=3,
                        pad=1, stride=2)
    phase = decompose(params)[0].params
    return conv_implicit.make_compute(phase), conv_implicit.make_space(phase)


def _op_space(module, params):
    return lambda: (module.make_compute(params), module.make_space(params))


COLLAPSE_SPACES = {
    "gemm": lambda: (lambda cd: (cd, gemm_ops.make_space(cd)))(
        gemm_ops.make_compute(72, 40, 56)
    ),
    "implicit": _op_space(
        conv_implicit, ConvParams(batch=1, ni=8, no=16, ri=8, ci=8, pad=1)
    ),
    "winograd": _op_space(
        conv_winograd, ConvParams(batch=1, ni=64, no=64, ri=34, ci=34)
    ),
    "explicit": _op_space(
        conv_explicit, ConvParams(batch=1, ni=4, no=8, ri=8, ci=8)
    ),
    "strided": _strided_phase_space,
}


@pytest.mark.parametrize("kind", sorted(COLLAPSE_SPACES))
def test_collapsed_loops_match_substitution(kind, monkeypatch):
    """Every strategy of the space lowers to the same IR whether a
    trip-count-1 loop is built with offset zero or built with its index
    and then substituted, both raw and after the optimizer passes."""
    cd, sp = COLLAPSE_SPACES[kind]()
    pipe = CandidatePipeline(cd)
    checked = collapsed = 0
    for strategy in sp.strategies():
        with monkeypatch.context() as m:
            m.setattr(lowering_module, "_KernelBuilder", _SubstitutingBuilder)
            try:
                expected = lower_strategy(cd, strategy)
            except IllegalCandidateError:
                with pytest.raises(IllegalCandidateError):
                    lower_strategy(cd, strategy)
                continue
        kernel = lower_strategy(cd, strategy)
        assert kernel == expected, strategy
        optimized = pipe.optimize(Candidate(strategy, kernel, cd)).kernel
        assert optimized == pipe.optimize(Candidate(strategy, expected, cd)).kernel
        checked += 1
        collapsed += any(
            cd.axes[ax].extent // tile == 1
            for ax, tile in _tile_sizes(cd, strategy).items()
        )
    assert checked > 0 and collapsed > 0
