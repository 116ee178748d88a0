"""Tests for the automatic double-buffering pass."""

import pytest

from repro.dsl import ScheduleSpace
from repro.errors import IrError
from repro.ir import ForNode, walk
from repro.optimizer.dma_inference import infer_dma
from repro.optimizer.prefetch import (
    apply_prefetch,
    direct_stream_dmas,
    pipelined_loops,
)
from repro.scheduler import LoweringOptions, lower_strategy

from ..scheduler.test_lower import gemm_cd


def optimized_kernel(double_buffer=True, tm=64, tn=64, tk=32):
    cd = gemm_cd(128, 128, 128)
    sp = ScheduleSpace(cd)
    sp.split("M", [tm]); sp.split("N", [tn]); sp.split("K", [tk])
    kernel = lower_strategy(
        cd, sp.strategy(), options=LoweringOptions(double_buffer=double_buffer)
    )
    return cd, infer_dma(kernel, cd)


class TestApplyPrefetch:
    def test_streaming_loop_marked(self):
        cd, kernel = optimized_kernel()
        out = apply_prefetch(kernel)
        marked = pipelined_loops(out)
        assert marked
        assert any(l.var == "cK" for l in marked)

    def test_requires_double_buffer_allocation(self):
        cd, kernel = optimized_kernel(double_buffer=False)
        with pytest.raises(IrError):
            apply_prefetch(kernel)

    def test_loop_without_varying_dma_not_marked(self):
        """After hoisting, a loop whose transfers are all invariant has
        nothing to stream."""
        cd, kernel = optimized_kernel()
        out = apply_prefetch(kernel)
        for loop in pipelined_loops(out):
            dmas = direct_stream_dmas(loop)
            assert any(loop.var in d.access.variables() for d in dmas)

    def test_double_fill_body_not_pipelined(self):
        """Regression: a collapsed K loop with a peeled tail fills the
        same buffer twice per outer iteration -- prefetching both at
        iteration start would clobber the first tile (observed as a
        wrong 512x384x640 GEMM).  Such loops must stay synchronous."""
        import numpy as np

        from repro.codegen import compile_candidate
        from repro.scheduler import Candidate

        from repro.dsl import ScheduleSpace
        from repro.ops.gemm import make_compute

        compute = make_compute(512, 384, 640)
        sp = ScheduleSpace(compute)
        sp.split("M", [256]); sp.split("N", [128]); sp.split("K", [512])
        strat = sp.strategy()
        ck = compile_candidate(
            Candidate(strat, lower_strategy(compute, strat), compute)
        )
        for loop in pipelined_loops(ck.kernel):
            seen = set()
            for dma in direct_stream_dmas(loop):
                assert dma.spm not in seen
                seen.add(dma.spm)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((512, 640)).astype(np.float32)
        b = rng.standard_normal((640, 384)).astype(np.float32)
        out = ck.run({"A": a, "B": b}).outputs["C"]
        np.testing.assert_allclose(out, a @ b, rtol=1e-3, atol=1e-2)

    def test_idempotent(self):
        cd, kernel = optimized_kernel()
        once = apply_prefetch(kernel)
        twice = apply_prefetch(once)
        assert len(pipelined_loops(once)) == len(pipelined_loops(twice))

    def test_direct_dmas_stop_at_nested_loops(self):
        cd, kernel = optimized_kernel()
        out = apply_prefetch(kernel)
        outer = [
            n for n in walk(out)
            if isinstance(n, ForNode) and not n.pipelined
        ]
        for loop in outer:
            for dma in direct_stream_dmas(loop):
                # anything directly in a non-pipelined outer loop must be
                # loop-invariant leftovers (hoisted) or C traffic
                assert dma.spm in ("spm_a", "spm_b", "spm_c")

