"""Verifier tests: deliberately-broken kernels, each caught with the
offending pass named in the diagnostic."""

import dataclasses

import pytest

from repro.dsl import ScheduleSpace
from repro.errors import PassVerificationError
from repro.ir import DmaCgNode, KernelNode, transform
from repro.ir.expr import AffineExpr
from repro.ir.nodes import TileAccess
from repro.passes import (
    FunctionPass,
    PassContext,
    PassManager,
    check_kernel,
    lowering_passes,
    optimize_passes,
)

from ..scheduler.test_lower import gemm_cd


def gemm_strategy(M=128, N=128, K=128, tm=64, tn=64, tk=64):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [tm])
    sp.split("N", [tn])
    sp.split("K", [tk])
    return cd, sp.strategy()


def run_with_breaker(breaker, *, optimize=False):
    """Lower (and optionally optimize) a healthy gemm, then run the
    breaker pass on the manager so the interleaved verifier sees its
    damage immediately."""
    cd, strategy = gemm_strategy()
    passes = list(lowering_passes())
    if optimize:
        passes += optimize_passes()
    passes.append(breaker)
    manager = PassManager(passes)
    ctx = PassContext(compute=cd, strategy=strategy)
    manager.run(ctx)


def rewrite_dmas(kernel: KernelNode, fn) -> KernelNode:
    out = transform(kernel, lambda n: fn(n) if isinstance(n, DmaCgNode) else None)
    assert isinstance(out, KernelNode)
    return out


class TestBrokenKernels:
    def test_dangling_buffer_reference(self):
        """A DMA retargeted at an undeclared SPM buffer is caught."""

        def dangle(ctx, kernel):
            return rewrite_dmas(
                kernel, lambda d: dataclasses.replace(d, spm="spm_ghost")
            )

        breaker = FunctionPass("break-dangle", dangle)
        with pytest.raises(PassVerificationError) as err:
            run_with_breaker(breaker)
        assert err.value.pass_name == "break-dangle"
        assert any("spm_ghost" in v for v in err.value.violations)

    def test_spm_over_capacity(self):
        """Inflating an alloc past the 64 KB scratchpad is caught once
        plan-spm has established the capacity invariant."""

        def inflate(ctx, kernel):
            allocs = [
                dataclasses.replace(a, shape=(4096, 4096))
                for a in kernel.allocs
            ]
            return dataclasses.replace(kernel, allocs=allocs)

        breaker = FunctionPass("break-capacity", inflate)
        with pytest.raises(PassVerificationError) as err:
            run_with_breaker(breaker)
        assert err.value.pass_name == "break-capacity"
        assert any("capacity" in v for v in err.value.violations)

    def test_double_buffer_phase_mismatch(self):
        """A pipelined loop streaming into a buffer whose double-buffer
        reservation was dropped is caught."""

        def drop_reservation(ctx, kernel):
            allocs = [
                dataclasses.replace(a, double_buffered=False)
                for a in kernel.allocs
            ]
            return dataclasses.replace(kernel, allocs=allocs)

        breaker = FunctionPass("break-phases", drop_reservation)
        with pytest.raises(PassVerificationError) as err:
            run_with_breaker(breaker, optimize=True)
        assert err.value.pass_name == "break-phases"
        assert any(
            "no double-buffer reservation" in v for v in err.value.violations
        )

    def test_malformed_loop_nest(self):
        """A DMA offset referencing a variable no enclosing loop binds
        is caught."""

        def unbind(ctx, kernel):
            def shift(d: DmaCgNode):
                (off, length), *rest = d.access.dims
                dims = ((off + AffineExpr.var("ghost_var"), length), *rest)
                return dataclasses.replace(
                    d, access=TileAccess(d.access.buffer, dims)
                )

            return rewrite_dmas(kernel, shift)

        breaker = FunctionPass("break-nesting", unbind)
        with pytest.raises(PassVerificationError) as err:
            run_with_breaker(breaker)
        assert err.value.pass_name == "break-nesting"
        assert any("ghost_var" in v for v in err.value.violations)


def dangle_dmas(ctx, kernel):
    return rewrite_dmas(kernel, lambda d: dataclasses.replace(d, spm="spm_ghost"))


def ghost_tensor_dmas(ctx, kernel):
    return rewrite_dmas(
        kernel,
        lambda d: dataclasses.replace(
            d, access=TileAccess("ghost_tensor", d.access.dims)
        ),
    )


def mid_pipeline(breaker, *rest, verify=True):
    """Lowering, then ``breaker``, then the optimizer passes (plus
    ``rest``), in one manager run."""
    cd, strategy = gemm_strategy()
    passes = [*lowering_passes(), breaker, *optimize_passes(), *rest]
    return PassManager(passes, verify=verify).run(
        PassContext(compute=cd, strategy=strategy)
    )


class TestVerifyOnce:
    """The manager checks only the final kernel, and re-checks the
    recorded per-pass outputs only when something fails."""

    def test_persisting_damage_names_its_source(self):
        """Damage done between plan-spm and infer-dma survives to the
        end of the run; the error names the breaker, not the last pass,
        with the violations a check right after the breaker finds."""
        breaker = FunctionPass("break-mid", dangle_dmas)
        with pytest.raises(PassVerificationError) as err:
            mid_pipeline(breaker)
        assert err.value.pass_name == "break-mid"
        assert err.value.__cause__ is None

        cd, strategy = gemm_strategy()
        ctx = PassContext(compute=cd, strategy=strategy)
        broken = PassManager([*lowering_passes(), breaker], verify=False).run(ctx)
        assert err.value.violations == check_kernel(
            broken, compute=cd, established=ctx.established
        )
        assert any("spm_ghost" in v for v in err.value.violations)

    def test_later_pass_failure_names_the_breaker(self):
        """Damage that makes a later pass raise is reported as a
        verification error of the breaker, chained from the later
        pass's exception."""
        breaker = FunctionPass("break-tensor", ghost_tensor_dmas)
        with pytest.raises(Exception) as plain:
            mid_pipeline(breaker, verify=False)
        assert not isinstance(plain.value, PassVerificationError)

        with pytest.raises(PassVerificationError) as err:
            mid_pipeline(breaker)
        assert err.value.pass_name == "break-tensor"
        assert any("ghost_tensor" in v for v in err.value.violations)
        cause = err.value.__cause__
        assert type(cause) is type(plain.value)
        assert cause.args == plain.value.args

    def test_pass_failure_after_clean_passes_propagates(self):
        def explode(ctx, kernel):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            mid_pipeline(FunctionPass("no-op", lambda ctx, k: None),
                         FunctionPass("explode", explode))

    def test_repaired_damage_is_not_reported(self):
        """Only IR a consumer can see is checked: a violation a later
        pass undoes before the end of the run goes unreported."""
        saved = {}

        def dangle(ctx, kernel):
            saved["kernel"] = kernel
            return dangle_dmas(ctx, kernel)

        cd, strategy = gemm_strategy()
        passes = [
            *lowering_passes(),
            FunctionPass("break", dangle),
            FunctionPass("repair", lambda ctx, k: saved["kernel"]),
        ]
        PassManager(passes).run(PassContext(compute=cd, strategy=strategy))


class TestCheckKernel:
    def test_healthy_pipeline_is_clean(self):
        cd, strategy = gemm_strategy()
        manager = PassManager([*lowering_passes(), *optimize_passes()])
        kernel = manager.run(PassContext(compute=cd, strategy=strategy))
        assert check_kernel(kernel, compute=cd) == []

    def test_raw_kernel_skips_ungated_invariants(self):
        """Before DMA inference runs, missing geometry is not a
        violation -- the invariant is established, not assumed."""
        cd, strategy = gemm_strategy()
        kernel = PassManager(lowering_passes()).run(
            PassContext(compute=cd, strategy=strategy)
        )
        assert check_kernel(kernel, compute=cd, established=()) == []
        # but a finished kernel must hold everything
        assert any(
            "no" in v and "geometry" in v
            for v in check_kernel(kernel, compute=cd)
        )
