"""PassManager tests: instrumentation, metrics, dump hooks, failure
semantics."""

import io

import pytest

from repro.dsl import ScheduleSpace
from repro.engine import CandidatePipeline, EngineMetrics
from repro.errors import IllegalCandidateError, PassVerificationError
from repro.passes import (
    FunctionPass,
    IrDump,
    PassContext,
    PassManager,
    lowering_passes,
    optimize_passes,
)
from repro.options import use

from ..scheduler.test_lower import gemm_cd


def gemm_setup(M=128, N=128, K=128, tm=64, tn=64, tk=64):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [tm])
    sp.split("N", [tn])
    sp.split("K", [tk])
    return cd, sp.strategy()


class TestInstrumentation:
    def test_trace_records_every_pass(self):
        cd, strategy = gemm_setup()
        manager = PassManager([*lowering_passes(), *optimize_passes()])
        manager.run(PassContext(compute=cd, strategy=strategy))
        names = [r.name for r in manager.last_trace]
        assert names == [
            "decode-strategy", "plan-spm", "build-loop-nest",
            "infer-dma", "hoist-dma", "prefetch", "analyze-boundary",
        ]
        for r in manager.last_trace:
            assert r.seconds >= 0
        # legality is decided before any IR; the builder materialises
        # the tree out of nothing
        assert manager.last_trace[1].nodes_after == 0
        build = manager.last_trace[2]
        assert build.nodes_before == 0 and build.nodes_after > 0
        # hoisting only ever moves or removes transfers
        hoist = manager.last_trace[4]
        assert hoist.delta <= 0
        assert "nodes" in build.describe()

    def test_metrics_record_stage_and_passes(self):
        cd, strategy = gemm_setup()
        metrics = EngineMetrics()
        manager = PassManager(
            lowering_passes(), metrics=metrics, stage="lowering"
        )
        manager.run(PassContext(compute=cd, strategy=strategy))
        assert metrics.lowering.count == 1
        assert metrics.lowering.seconds > 0
        assert set(metrics.passes) == {
            "decode-strategy", "build-loop-nest", "plan-spm", "verify"
        }
        assert all(s.count == 1 for s in metrics.passes.values())
        assert "lower" in metrics.describe()
        assert "plan-spm" in metrics.describe_passes()

    def test_pass_metrics_merge(self):
        cd, strategy = gemm_setup()
        a, b = EngineMetrics(), EngineMetrics()
        for m in (a, b):
            PassManager(lowering_passes(), metrics=m, stage="lowering").run(
                PassContext(compute=cd, strategy=strategy)
            )
        a.merge(b)
        assert a.lowering.count == 2
        assert a.passes["plan-spm"].count == 2

    def test_established_invariants_accumulate(self):
        cd, strategy = gemm_setup()
        ctx = PassContext(compute=cd, strategy=strategy)
        PassManager([*lowering_passes(), *optimize_passes()]).run(ctx)
        assert {"spm-plan", "dma-geometry"} <= ctx.established


    def test_realize_verifies_twice_and_counts_nothing(self, monkeypatch):
        """A healthy candidate costs one verifier call per manager run
        (lowering, optimization) and no node counting at all."""
        import sys

        import repro.ir.visitors
        import repro.passes.verifier

        calls = {"check_kernel": 0, "count_nodes": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            # rebind every repro module that imported the function
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and (
                    getattr(mod, name, None) is original
                ):
                    monkeypatch.setattr(mod, name, wrapper)

        counting(repro.passes.verifier, "check_kernel")
        counting(repro.ir.visitors, "count_nodes")
        cd, strategy = gemm_setup()
        pipe = CandidatePipeline(cd)
        assert pipe.realize(strategy) is not None
        assert calls == {"check_kernel": 2, "count_nodes": 0}
        assert pipe.metrics.passes["verify"].count == 2
        # the trace still counts on demand
        assert pipe.optimizer.last_trace[0].nodes_after > 0
        assert calls["count_nodes"] > 0


class TestFailureSemantics:
    def test_illegal_candidate_propagates_but_charges_stage(self):
        # untiled 512^3: the SPM plan overflows the 64 KB scratchpad
        cd, strategy = gemm_setup(512, 512, 512, tm=512, tn=512, tk=512)
        metrics = EngineMetrics()
        manager = PassManager(
            lowering_passes(), metrics=metrics, stage="lowering"
        )
        with pytest.raises(IllegalCandidateError):
            manager.run(PassContext(compute=cd, strategy=strategy))
        # pruned strategies still cost lowering time; Tab. 3 must see it
        assert metrics.lowering.count == 1

    def test_empty_result_is_a_verification_error(self):
        cd, strategy = gemm_setup()
        analysis_only = FunctionPass("analyze-nothing", lambda ctx, k: None)
        with pytest.raises(PassVerificationError) as err:
            PassManager([analysis_only]).run(
                PassContext(compute=cd, strategy=strategy)
            )
        assert err.value.pass_name == "analyze-nothing"

    def test_verify_false_skips_checks(self):
        import dataclasses

        cd, strategy = gemm_setup()

        def dangle(ctx, kernel):
            return dataclasses.replace(kernel, allocs=[])

        passes = [*lowering_passes(), FunctionPass("break", dangle)]
        with pytest.raises(PassVerificationError):
            PassManager(passes).run(PassContext(compute=cd, strategy=strategy))
        # same damage, verification off: no error
        PassManager(passes, verify=False).run(
            PassContext(compute=cd, strategy=strategy)
        )


class TestDumpIr:
    def test_dump_all_prints_every_pass(self):
        cd, strategy = gemm_setup()
        buf = io.StringIO()
        with use(dump_ir=IrDump("all", stream=buf)):
            PassManager([*lowering_passes(), *optimize_passes()]).run(
                PassContext(compute=cd, strategy=strategy)
            )
        text = buf.getvalue()
        assert "IR after pass 'build-loop-nest'" in text
        assert "IR before pass 'prefetch'" in text
        assert "kernel gemm" in text  # printer output, not just headers

    def test_dump_filters_by_pass_name(self):
        cd, strategy = gemm_setup()
        buf = io.StringIO()
        with use(dump_ir=IrDump("prefetch", stream=buf)):
            PassManager([*lowering_passes(), *optimize_passes()]).run(
                PassContext(compute=cd, strategy=strategy)
            )
        text = buf.getvalue()
        assert "IR after pass 'prefetch'" in text
        assert "build-loop-nest" not in text

    def test_dump_limit_caps_runs(self):
        cd, strategy = gemm_setup()
        buf = io.StringIO()
        manager = PassManager(lowering_passes())
        with use(dump_ir=IrDump("all", limit=1, stream=buf)):
            manager.run(PassContext(compute=cd, strategy=strategy))
            first = buf.getvalue()
            manager.run(PassContext(compute=cd, strategy=strategy))
        assert buf.getvalue() == first  # second run not dumped

    def test_nothing_dumped_outside_the_scope(self):
        cd, strategy = gemm_setup()
        buf = io.StringIO()
        with use(dump_ir=IrDump("all", stream=buf)):
            pass
        PassManager(lowering_passes()).run(
            PassContext(compute=cd, strategy=strategy)
        )
        assert buf.getvalue() == ""


class TestPipelineStages:
    def test_prepare_charges_lowering_not_enumeration(self):
        """The satellite fix: replay compiles used to be mis-charged to
        the enumeration stage."""
        cd, strategy = gemm_setup()
        pipe = CandidatePipeline(cd)
        pipe.prepare(strategy)
        assert pipe.metrics.enumeration.count == 0
        assert pipe.metrics.enumeration.seconds == 0
        assert pipe.metrics.lowering.count == 1
        assert pipe.metrics.lowering.seconds > 0
        assert pipe.metrics.optimization.count == 1

    def test_candidates_split_enumeration_and_lowering(self):
        cd = gemm_cd()
        sp = ScheduleSpace(cd)
        sp.split("M", [32, 64])
        sp.split("N", [32, 64])
        sp.split("K", [32, 64])
        pipe = CandidatePipeline(cd, sp)
        cands = list(pipe.candidates())
        assert pipe.metrics.enumeration.count == pipe.stats.declared == 8
        # every declared strategy was lowered (legal or pruned)
        assert pipe.metrics.lowering.count == pipe.stats.declared
        assert pipe.metrics.optimization.count == len(cands)
        assert pipe.metrics.passes["decode-strategy"].count == 8
