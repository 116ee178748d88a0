"""Unit tests for the machine sanitizer: the opt-in knobs and the SPM
plan introspection the error messages rely on."""

from repro.codegen import CompiledKernel
from repro.options import TuneOptions, current, use


def plain_kernel(**kwargs):
    from repro.codegen import compile_candidate
    from repro.dsl import ScheduleSpace
    from repro.scheduler import Candidate, lower_strategy
    from ..scheduler.test_lower import gemm_cd

    cd = gemm_cd(64, 64, 64)
    sp = ScheduleSpace(cd)
    sp.split("M", [32]); sp.split("N", [32]); sp.split("K", [32])
    strat = sp.strategy()
    ck = compile_candidate(Candidate(strat, lower_strategy(cd, strat), cd))
    return CompiledKernel(ck.kernel, cd, **kwargs)


class TestKnobs:
    def test_default_off(self):
        assert TuneOptions.from_env({}).sanitize is False
        with use(sanitize=False):
            assert plain_kernel().sanitize is False

    def test_env_enables(self):
        assert TuneOptions.from_env({"REPRO_SANITIZE": "1"}).sanitize is True
        assert TuneOptions.from_env({"REPRO_SANITIZE": "yes"}).sanitize is True
        assert TuneOptions.from_env({"REPRO_SANITIZE": "0"}).sanitize is False
        assert TuneOptions.from_env({"REPRO_SANITIZE": ""}).sanitize is False

    def test_set_overrides_env(self):
        base = TuneOptions.from_env({"REPRO_SANITIZE": "1"})
        with use(**vars(base)):
            with use(sanitize=False):
                assert current().sanitize is False
                assert plain_kernel().sanitize is False
            with use(sanitize=True):
                assert plain_kernel().sanitize is True

    def test_explicit_argument_wins(self):
        with use(sanitize=False):
            assert plain_kernel(sanitize=True).sanitize is True
        with use(sanitize=True):
            assert plain_kernel(sanitize=False).sanitize is False


class TestSpmPlanIntrospection:
    def test_buffer_at_maps_offsets_to_names(self):
        from repro.scheduler import lower_strategy, Candidate
        from repro.codegen import compile_candidate
        from repro.dsl import ScheduleSpace
        from ..scheduler.test_lower import gemm_cd

        cd = gemm_cd(64, 64, 64)
        sp = ScheduleSpace(cd)
        sp.split("M", [32]); sp.split("N", [32]); sp.split("K", [32])
        strat = sp.strategy()
        ck = compile_candidate(Candidate(strat, lower_strategy(cd, strat), cd))
        plan = ck.spm_plan
        for name, buf in plan.buffers.items():
            assert plan.buffer_at(buf.offset) == name
            assert plan.buffer_at(buf.offset + buf.reserved_bytes - 1) == name
        end = max(b.offset + b.reserved_bytes for b in plan.buffers.values())
        assert plan.buffer_at(end) is None
        assert plan.buffer_at(-1) is None
