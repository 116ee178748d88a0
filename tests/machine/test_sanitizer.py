"""Unit tests for the machine sanitizer: the opt-in knobs and the SPM
plan introspection the error messages rely on."""

import pytest

from repro.machine.sanitizer import resolve_sanitize, sanitize_default, set_sanitize


@pytest.fixture(autouse=True)
def _reset_knob():
    yield
    set_sanitize(None)


class TestKnobs:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        set_sanitize(None)
        assert sanitize_default() is False
        assert resolve_sanitize(None) is False

    def test_env_enables(self, monkeypatch):
        set_sanitize(None)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_default() is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize_default() is False

    def test_set_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        set_sanitize(False)
        assert sanitize_default() is False
        set_sanitize(True)
        assert sanitize_default() is True

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        set_sanitize(False)
        assert resolve_sanitize(True) is True
        set_sanitize(True)
        assert resolve_sanitize(False) is False


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
