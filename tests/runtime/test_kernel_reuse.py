"""Compile once, serve many: a warm :class:`AtopLibrary` hit runs the
kernels its earlier calls compiled -- no lowering, no optimizer or
verifier pass, no new :class:`CompiledKernel` -- and gets exactly the
outputs and reports a library that compiles afresh gets.  Stored
kernels are never served for a quarantined or overwritten entry or
under another sanitize mode; the trust gate certifies every phase of a
strided conv and goes stale with the code."""

import numpy as np
import pytest

from repro import persist
from repro.codegen.executor import CompiledKernel
from repro.dsl.schedule import ScheduleStrategy
from repro.engine import validation_digest
from repro.faults import FaultPlan, compute_digest
from repro.ops.conv_common import ConvParams
from repro.ops.gemm import make_compute as gemm_compute
from repro.options import use
from repro.passes.manager import PassManager
from repro.runtime import AtopLibrary, KernelFallbackWarning, TunedEntry

UNIT = ConvParams(batch=4, ni=16, no=16, ri=6, ci=6, kr=3, kc=3, pad=1)
STRIDED = ConvParams(batch=4, ni=16, no=16, ri=10, ci=10, kr=3, kc=3,
                     pad=1, stride=2)


def _conv(params, method=None, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(params.input_shape).astype(np.float32)
    w = rng.standard_normal(params.weight_shape).astype(np.float32)
    return lambda lib: lib.conv2d(x, w, params, method=method)


def _gemm(m=40, n=32, k=24, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    return lambda lib: lib.gemm(a, b)


CALLS = {
    "implicit": lambda: _conv(UNIT, "implicit"),
    "explicit": lambda: _conv(UNIT, "explicit"),
    "winograd": lambda: _conv(UNIT, "winograd"),
    "strided": lambda: _conv(STRIDED),
    "gemm": lambda: _gemm(),
}


@pytest.fixture
def counted(monkeypatch):
    """Counts of kernel constructions and pass-manager runs, and the
    kernels that ran, while the test body executes."""
    counts = {"compiled": 0, "passes": 0, "ran": []}
    init, run, passes = CompiledKernel.__init__, CompiledKernel.run, PassManager.run

    def counting_init(self, *args, **kwargs):
        counts["compiled"] += 1
        init(self, *args, **kwargs)

    def recording_run(self, feeds):
        counts["ran"].append(self)
        return run(self, feeds)

    def counting_passes(self, *args, **kwargs):
        counts["passes"] += 1
        return passes(self, *args, **kwargs)

    monkeypatch.setattr(CompiledKernel, "__init__", counting_init)
    monkeypatch.setattr(CompiledKernel, "run", recording_run)
    monkeypatch.setattr(PassManager, "run", counting_passes)

    def reset():
        counts.update(compiled=0, passes=0, ran=[])
        return counts

    return reset


@pytest.fixture(autouse=True)
def _plain_machine():
    with use(sanitize=False):
        yield


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_warm_hits_compile_nothing_and_match_a_fresh_compile(kind, counted):
    call = CALLS[kind]()
    lib = AtopLibrary(quick=True)
    call(lib)  # cold: tunes, and keeps what it compiled
    assert lib.stats.tuned == 1
    counts = counted()
    warm = [call(lib) for _ in range(3)]
    assert counts["compiled"] == 0 and counts["passes"] == 0
    assert lib.stats.cache_hits == 3 and lib.stats.tuned == 1

    fresh = AtopLibrary(quick=True)
    fresh.cache = lib.cache  # same entries, empty kernel store
    again = call(fresh)
    assert counts["compiled"] > 0 and fresh.stats.tuned == 0
    for run in warm:
        assert run.report == again.report
        np.testing.assert_array_equal(run.output, again.output)


def test_warm_hits_reuse_one_kernel_per_shard_shape(counted):
    lib = AtopLibrary(quick=True)
    call = CALLS["explicit"]()
    call(lib)
    counts = counted()
    call(lib)
    (compiled,) = lib._compiled.values()
    (kernel,) = compiled.kernels.values()  # four shards of one shape
    assert len(counts["ran"]) == 4
    assert all(ck is kernel for ck in counts["ran"])


def test_quarantined_key_never_serves_a_stored_kernel(counted):
    """A kernel quarantined for a wrong output is dropped: once the
    fault clears, the key re-tunes and runs newly compiled kernels."""
    lib = AtopLibrary(quick=True, validate="off")
    call = _gemm(64, 32, 48)
    call(lib)  # tuned unvalidated: the next validated hit checks it
    key = lib.gemm_key(64, 32, 48)
    stale = list(lib._compiled[key].kernels.values())
    lib.validate = "all"
    poison = FaultPlan(poison=compute_digest(gemm_compute(64, 32, 48))[:12])
    with use(faults=poison), pytest.warns(KernelFallbackWarning):
        assert call(lib).fallback_reason is not None
    assert key not in lib.cache and key not in lib._compiled
    counts = counted()
    assert call(lib).fallback_reason is None
    assert lib.stats.tuned == 2
    assert counts["ran"] and not any(
        ck is old for ck in counts["ran"] for old in stale
    )


def test_overwritten_key_never_serves_a_stored_kernel(counted):
    lib = AtopLibrary(quick=True)
    call = _gemm()
    call(lib)
    key = lib.gemm_key(40, 32, 24)
    stale = list(lib._compiled[key].kernels.values())
    entry = lib.cache.get(key)
    lib.cache.put(key, TunedEntry(strategy=entry.strategy), overwrite=True)
    counts = counted()
    call(lib)
    assert counts["compiled"] == 1
    assert not any(ck is old for ck in counts["ran"] for old in stale)


def test_kernels_of_another_sanitize_mode_are_not_served(counted):
    lib = AtopLibrary(quick=True)
    call = CALLS["implicit"]()
    call(lib)
    with use(sanitize=True):
        counts = counted()
        call(lib)
        assert counts["compiled"] > 0
        assert counts["ran"] and all(ck.sanitize for ck in counts["ran"])
        counts = counted()
        call(lib)  # the sanitized kernels are kept in turn
        assert counts["compiled"] == 0


class TestStridedTrustGate:
    def keys(self, lib):
        return sorted(k for k in lib.cache.keys() if k.startswith("conv:strided:"))

    def test_cold_call_is_certified_and_stamps_every_phase(self):
        lib = AtopLibrary(quick=True, validate="all")
        call = _conv(STRIDED)
        assert call(lib).fallback_reason is None
        assert lib.stats.validations == 1
        keys = self.keys(lib)
        assert len(keys) == 4
        for key in keys:
            entry = lib.cache._entries[key]
            assert entry.validation_digest == validation_digest(key, entry.strategy)
        call(lib)
        assert lib.stats.cache_hits == 1 and lib.stats.validations == 1

    def test_edited_phase_strategy_revalidates(self):
        lib = AtopLibrary(quick=True, validate="all")
        call = _conv(STRIDED)
        call(lib)
        key = self.keys(lib)[1]
        old = lib.cache._entries[key]
        vec_dim = "N" if old.strategy["vec_dim"] == "M" else "M"
        edited = ScheduleStrategy({**old.strategy.decisions, "vec_dim": vec_dim})
        lib.cache.put(
            key,
            TunedEntry(strategy=edited, validation_digest=old.validation_digest),
            overwrite=True,
        )
        assert call(lib).fallback_reason is None
        assert lib.stats.validations == 2
        assert lib.cache._entries[key].validation_digest == validation_digest(
            key, edited
        )


def test_code_change_makes_certified_digest_stale(monkeypatch):
    """The validation digest folds in the code salt: a certified entry
    revalidates on its first hit under other code."""
    lib = AtopLibrary(quick=True, validate="all")
    call = _gemm()
    call(lib)
    call(lib)
    assert lib.stats.validations == 1
    key = lib.gemm_key(40, 32, 24)
    certified = lib.cache._entries[key].validation_digest
    monkeypatch.setattr(persist, "code_salt", lambda: "other code")
    assert validation_digest(key, lib.cache._entries[key].strategy) != certified
    call(lib)
    assert lib.stats.validations == 2
    assert lib.cache._entries[key].validation_digest != certified
