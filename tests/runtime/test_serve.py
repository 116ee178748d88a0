"""One serve path for every library call: GEMM, unit-stride conv and
strided conv keep the same books on a cold tune, count a failing hit as
a hit, and warn about the fallback at the caller's line."""

import numpy as np
import pytest

from repro.codegen.executor import CompiledKernel
from repro.errors import SanitizerError, ValidationError
from repro.ops import conv2d_reference
from repro.ops.conv_common import ConvParams
from repro.options import use
from repro.runtime import AtopLibrary, KernelFallbackWarning
from repro.runtime import library

UNIT = ConvParams(batch=4, ni=16, no=16, ri=6, ci=6, kr=3, kc=3, pad=1)
STRIDED = ConvParams(batch=4, ni=16, no=16, ri=10, ci=10, kr=3, kc=3,
                     pad=1, stride=2)


def _conv(params):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(params.input_shape).astype(np.float32)
    w = rng.standard_normal(params.weight_shape).astype(np.float32)
    return (lambda lib: lib.conv2d(x, w, params)), conv2d_reference(x, w, params)


def _gemm(m=40, n=32, k=24):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    return (lambda lib: lib.gemm(a, b)), a @ b


CALLS = {
    "gemm": _gemm,
    "conv": lambda: _conv(UNIT),
    "strided": lambda: _conv(STRIDED),
}


def _replay_trips_the_sanitizer(self, feeds):
    raise SanitizerError("mem-oob", "injected replay failure")


@pytest.fixture(autouse=True)
def _plain_machine():
    with use(sanitize=False):
        yield


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_one_set_of_books_for_every_call_kind(kind, monkeypatch):
    call, expected = CALLS[kind]()
    lib = AtopLibrary(quick=True)
    cold = call(lib)
    keys = lib.cache.keys()
    entries = [lib.cache.get(k) for k in keys]
    if kind == "strided":
        # phase entries record their strategies only
        assert len(keys) == 4
        assert all(e.predicted_cycles is None and e.measured_cycles is None
                   for e in entries)
    else:
        (entry,) = entries
        assert entry.predicted_cycles is not None
        assert entry.measured_cycles == cold.cycles

    monkeypatch.setattr(CompiledKernel, "run", _replay_trips_the_sanitizer)
    with pytest.warns(KernelFallbackWarning) as caught:
        run = call(lib)
    # the warning points at the line that called the library
    assert [w.filename for w in caught] == [__file__]
    assert lib.stats.tuned == 1
    assert lib.stats.cache_hits == 1  # a failing hit is still a hit
    assert lib.stats.fallbacks == 1
    assert lib.stats.quarantined == len(keys)
    assert sorted(lib.cache.quarantined_keys) == sorted(keys)
    assert run.fallback_reason.startswith("SanitizerError")
    np.testing.assert_allclose(run.output, expected, rtol=1e-4, atol=1e-3)
    assert lib.stats.simulated_cycles == cold.cycles + run.cycles


def _certification_fails(*args, **kwargs):
    raise ValidationError("injected certification failure")


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_failed_certification_computes_the_reference_once(kind, monkeypatch):
    call, expected = CALLS[kind]()
    calls = []
    serve = AtopLibrary._serve

    def counting_serve(self, keys, run, entries_of, reference, **kwargs):
        def counted():
            calls.append(1)
            return reference()
        return serve(self, keys, run, entries_of, counted, **kwargs)

    monkeypatch.setattr(AtopLibrary, "_serve", counting_serve)
    monkeypatch.setattr(library, "compare_tensors", _certification_fails)
    lib = AtopLibrary(quick=True, validate="all")
    with pytest.warns(KernelFallbackWarning):
        run = call(lib)
    assert run.fallback_reason.startswith("ValidationError")
    assert len(calls) == 1
    np.testing.assert_allclose(run.output, expected, rtol=1e-4, atol=1e-3)
