"""Property: for any legal in-space schedule of any operator family --
GEMM and every convolution method, strided phases included -- the
data-free ``time_only`` report equals the functional ``run`` report
field for field, whatever the input values."""

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen.executor import CompiledKernel
from repro.engine import CandidatePipeline, synthetic_feeds
from repro.ops import conv_explicit, conv_implicit, conv_winograd
from repro.ops.conv_common import ConvParams
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space
from repro.ops.strided import decompose

MAX_CANDIDATES = 16


def _strided_phase():
    """The first unit-stride phase of a stride-2 convolution."""
    params = ConvParams(batch=2, ni=8, no=8, ri=12, ci=12, kr=3, kc=3,
                        pad=1, stride=2)
    phase = decompose(params)[0].params
    return conv_implicit.make_compute(phase), conv_implicit.make_space(phase)


@functools.lru_cache(maxsize=None)
def candidates_for(kind: str):
    if kind == "gemm":
        compute = gemm_compute(40, 72, 24)
        space = gemm_space(compute)
    elif kind == "implicit":
        params = ConvParams(batch=2, ni=8, no=8, ri=10, ci=10, pad=1)
        compute = conv_implicit.make_compute(params)
        space = conv_implicit.make_space(params)
    elif kind == "explicit":
        params = ConvParams(batch=1, ni=4, no=8, ri=8, ci=8)
        compute = conv_explicit.make_compute(params)
        space = conv_explicit.make_space(params)
    elif kind == "winograd":
        params = ConvParams(batch=1, ni=32, no=64, ri=18, ci=18)
        compute = conv_winograd.make_compute(params)
        space = conv_winograd.make_space(params)
    elif kind == "strided":
        compute, space = _strided_phase()
    else:  # pragma: no cover - exhaustive kinds above
        raise ValueError(kind)
    pool = list(CandidatePipeline(compute, space).candidates(limit=MAX_CANDIDATES))
    assert pool, f"no legal candidates for {kind}"
    return compute, pool


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["gemm", "implicit", "explicit", "winograd", "strided"]),
    index=st.integers(min_value=0, max_value=MAX_CANDIDATES - 1),
    seed=st.integers(min_value=0, max_value=3),
)
def test_time_only_equals_run(kind, index, seed):
    compute, pool = candidates_for(kind)
    candidate = pool[index % len(pool)]
    feeds = synthetic_feeds(compute, seed)
    ck = CompiledKernel(candidate.kernel, compute, sanitize=False)
    report = ck.time_only(feeds)
    assert report == ck.run(feeds).report
    assert report.cycles > 0
