"""Property: the micro-kernel table's record-free issue loop issues every
instruction in the cycle that ``machine.pipeline.schedule`` records, on
any instruction sequence, latency table, pipe assignment and initial
register readiness; and scheduling a prefix gives the prefix of the
issue cycles (the rule that lets one 5-copy k-step schedule answer for
the 3-copy one)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PipelineError
from repro.machine.config import PIPE_ANY, PIPE_P0, PIPE_P1, default_config
from repro.machine.pipeline import Instr, schedule
from repro.primitives.microkernel import _issue_cycles

BASE = default_config()
OPS = sorted(BASE.latencies)
#: few register names, so RAW chains and reuse are common
REGS = [f"r{i}" for i in range(6)]

instrs = st.lists(
    st.builds(
        lambda op, dst, srcs: Instr(op, dst, tuple(srcs)),
        st.sampled_from(OPS),
        st.none() | st.sampled_from(REGS),
        st.lists(st.sampled_from(REGS), max_size=3),
    ),
    max_size=40,
)

configs = st.one_of(
    st.just(BASE),
    st.builds(
        lambda lat, pipes: BASE.with_overrides(
            latencies=dict(zip(OPS, lat)), pipes=dict(zip(OPS, pipes))
        ),
        st.lists(st.integers(1, 12), min_size=len(OPS), max_size=len(OPS)),
        st.lists(
            st.sampled_from([PIPE_P0, PIPE_P1, PIPE_ANY]),
            min_size=len(OPS),
            max_size=len(OPS),
        ),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    seq=instrs,
    cfg=configs,
    ready=st.dictionaries(st.sampled_from(REGS), st.integers(0, 20), max_size=4),
    cut=st.integers(0, 40),
)
def test_issue_cycles_equal_schedule_records(seq, cfg, ready, cut):
    cycles = _issue_cycles(seq, cfg, ready)
    records = schedule(seq, cfg, initial_ready=ready).records
    assert cycles == [r.cycle for r in records]
    assert _issue_cycles(seq[:cut], cfg, ready) == cycles[:cut]


def test_any_pipe_tie_goes_to_p0():
    seq = [Instr.make("iop", "x")]
    assert schedule(seq).records[0].pipe == PIPE_P0
    # a second any-pipe op then issues in the same cycle, on P1
    seq.append(Instr.make("iop", "y"))
    assert _issue_cycles(seq, BASE) == [0, 0]


def test_unknown_op_raises_like_schedule():
    seq = [Instr.make("vmad", "c"), Instr.make("warp", "x")]
    with pytest.raises(PipelineError, match="warp"):
        schedule(seq)
    with pytest.raises(PipelineError, match="warp"):
        _issue_cycles(seq, BASE)
