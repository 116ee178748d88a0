"""Tests for the dual-issue in-order pipeline scheduler."""

import pytest

from repro.errors import PipelineError
from repro.machine.config import default_config
from repro.machine.pipeline import Instr, schedule, steady_state_cycles
from repro.machine import vector as V


def test_single_instruction():
    res = schedule([Instr.make("vmad", "v0", "a", "b", "v0")])
    assert res.cycles == 1
    assert res.records[0].pipe == "p0"


def test_unknown_op_rejected():
    with pytest.raises(PipelineError):
        schedule([Instr.make("bogus", "x")])


def test_op_with_latency_but_no_pipe_rejected():
    cfg = default_config()
    pipes = {op: pipe for op, pipe in cfg.pipes.items() if op != "iop"}
    assert "iop" in cfg.latencies
    with pytest.raises(PipelineError, match="'iop'"):
        schedule([Instr.make("iop", "x")], cfg.with_overrides(pipes=pipes))


def test_independent_ops_dual_issue():
    """A vmad (P0) and a vldd (P1) with no deps issue in the same cycle."""
    res = schedule(
        [
            Instr.make("vmad", "v0", "a", "b", "v0"),
            Instr.make("vldd", "v1", "ptr"),
        ]
    )
    assert res.records[0].cycle == res.records[1].cycle == 0
    assert res.cycles == 1


def test_same_pipe_serializes():
    res = schedule(
        [
            Instr.make("vmad", "v0", "a", "b", "v0"),
            Instr.make("vmad", "v1", "a", "b", "v1"),
        ]
    )
    assert res.records[1].cycle == 1


def test_raw_hazard_stalls_for_latency():
    cfg = default_config()
    res = schedule(
        [
            Instr.make("vmad", "v0", "a", "b", "v0"),
            Instr.make("vmad", "v1", "v0", "b", "v1"),  # consumes v0
        ]
    )
    assert res.records[1].cycle == cfg.latencies["vmad"]


def test_in_order_issue_blocks_younger_instrs():
    """A stalled instruction must delay later ones even on the other pipe."""
    cfg = default_config()
    res = schedule(
        [
            Instr.make("vldd", "v0", "ptr"),
            Instr.make("vmad", "v1", "v0", "b", "v1"),  # waits for the load
            Instr.make("vldd", "v2", "ptr2"),  # independent, but in-order
        ]
    )
    stall_until = cfg.latencies["vldd"]
    assert res.records[1].cycle == stall_until
    assert res.records[2].cycle >= stall_until


def test_any_pipe_op_fills_free_slot():
    res = schedule(
        [
            Instr.make("vmad", "v0", "a", "b", "v0"),  # p0, cycle 0
            Instr.make("iop", "i0"),  # should take p1, cycle 0
        ]
    )
    assert res.records[1].cycle == 0
    assert res.records[1].pipe == "p1"


def test_initial_ready_delays_consumers():
    res = schedule(
        [Instr.make("vmad", "v1", "x", "b", "v1")],
        initial_ready={"x": 5},
    )
    assert res.records[0].cycle == 5


def test_hazard_free_accumulators_reach_one_vmad_per_cycle():
    """16 vmads on 16 distinct accumulators = 16 cycles (Appendix 9)."""
    instrs = [V.vmad(f"c{i}", "a0", "b0") for i in range(16)]
    res = schedule(instrs)
    assert res.cycles == 16
    assert res.stalls() == 0


def test_single_accumulator_is_latency_bound():
    """Repeated vmad on ONE register stalls at the 7-cycle vmad latency --
    the hazard the 4x4 register blocking exists to avoid."""
    cfg = default_config()
    instrs = [V.vmad("c0", "a0", "b0") for _ in range(4)]
    res = schedule(instrs)
    assert res.cycles == 1 + 3 * cfg.latencies["vmad"]


def test_naive_loop_ordering_exposes_load_latency():
    """Loads at the top of the body cannot hide their latency under
    in-order issue: each iteration pays the broadcast-load latency on
    top of the 16 vmads.  This is the hazard hand schedulers remove."""
    body = [
        V.load_bcast_vector("a0", "a_ptr", "row"),
        V.load_bcast_vector("b0", "b_ptr", "col"),
    ] + [V.vmad(f"c{i}", "a0", "b0") for i in range(16)]
    assert steady_state_cycles(body) > 16


def test_software_pipelined_microkernel_reaches_16_cycles():
    """The hand-scheduled form (Appendix 9): loads for the *next*
    k-step are interleaved among the current step's vmads using a
    rotated register set, so steady state is 16 vmads / 16 cycles per
    k-step (32 cycles for the 2-step body)."""
    def step(cur: str, nxt: str):
        instrs = [V.vmad(f"c{i}", f"a{cur}", f"b{cur}") for i in range(16)]
        # interleave next-step loads early in the vmad stream
        instrs.insert(1, V.load_bcast_vector(f"a{nxt}", "a_ptr", "row"))
        instrs.insert(3, V.load_bcast_vector(f"b{nxt}", "b_ptr", "col"))
        return instrs

    body = step("0", "1") + step("1", "0")
    assert steady_state_cycles(body) == 32  # = 16 per k-step


def test_steady_state_memory_bound_loop():
    """A loop issuing more P1 loads than P0 work is P1-bound."""
    body = [V.load_vector(f"v{i}", "p") for i in range(8)] + [
        V.vmad("c0", "v0", "v1")
    ]
    assert steady_state_cycles(body) == 8


def test_steady_state_empty_body():
    assert steady_state_cycles([]) == 0


def test_steady_state_validates_iters():
    with pytest.raises(PipelineError):
        steady_state_cycles([V.vmad("c0", "a", "b")], warmup_iters=0)


def test_ipc_and_records():
    instrs = [V.vmad(f"c{i}", "a", "b") for i in range(4)]
    res = schedule(instrs)
    assert res.ipc == pytest.approx(1.0)
    assert res.issue_cycle(2) == 2
