"""In-order dual-issue pipeline model of one CPE.

Each CPE decodes/issues on two pipelines: P0 (floating-point and vector
arithmetic) and P1 (memory); scalar integer ops may issue on either
(Sec. 2).  Issue is in-order: at most one instruction per pipeline per
cycle, and a stalled instruction blocks everything behind it.  A
Read-After-Write hazard stalls until the producing instruction's result
latency has elapsed.

The GEMM micro-kernels (Appendix 9) are *derived* from this model
rather than hard-coded: ``primitives.microkernel`` builds the
instruction sequence of one inner-loop iteration of each of the eight
kernel variants and schedules it by the rules of :func:`schedule`.  A
hazard-free 4x4 register-blocked iteration comes out at 16 ``vmad`` in
16 cycles -- the figure the paper quotes -- and unfavourable layouts
come out slower because their extra scalar loads saturate P1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PipelineError
from .config import PIPE_ANY, PIPE_P0, PIPE_P1, MachineConfig, default_config


@dataclass(frozen=True)
class Instr:
    """One abstract instruction.

    ``op`` must be a key of ``MachineConfig.latencies``; ``dst`` is the
    written register name (or ``None``); ``srcs`` are read registers.
    Register names are free-form strings ("v0", "a_ptr", ...).
    """

    op: str
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()

    @staticmethod
    def make(op: str, dst: Optional[str] = None, *srcs: str) -> "Instr":
        return Instr(op, dst, tuple(srcs))


@dataclass
class IssueRecord:
    """Where/when one instruction issued (for tests and debugging)."""

    instr: Instr
    cycle: int
    pipe: str


@dataclass
class ScheduleResult:
    """Outcome of scheduling an instruction sequence."""

    cycles: int
    records: List[IssueRecord] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return len(self.records) / self.cycles if self.cycles else 0.0

    def issue_cycle(self, index: int) -> int:
        return self.records[index].cycle

    def stalls(self) -> int:
        """Cycles in which nothing issued (bubble count)."""
        busy = {r.cycle for r in self.records}
        return self.cycles - len(busy)


def schedule(
    instrs: Sequence[Instr],
    config: Optional[MachineConfig] = None,
    *,
    initial_ready: Optional[Dict[str, int]] = None,
) -> ScheduleResult:
    """Schedule ``instrs`` on the dual-issue in-order pipeline.

    Returns the cycle count from first issue to the cycle after the
    last *issue* (issue-limited model: write-back drain is charged to
    the consumer via latency, matching how kernel authors count
    steady-state loop cycles).  ``initial_ready`` pre-populates register
    availability, which lets callers model a loop iteration whose
    inputs were produced late in the previous iteration.
    """
    cfg = config or default_config()
    ready: Dict[str, int] = dict(initial_ready or {})
    records: List[IssueRecord] = []
    cycle = 0
    free_pipe = {PIPE_P0: -1, PIPE_P1: -1}  # last cycle each pipe issued

    for instr in instrs:
        if instr.op not in cfg.latencies or instr.op not in cfg.pipes:
            raise PipelineError(f"unknown instruction class {instr.op!r}")
        pipe_class = cfg.pipes[instr.op]

        # RAW hazard: cannot issue before all sources are ready.
        earliest = cycle
        for src in instr.srcs:
            earliest = max(earliest, ready.get(src, 0))

        # Structural hazard: the target pipe issues one instr/cycle.
        if pipe_class == PIPE_ANY:
            # Greedy: pick the pipe that lets us issue soonest; ties go
            # to P0, since min() compares the names and 'p0' < 'p1'.
            cand = []
            for pipe in (PIPE_P1, PIPE_P0):
                cand.append((max(earliest, free_pipe[pipe] + 1), pipe))
            issue_at, pipe = min(cand)
        else:
            pipe = pipe_class
            issue_at = max(earliest, free_pipe[pipe] + 1)

        # In-order issue: later instructions never issue before this one.
        cycle = issue_at
        free_pipe[pipe] = issue_at
        if instr.dst is not None:
            ready[instr.dst] = issue_at + cfg.latencies[instr.op]
        records.append(IssueRecord(instr, issue_at, pipe))

    total = (records[-1].cycle + 1) if records else 0
    return ScheduleResult(cycles=total, records=records)


def steady_state_cycles(
    body: Sequence[Instr],
    config: Optional[MachineConfig] = None,
    *,
    warmup_iters: int = 3,
    probe_iters: int = 2,
) -> int:
    """Per-iteration cycle cost of ``body`` executed as a loop.

    Schedules ``warmup_iters + probe_iters`` unrolled copies (with
    registers renamed per iteration *not* applied -- loop-carried names
    are kept, so accumulation hazards across iterations are honoured)
    and reports the marginal cost of one steady-state iteration.
    """
    if not body:
        return 0
    if warmup_iters < 1 or probe_iters < 1:
        raise PipelineError("need at least one warmup and one probe iteration")
    seq_a = list(body) * warmup_iters
    seq_b = list(body) * (warmup_iters + probe_iters)
    a = schedule(seq_a, config).cycles
    b = schedule(seq_b, config).cycles
    per_iter = (b - a) / probe_iters
    return int(round(per_iter))
