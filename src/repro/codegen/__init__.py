"""Code generation: executable simulation kernels and C source emission."""

from typing import Optional

from ..machine.config import MachineConfig, default_config
from ..passes.base import SPM_PLANNED, PassContext
from ..passes.manager import PassManager
from ..passes.optimize import optimize_passes
from ..scheduler.enumerate import Candidate
from .c_emitter import emit_c
from .executor import CompiledKernel, RunResult


def compile_candidate(
    candidate: Candidate,
    *,
    prefetch: bool = True,
    config: Optional[MachineConfig] = None,
) -> CompiledKernel:
    """Run the optimizer pass pipeline on a raw candidate and bind it
    to the machine: DMA inference (+hoisting), then automatic latency
    hiding -- with the resulting IR verified.

    ``prefetch=False`` builds the Fig. 10 baseline (no double
    buffering); note the candidate must then have been lowered with
    ``LoweringOptions(double_buffer=False)`` for a fair SPM budget.
    """
    cfg = config or default_config()
    ctx = PassContext(compute=candidate.compute, config=cfg)
    ctx.established.add(SPM_PLANNED)  # raw candidates passed plan-spm
    kernel = PassManager(optimize_passes(prefetch=prefetch)).run(
        ctx, candidate.kernel
    )
    return CompiledKernel(kernel, candidate.compute, cfg)


__all__ = [
    "CompiledKernel",
    "RunResult",
    "compile_candidate",
    "emit_c",
]
