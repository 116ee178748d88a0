"""The verified, instrumented IR pass pipeline.

Every IR transformation in the reproduction -- the lowering stages that
turn a schedule strategy into kernel IR, and the optimizer stages of
Sec. 4.5 (DMA inference/hoisting, automatic latency hiding, boundary
analysis) -- runs as a named :class:`Pass` on a :class:`PassManager`.
The manager times every pass, feeds the totals into
:class:`~repro.engine.metrics.EngineMetrics`, keeps a trace whose IR
node counts are computed when read, and runs the structural
:func:`check_kernel` verifier once on the final kernel.  When that
check fails or a pass raises, the recorded per-pass outputs are
re-checked so a malformed rewrite is still reported at its source
(:class:`~repro.errors.PassVerificationError` names the offending
pass).

Direct imports of ``infer_dma`` / ``apply_prefetch`` outside this
package are rejected by ``tools/check_pass_boundary.py`` (wired into
CI): consumers go through :func:`lowering_passes` /
:func:`optimize_passes` and inherit verification + instrumentation.
"""

from .base import (
    DMA_GEOMETRY,
    SPM_PLANNED,
    FunctionPass,
    Pass,
    PassContext,
    PassRun,
)
from .lowering import (
    BuildLoopNestPass,
    DecodeStrategyPass,
    PlanSpmPass,
    lowering_passes,
)
from .manager import IrDump, PassManager
from .optimize import (
    AnalyzeBoundaryPass,
    HoistDmaPass,
    InferDmaPass,
    PrefetchPass,
    optimize_passes,
)
from .verifier import ALL_INVARIANTS, check_kernel

__all__ = [
    "Pass",
    "FunctionPass",
    "PassContext",
    "PassRun",
    "PassManager",
    "IrDump",
    "SPM_PLANNED",
    "DMA_GEOMETRY",
    "ALL_INVARIANTS",
    "check_kernel",
    "DecodeStrategyPass",
    "BuildLoopNestPass",
    "PlanSpmPass",
    "lowering_passes",
    "InferDmaPass",
    "HoistDmaPass",
    "PrefetchPass",
    "AnalyzeBoundaryPass",
    "optimize_passes",
]
