"""SPM memory planning: the coalesced-region allocation of Sec. 4.7.

The code generator "analyzes the memory usage information in the IR and
allocates all buffers into a single coalesced region"; this pass builds
that plan from the kernel's SPM allocations, assigning every buffer its
offset (double-buffered buffers get two back-to-back copies) and
rejecting kernels that overflow the 64 KB scratch pad.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..ir.nodes import AllocSpmNode, KernelNode
from ..machine.config import MachineConfig, default_config
from ..machine.spm import SpmAllocator, SpmBuffer, SpmPlan


def per_cpe_bytes(alloc: AllocSpmNode, config: Optional[MachineConfig] = None) -> int:
    """SPM footprint of one copy of a tile buffer on one CPE.

    Distributed tiles are split 8x8 across the cluster over their 2-D
    matrix view (leading dim x rest); the boundary CPEs' rounded-up
    share is what must fit.
    """
    cfg = config or default_config()
    if not alloc.distributed:
        return alloc.elems * cfg.dtype_bytes
    # the 8x8 distribution follows the DMA flattening: (all outer dims)
    # x (innermost dim) split over cluster rows x columns
    rows = math.prod(alloc.shape[:-1]) if len(alloc.shape) > 1 else 1
    cols = alloc.shape[-1] if alloc.shape else 1
    return (
        math.ceil(rows / cfg.cluster_rows)
        * math.ceil(cols / cfg.cluster_cols)
        * cfg.dtype_bytes
    )


def plan_allocs(
    allocs: Sequence[AllocSpmNode], config: Optional[MachineConfig] = None
) -> SpmPlan:
    """Build the coalesced SPM plan for a list of allocations.

    Raises :class:`SpmCapacityError` on overflow.  The one plan every
    consumer shares: the plan-spm lowering stage runs it on the allocs
    computed before any IR exists, :func:`plan_spm` on a kernel's.
    """
    cfg = config or default_config()
    buffers = [
        SpmBuffer(
            name=a.name,
            bytes_per_cpe=per_cpe_bytes(a, cfg),
            double_buffered=a.double_buffered,
        )
        for a in allocs
    ]
    return SpmAllocator(cfg).plan(buffers)


def plan_spm(kernel: KernelNode, config: Optional[MachineConfig] = None) -> SpmPlan:
    """Build the coalesced SPM plan for a kernel.

    Raises :class:`SpmCapacityError` on overflow (the scheduler should
    have pruned such candidates; reaching here means an optimizer pass
    grew the footprint illegally).
    """
    return plan_allocs(kernel.allocs, config)


def spm_utilization(kernel: KernelNode, config: Optional[MachineConfig] = None) -> float:
    return plan_spm(kernel, config).utilization
