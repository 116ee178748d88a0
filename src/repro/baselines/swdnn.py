"""The swDNN implicit-convolution baseline (Fang et al., IPDPS'17).

swDNN is the hand-optimised DL library the paper compares implicit conv
against.  Reproduced behaviours:

* **one generic expert schedule** rather than per-shape tuning: fixed
  channel blocking (64 x 64), a fixed spatial tile, Alg. 2's loop
  order, vec-M, NCHW layouts, double buffering -- a good schedule
  everywhere, the best schedule almost nowhere;
* **big-batch orientation**: the kernels block the batch dimension by
  32; small batches are not supported ("there is currently no manually
  optimized version" for batch-size 1, Sec. 5.1.1);
* input channels must cover its K blocking, like the real library
  (first network layers are excluded in the paper for this reason).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..dsl.schedule import ScheduleStrategy
from ..errors import WorkloadError
from ..machine.config import MachineConfig, default_config
from ..ops import conv_implicit
from ..ops.conv_common import ConvParams
from ..primitives.microkernel import COL_MAJOR

#: swDNN kernels block the batch by 32 -- smaller batches unsupported.
MIN_BATCH = 32
#: fixed channel blocking of the handwritten kernels (sized for the
#: wide layers of the networks the library was tuned on).
BLOCK_NO = 128
BLOCK_NI = 128
#: fixed spatial tile.
TILE_R = 16
TILE_C = 16
BATCH_TILE = 32


def supported(params: ConvParams) -> bool:
    return (
        conv_implicit.applicable(params)
        and params.batch >= MIN_BATCH
        and params.ni >= 16
    )


#: the library's kernel configurations, preferred first: (spatial tile,
#: channel block).  A real hand-written library ships a small fixed
#: menu and picks the largest configuration whose working set fits the
#: scratch pad.  The batch tile is always the full per-CG batch (capped
#: at 32): the (Ni, Ri, Ci, B) layout keeps the batch innermost, and a
#: partial batch tile would fragment every DMA block.
KERNEL_MENU = (
    (16, 128),
    (8, 128),
    (8, 64),
    (4, 64),
    (4, 32),
    (2, 32),
    (2, 16),
)


def _decisions(params: ConvParams, tile_rc: int, block: int) -> Dict[str, object]:
    return {
        "tile:B": min(BATCH_TILE, params.batch),
        "tile:No": min(block, params.no),
        "tile:Ni": min(block, params.ni),
        "tile:Ro": min(tile_rc, params.ro),
        "tile:Co": min(tile_rc, params.co),
        "tile:Kr": 1,
        "tile:Kc": 1,
        "order": ("Ro", "Co", "B", "No", "Kr", "Kc", "Ni"),  # Alg. 2
        "vec_dim": "M",
        "spm_layout:a": COL_MAJOR,
        "spm_layout:b": COL_MAJOR,
        # swDNN's own (Ni, Ri, Ci, B) data layout: batch contiguous, so
        # the fused GEMM-N dimension DMA-streams in long runs
        "layout:input": (1, 2, 3, 0),
        "layout:out": (1, 2, 3, 0),
        # weights repacked offline to (Kr, Kc, No, Ni), as the manual
        # kernels require
        "layout:weight": (2, 3, 0, 1),
    }


def fixed_strategy(
    params: ConvParams,
    config: Optional[MachineConfig] = None,
    *,
    check_support: bool = True,
) -> ScheduleStrategy:
    """The library's schedule for a layer: the first menu entry whose
    SPM working set fits.  No per-shape search beyond that -- the
    entire point of the comparison.

    ``check_support=False`` skips the batch-size gate: callers that
    already sharded a supported batch across core groups pass the
    per-CG shard here.
    """
    if check_support and not supported(params):
        raise WorkloadError(
            f"swDNN has no implicit-conv kernel for {params.describe()} "
            f"(needs batch >= {MIN_BATCH}, Ni >= 16, stride 1)"
        )
    from ..errors import IllegalCandidateError
    from ..ops.conv_implicit import make_compute
    from ..scheduler.lower import lower_strategy

    cfg = config or default_config()
    compute = make_compute(params)
    last_error: Optional[Exception] = None
    for tile_rc, block in KERNEL_MENU:
        strategy = ScheduleStrategy(_decisions(params, tile_rc, block))
        try:
            lower_strategy(compute, strategy, config=cfg)
        except IllegalCandidateError as exc:
            last_error = exc
            continue
        return strategy
    raise WorkloadError(
        f"no swDNN kernel configuration fits {params.describe()}: {last_error}"
    )
