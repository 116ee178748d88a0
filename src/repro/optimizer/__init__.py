"""IR optimizer passes (Sec. 4.5): DMA inference, latency hiding,
boundary processing, SPM planning."""

from .boundary import (
    PaddingCost,
    boundary_gemm_sites,
    lightweight_pad_sites,
    pad_tensor,
    pad_up,
    traditional_pad_cost,
    unpad_tensor,
)
from .dma_inference import (
    FlatTile,
    flatten_access,
    geometry_of,
    hoist_dma,
    infer_dma,
    storage_shapes,
)
from .memplan import per_cpe_bytes, plan_allocs, plan_spm, spm_utilization
from .prefetch import (
    apply_prefetch,
    direct_stream_dmas,
    pipelined_loops,
)

__all__ = [
    "infer_dma",
    "hoist_dma",
    "geometry_of",
    "flatten_access",
    "FlatTile",
    "storage_shapes",
    "apply_prefetch",
    "pipelined_loops",
    "direct_stream_dmas",
    "plan_allocs",
    "plan_spm",
    "per_cpe_bytes",
    "spm_utilization",
    "pad_up",
    "pad_tensor",
    "unpad_tensor",
    "traditional_pad_cost",
    "PaddingCost",
    "boundary_gemm_sites",
    "lightweight_pad_sites",
]
