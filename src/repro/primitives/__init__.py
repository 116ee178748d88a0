"""Tensorized primitives: the hardware-dependent layer of swATOP.

Everything above this layer (DSL, scheduler, IR optimizer, autotuner)
is hardware-agnostic; everything below (:mod:`repro.machine`) is the
simulated silicon.  The primitives encapsulate register communication,
dual-pipeline scheduling and vectorization of the GEMM micro-kernel
exactly as the paper's hand-written assembly kernels do (Sec. 4.1,
Appendix 9); DMA is costed by :mod:`repro.machine.dma`.
"""

from .asm_emitter import emit_all_kernels, emit_inner_loop
from .gemm_kernel import (
    ALL_VARIANTS,
    COL_MAJOR,
    ROW_MAJOR,
    GemmCost,
    KernelVariant,
    gemm_flops,
    kernel_cycles,
    spm_gemm,
    spm_tile_bytes,
)
from .microkernel import (
    block_drain_cycles,
    block_init_cycles,
    cycles_per_k_step,
)
from .registry import PrimitiveInfo, PrimitiveRegistry, default_registry

__all__ = [
    "emit_all_kernels",
    "emit_inner_loop",
    "GemmCost",
    "KernelVariant",
    "ALL_VARIANTS",
    "ROW_MAJOR",
    "COL_MAJOR",
    "spm_gemm",
    "kernel_cycles",
    "gemm_flops",
    "spm_tile_bytes",
    "cycles_per_k_step",
    "block_init_cycles",
    "block_drain_cycles",
    "PrimitiveInfo",
    "PrimitiveRegistry",
    "default_registry",
]
