"""Boundary processing (Sec. 4.5.3).

Two of the three mechanisms live elsewhere, inside the lowering (they
are semantics, not post-hoc rewrites):

* **parameter switching** -- ragged splits peel a boundary region whose
  DMA/GEMM calls simply use the smaller tail parameters;
* **lightweight zero-padding** -- a boundary tile below the vector
  width is padded *in SPM*: only the boundary data is copied, the pad
  lanes are zeroed, and the write-back stores only the valid region.

This module provides the analysis helpers the experiments use, plus the
**traditional zero-padding** baseline of Fig. 11: pre-pad whole tensors
in main memory (full copy through the DMA engine), run an aligned
kernel, and slice the output back.  Its cost is charged with the same
transaction-accurate DMA model the kernels use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..ir.nodes import GemmOpNode, KernelNode, ZeroSpmNode
from ..ir.visitors import find_all
from ..machine.config import MachineConfig, default_config


def pad_up(extent: int, multiple: int) -> int:
    """Smallest multiple of ``multiple`` that is >= ``extent``."""
    if multiple <= 0:
        raise ValueError("multiple must be positive")
    return -(-extent // multiple) * multiple


@dataclass(frozen=True)
class PaddingCost:
    """Simulated cost of a traditional main-memory padding pass."""

    cycles: float
    bytes_copied: int


def traditional_pad_cost(
    shape: Tuple[int, ...],
    padded: Tuple[int, ...],
    config: Optional[MachineConfig] = None,
    *,
    round_trip: bool = True,
) -> PaddingCost:
    """Cycles to materialise a zero-padded copy of a tensor.

    The copy streams through SPM: every byte of the original is read
    and every byte of the *padded* buffer written (zero regions are
    written too -- that is precisely the overhead the lightweight
    scheme avoids).  ``round_trip=False`` models unpadding an output
    (read padded, write original).
    """
    cfg = config or default_config()
    elems_in = math.prod(shape)
    elems_out = math.prod(padded)
    read_bytes = (elems_out if not round_trip else elems_in) * cfg.dtype_bytes
    write_bytes = (elems_in if not round_trip else elems_out) * cfg.dtype_bytes
    total = read_bytes + write_bytes
    # chunked streaming: one latency per SPM-sized stage per direction
    stage_bytes = cfg.spm_bytes // 2 * cfg.cpes_per_cg
    stages = max(1, math.ceil(max(read_bytes, write_bytes) / stage_bytes))
    cycles = (
        2 * stages * (cfg.dma_latency_cycles + cfg.dma_issue_cycles)
        + total / cfg.dram_bytes_per_cycle
    )
    return PaddingCost(cycles=cycles, bytes_copied=total)


def pad_tensor(data: np.ndarray, padded: Tuple[int, ...]) -> np.ndarray:
    """Functional zero-pad of a tensor to the padded shape."""
    if len(padded) != data.ndim:
        raise ValueError("padded rank mismatch")
    out = np.zeros(padded, dtype=data.dtype)
    out[tuple(slice(0, s) for s in data.shape)] = data
    return out


def unpad_tensor(data: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Slice the valid region back out of a padded result."""
    return np.ascontiguousarray(data[tuple(slice(0, s) for s in shape)])


# ---------------------------------------------------------------------------
# analyses used by the Fig. 11 experiment and by tests
# ---------------------------------------------------------------------------
def boundary_gemm_sites(kernel: KernelNode) -> Dict[str, int]:
    """Count main-region vs boundary GEMM call sites.

    Sites are grouped by their (m, n, k) signature; the most frequent
    signature is the main tile, everything else is boundary handling
    produced by parameter switching / lightweight padding.
    """
    sites = find_all(kernel, GemmOpNode)
    by_sig: Dict[Tuple[int, int, int], int] = {}
    for g in sites:
        by_sig[(g.m, g.n, g.k)] = by_sig.get((g.m, g.n, g.k), 0) + 1
    if not by_sig:
        return {"main": 0, "boundary": 0}
    main_sig = max(by_sig, key=lambda s: by_sig[s])
    main = by_sig[main_sig]
    return {"main": main, "boundary": sum(by_sig.values()) - main}


def lightweight_pad_sites(kernel: KernelNode) -> int:
    """Number of leaves that zero-pad an operand tile (ZeroSpm on a
    non-C buffer marks the lightweight path)."""
    return sum(
        1 for z in find_all(kernel, ZeroSpmNode) if z.spm != "spm_c"
    )
