"""im2col: expanding convolution input into a column matrix.

The explicit-GEMM method (Fig. 2 left) first materialises
``col[Ni*Kr*Kc, B*Ro*Co]`` in main memory, then multiplies it with the
filter matrix ``W[No, Ni*Kr*Kc]``.  The expansion itself is a pure
data-movement stage: every output element is read from the (padded)
input and written once, streamed through SPM by the DMA engine.  Its
cost is charged with the same transaction model as every other
transfer, and it depends on the chosen column-matrix layout:

* ``"kn"`` -- rows are K (= Ni*Kr*Kc): writes run along N with
  contiguous spans of ``Co`` (the input's innermost dim), reads are the
  same spans of the input;
* ``"nk"`` -- rows are N: each write is a K-contiguous gather of
  elements that are *strided* in the input, so reads degrade to
  element-granularity transactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..machine.config import MachineConfig, default_config
from ..machine.memory import transaction_bytes
from .conv_common import ConvParams, pad_input

LAYOUTS = ("kn", "nk")


def im2col(x: np.ndarray, params: ConvParams, layout: str = "kn") -> np.ndarray:
    """Functional expansion (on the pre-padded input)."""
    xp = pad_input(x, params)
    s = params.stride
    cols = np.empty(
        (params.ni, params.kr, params.kc, params.batch, params.ro, params.co),
        dtype=np.float32,
    )
    for kr in range(params.kr):
        for kc in range(params.kc):
            patch = xp[
                :, :, kr : kr + s * params.ro : s, kc : kc + s * params.co : s
            ]
            cols[:, kr, kc] = patch.transpose(1, 0, 2, 3)
    k, n = params.ni * params.kr * params.kc, params.batch * params.ro * params.co
    mat = cols.reshape(k, n)
    if layout == "kn":
        return np.ascontiguousarray(mat)
    if layout == "nk":
        return np.ascontiguousarray(mat.T)
    raise WorkloadError(f"unknown im2col layout {layout!r}")


@dataclass(frozen=True)
class Im2colCost:
    cycles: float
    bytes_read: int
    bytes_written: int


def im2col_cost(
    params: ConvParams,
    layout: str = "kn",
    config: Optional[MachineConfig] = None,
) -> Im2colCost:
    """Simulated cost of the expansion on one core group.

    Reads: the input is touched once per (kr, kc) offset, in runs of
    ``Co`` elements (``kn``) or element-by-element (``nk``).  Writes:
    the column matrix is written once, contiguously.  Both directions
    stream through SPM in DMA batches.
    """
    if layout not in LAYOUTS:
        raise WorkloadError(f"unknown im2col layout {layout!r}")
    cfg = config or default_config()
    eb = cfg.dtype_bytes
    k, n = params.ni * params.kr * params.kc, params.batch * params.ro * params.co

    read_run = params.co * eb if layout == "kn" else eb
    reads = (k * n * eb) // read_run
    paid_read = 0
    # a run's alignment drifts with the input row pitch
    pitch = params.padded_ci * eb
    for i in range(min(reads, 64)):
        addr = (i * pitch) % cfg.dram_transaction_bytes
        p, _ = transaction_bytes(addr, read_run, cfg.dram_transaction_bytes)
        paid_read += p
    paid_read = paid_read * reads // max(1, min(reads, 64))

    write_bytes = k * n * eb  # contiguous stream, no waste
    total_paid = paid_read + write_bytes

    stage_bytes = (cfg.spm_bytes // 2) * cfg.cpes_per_cg
    stages = max(1, math.ceil(write_bytes / stage_bytes))
    cycles = (
        2 * stages * (cfg.dma_latency_cycles + cfg.dma_issue_cycles)
        + total_paid / cfg.dram_bytes_per_cycle
    )
    return Im2colCost(
        cycles=cycles, bytes_read=paid_read, bytes_written=write_bytes
    )
