"""The static performance model (Sec. 4.6).

Two analytic sub-models predict a candidate kernel's execution time
without running it:

* **DMA time** -- Eq. (1): a start-up latency plus the transaction-
  padded traffic over peak bandwidth.  The model assumes the first
  block of every transfer is 128-byte aligned and infers the per-block
  waste from the stride (the simulator, by contrast, uses the *actual*
  allocation addresses -- one deliberate source of model error).  Both
  share one per-transfer arithmetic in :mod:`repro.machine.dma`
  (:func:`~repro.machine.dma.paid_bytes`,
  :func:`~repro.machine.dma.transfer_cycles`), which also gives the
  pre-IR strategy bound its floor, :func:`min_transfer_cycles`, which
  stays below both scores.
* **GEMM primitive time** -- Eq. (2): a per-variant linear function
  ``alpha*K + beta*K*M + gamma*K*M*N + delta`` fitted offline against
  micro-benchmark runs of ``spm_gemm``
  (:mod:`repro.autotuner.calibrate`).  The structural cost has ceil()
  quantisation and pattern-switch terms a linear form cannot express --
  the residual the paper measures in Fig. 9.

Because DMA is asynchronous and swATOP always applies software
prefetching, the total is ``max(T_DMA, T_compute)`` for pipelined
kernels and the plain sum otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import TuningError
from ..ir.nodes import (
    ComputeOpNode,
    DmaCgNode,
    DmaGeometry,
    ForNode,
    GemmOpNode,
    IfThenElseNode,
    KernelNode,
    Node,
    SeqNode,
    ZeroSpmNode,
)
from ..machine.config import MachineConfig, default_config
from ..machine.dma import drift_period, paid_bytes, transfer_cycles
from ..primitives.microkernel import KernelVariant

#: Eq. (2) coefficients: (alpha, beta, gamma, delta) per variant name.
GemmCoeffs = Dict[str, Tuple[float, float, float, float]]


@dataclass(frozen=True)
class PredictedTime:
    """Cost-model output for one candidate."""

    total: float
    dma: float
    compute: float
    pipelined: bool

    @property
    def bound(self) -> str:
        return "dma" if self.dma > self.compute else "compute"


def _effective_extents(
    m: int, n: int, k: int, vec_dim: str, config: Optional[MachineConfig]
) -> Tuple[float, float]:
    """Register-blocking-quantised M and N.

    This is the "prior knowledge of the hardware" the paper bakes into
    its model: each CPE processes the vectorized dimension in blocks of
    4 vectors (16 elements) and the other dimension in blocks of 4, so
    a tile is charged at its quantised extent.  (The paper's
    ``beta*K*M/(vecM*4)`` term plays the same role.)
    """
    from ..primitives.microkernel import BLOCK_SCALARS, BLOCK_VECS

    cfg = config or default_config()
    rows, cols = cfg.cluster_rows, cfg.cluster_cols
    vq = BLOCK_VECS * cfg.vector_lanes

    def quant(extent: int, split: int, q: int) -> float:
        per_cpe = -(-extent // split)
        return float(-(-per_cpe // q) * q * split)

    if vec_dim == "M":
        return quant(m, rows, vq), quant(n, cols, BLOCK_SCALARS)
    return quant(m, rows, BLOCK_SCALARS), quant(n, cols, vq)


def eq2_features(
    m: int,
    n: int,
    k: int,
    vec_dim: str = "M",
    config: Optional[MachineConfig] = None,
) -> Tuple[float, float, float, float]:
    """The Eq. (2) feature vector ``(K, K*V_eff, K*M_eff*N_eff, 1)``.

    V is the vectorized dimension; effective extents are the register-
    blocking-quantised sizes (see :func:`_effective_extents`).  The
    paper's /4 normalisations are absorbed into the per-variant fitted
    coefficients.
    """
    m_eff, n_eff = _effective_extents(m, n, k, vec_dim, config)
    v = m_eff if vec_dim == "M" else n_eff
    return (float(k), float(k) * v, float(k) * m_eff * n_eff, 1.0)


def predict_gemm(
    m: int, n: int, k: int, variant: KernelVariant, coeffs: GemmCoeffs
) -> float:
    try:
        a, b, g, d = coeffs[variant.name]
    except KeyError:
        raise TuningError(
            f"no Eq.(2) coefficients for variant {variant.name!r}; "
            "run autotuner.calibrate first"
        ) from None
    f = eq2_features(m, n, k, variant.vec_dim)
    return a * f[0] + b * f[1] + g * f[2] + d


def predict_dma(
    node: DmaCgNode, config: Optional[MachineConfig] = None
) -> float:
    """Eq. (1) for one CG-level transfer.

    ``block_num``/``block_size`` come from the inferred geometry; waste
    is inferred per block under the aligned-first-block assumption.
    The model charges one drift period of blocks and scales it to the
    whole transfer (the simulator uses real allocation addresses; the
    difference is model error by design).
    """
    cfg = config or default_config()
    geo = node.geometry
    if geo is None:
        raise TuningError("cost model requires DMA-inferred IR")
    sample = min(geo.n_blocks, drift_period(geo, cfg))
    (paid,) = paid_bytes(geo, (0,), sample, cfg)
    return transfer_cycles(geo, paid * geo.n_blocks // sample, cfg)


def min_transfer_cycles(geo: DmaGeometry, cfg: MachineConfig) -> float:
    """A floor under Eq. (1) for ``geo`` wherever the transfer starts.

    A transfer of ``geo`` issues ``n_descriptors`` runs of
    ``n_blocks / n_descriptors`` evenly spaced blocks.  Each run pays
    at least the exact :func:`paid_bytes` of its length at the cheapest
    element-aligned start offset, so the floor never exceeds
    :func:`predict_dma` (first block aligned, one period scaled up) nor
    the simulator's per-address accounting.  The minimum of the
    scaled-up figure over start offsets would not do: a partial period
    or a multi-descriptor access can land every block on cheaper
    offsets than the scaled period assumes.
    """
    runs = max(1, geo.n_descriptors)
    starts = range(0, cfg.dram_transaction_bytes, cfg.dtype_bytes)
    paid = runs * min(paid_bytes(geo, starts, geo.n_blocks // runs, cfg))
    return transfer_cycles(geo, paid, cfg)


def predict_kernel(
    kernel: KernelNode,
    coeffs: GemmCoeffs,
    config: Optional[MachineConfig] = None,
) -> PredictedTime:
    """Walk the IR statically, accumulating Eq. (1) and Eq. (2) terms
    weighted by loop trip counts."""
    cfg = config or default_config()
    acc = _Accumulator(cfg, coeffs)
    acc.visit(kernel.body, 1.0, in_pipeline=False)
    pipelined = acc.saw_pipelined
    if pipelined:
        total = max(acc.dma, acc.compute) + acc.serial + acc.startup
    else:
        total = acc.dma + acc.compute + acc.serial + acc.startup
    return PredictedTime(
        total=total, dma=acc.dma, compute=acc.compute, pipelined=pipelined
    )


class _Accumulator:
    """Static IR walk.

    ``dma``/``compute`` collect work that software prefetching can
    overlap (transfers issued inside a pipelined loop against the GEMM
    time); ``serial`` collects transfers outside every pipelined loop
    (hoisted preloads, the C write-back), which stay on the critical
    path even in the overlapped total.
    """

    def __init__(self, cfg: MachineConfig, coeffs: GemmCoeffs) -> None:
        self.cfg = cfg
        self.coeffs = coeffs
        self.dma = 0.0
        self.serial = 0.0
        self.compute = 0.0
        self.startup = 0.0
        self.saw_pipelined = False

    def visit(
        self, node: Node, trips: float, in_pipeline: bool,
        pipe_extent: int = 0,
    ) -> None:
        if isinstance(node, SeqNode):
            for child in node.body:
                self.visit(child, trips, in_pipeline, pipe_extent)
        elif isinstance(node, ForNode):
            if node.pipelined:
                self.saw_pipelined = True
            self.visit(
                node.body,
                trips * node.extent,
                in_pipeline or node.pipelined,
                node.extent if node.pipelined else pipe_extent,
            )
        elif isinstance(node, IfThenElseNode):
            # static model: charge the then-branch (boundary regions are
            # peeled by the lowering, so real kernels rarely carry ifs)
            self.visit(node.then_body, trips, in_pipeline, pipe_extent)
            if node.else_body is not None:
                self.visit(node.else_body, 0.0, in_pipeline, pipe_extent)
        elif isinstance(node, DmaCgNode):
            cost = trips * predict_dma(node, self.cfg)
            if in_pipeline and pipe_extent > 1:
                # a pipeline of E iterations hides (E-1)/E of its
                # traffic behind compute; the fill iteration stays on
                # the critical path
                hidden = (pipe_extent - 1) / pipe_extent
                self.dma += cost * hidden
                self.serial += cost * (1.0 - hidden)
            else:
                self.serial += cost
        elif isinstance(node, GemmOpNode):
            self.compute += trips * predict_gemm(
                node.m, node.n, node.k, node.variant, self.coeffs
            )
        elif isinstance(node, ZeroSpmNode):
            # small vectorised memset, same form the executor charges
            self.compute += trips * 32.0
        elif isinstance(node, ComputeOpNode):
            self.compute += trips * node.cycles
