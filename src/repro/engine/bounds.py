"""Admissible strategy-level lower bounds, computed before any IR exists.

The branch-and-bound driver (:mod:`repro.engine.search`) wants to skip
the lower -> optimize -> predict pipeline for candidates that provably
cannot beat the incumbent.  That is only sound if the bound is
*admissible*: for every strategy the bound must not exceed the score
the full pipeline would produce, otherwise a potential winner could be
pruned and the search would no longer return bit-identical results to
the exhaustive walk.  Two bounds are combined (see DESIGN.md, "Bound
admissibility"):

* **DMA traffic bound** -- Eq. (1) with every waste term zeroed: each
  tensor is moved at most once per execution of its innermost
  materialized indexing loop (assuming maximal hoisting, which the
  hoist-dma pass approaches but never beats), each transfer pays the
  fixed descriptor overheads once, and all bytes stream at the peak
  DRAM bandwidth with no transaction padding.
* **Compute bound** -- the kernel's FLOPs retired at the throughput of
  the strategy's *own* kernel variant (the vec_dim/spm_layout decisions
  fully determine it before lowering), with zero init/drain/loop/call
  overhead.  The variant's steady-state k-step cost comes from the
  pipeline model, but is normalized by the *ideal* 16-cycle step even
  though every real variant needs >= 17 cycles -- a built-in >= 6%
  margin below the structural floor that absorbs the Eq. (2) fit's
  local undershoot.

A pipelined kernel can at best fully overlap the two, so the bound is
their ``max()`` -- never their sum.  Any strategy the decoder cannot
interpret gets the vacuous bound 0.0, which never prunes.

The search bounds whole spaces at once (:func:`space_bounds`): the DMA
term depends only on a strategy's skeleton (tiles and loop order) and
the compute term only on its kernel variant, so each is computed once
per distinct value and broadcast over the space's decision product.
:func:`strategy_bound` is the same arithmetic for one strategy.

The same pre-IR decode also yields :func:`definitely_infeasible`: a
*conservative* floor on the per-CPE SPM footprint (perfect 8x8 split,
no padding, no alignment).  When even that floor overflows the 64 KB
pad, lowering is guaranteed to raise ``IllegalCandidateError`` at the
plan-spm stage -- so the strategy can be counted as pruned without
building its loop nest at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..dsl.compute import ComputeDef, ShiftedDim
from ..dsl.schedule import ScheduleSpace, ScheduleStrategy
from ..errors import IllegalCandidateError
from ..machine.config import MachineConfig, default_config
from ..primitives.microkernel import (
    BLOCK_SCALARS,
    BLOCK_VECS,
    cycles_per_k_step,
)
from ..scheduler.lower import (
    LoweringOptions,
    kernel_variant,
    loop_order,
    tile_decision,
)

__all__ = [
    "BOUND_SAFETY",
    "StrategyBound",
    "definitely_infeasible",
    "space_bounds",
    "strategy_bound",
]

#: Relative slack applied when comparing a bound against the incumbent.
#: On candidates where the bound is exactly tight (zero waste in the
#: real kernel too) float summation order can leave the bound a few ulp
#: *above* the model's score; scaling by (1 - 1e-9) absorbs that while
#: costing nothing measurable in pruning power.
BOUND_SAFETY = 1.0 - 1e-9


@dataclass(frozen=True)
class StrategyBound:
    """Lower bound on the cost of one schedule strategy."""

    dma_cycles: float
    compute_cycles: float
    transfers: int
    dma_bytes: float

    @property
    def cycles(self) -> float:
        """The admissible bound: DMA and compute fully overlapped."""
        return max(self.dma_cycles, self.compute_cycles)


#: The never-prunes bound returned for undecodable strategies.
VACUOUS = StrategyBound(0.0, 0.0, 0, 0.0)


def _decode(
    compute: ComputeDef, strategy: ScheduleStrategy
) -> Optional[Tuple[Dict[str, int], Tuple[str, ...]]]:
    """Tiles and loop order as the decode-strategy pass reads them.

    Tiles are clipped into [1, extent] (an out-of-range tile would make
    the candidate illegal anyway); ``None`` means the strategy carries
    decisions the decoder cannot read -- the caller must fall back to
    the vacuous bound.
    """
    try:
        tiles = {
            name: max(1, min(tile_decision(compute, strategy, name), axis.extent))
            for name, axis in compute.axes.items()
        }
        order = loop_order(compute, strategy)
    except (TypeError, ValueError, IllegalCandidateError):
        return None
    return tiles, order


def _indexing_axes(spec) -> set:
    """Loop axes whose value changes which elements of the tensor a
    tile touches.  A shifted dim is driven by both its spatial base and
    its kernel offset."""
    axes = set()
    for dim in spec.dims:
        if isinstance(dim, ShiftedDim):
            axes.add(dim.spatial)
            axes.add(dim.kernel)
        else:
            axes.add(dim)
    return axes


#: cycles of one 4x4-block k-step at one vmad per cycle -- the ideal
#: the hand-written kernels aspire to; the pipeline model's real
#: variants all come out >= 17.
_IDEAL_K_STEP = float(BLOCK_VECS * BLOCK_SCALARS)


def _variant_step_scale(
    strategy: ScheduleStrategy, cfg: MachineConfig
) -> float:
    """Slowdown of the strategy's kernel variant relative to the ideal
    16-cycle k-step (>= 1 for every real variant; 1.0 -- the peak
    fallback -- when the decisions do not name a valid variant)."""
    try:
        variant = kernel_variant(strategy)
    except Exception:
        return 1.0
    return max(1.0, cycles_per_k_step(variant, cfg) / _IDEAL_K_STEP)


def _compute_cycles(
    compute: ComputeDef, strategy: ScheduleStrategy, cfg: MachineConfig
) -> float:
    """The compute bound; reads only the kernel-variant decisions."""
    flops = 2.0 * math.prod(a.extent for a in compute.axes.values())
    return (
        flops
        / (cfg.cpes_per_cg * cfg.flops_per_vmad)
        * _variant_step_scale(strategy, cfg)
    )


class _DmaTerm:
    """The DMA bound of one compute on one machine; reads only a
    strategy's tile and order decisions.

    For every tensor, the innermost *materialized* loop (trip count
    > 1) that indexes it determines how often its tile must be
    (re-)transferred; loops outside that tensor's indexing set multiply
    its total traffic (the tile is re-loaded although the data did not
    change -- even a perfect hoist cannot avoid that).  Un-tiled axes
    produce no loop and therefore no re-transfers, matching what the
    hoist pass achieves on the real IR.
    """

    def __init__(self, compute: ComputeDef, cfg: MachineConfig) -> None:
        self.compute = compute
        self.cfg = cfg
        self.tensors = [
            (_indexing_axes(spec), math.prod(compute.tensor_shape(name)))
            for name, spec in compute.tensors.items()
        ]

    def __call__(
        self, strategy: ScheduleStrategy
    ) -> Optional[Tuple[float, int, float]]:
        """``(cycles, transfers, bytes)``; ``None`` when the tile and
        order decisions are undecodable."""
        decoded = _decode(self.compute, strategy)
        if decoded is None:
            return None
        tiles, order = decoded
        cfg = self.cfg

        trips = {
            name: -(-axis.extent // tiles[name])
            for name, axis in self.compute.axes.items()
        }
        loops = [a for a in order if trips[a] > 1]

        transfers = 0
        total_bytes = 0.0
        for indexing, tensor_elems in self.tensors:
            last = -1
            for i, axis in enumerate(loops):
                if axis in indexing:
                    last = i
            execs = 1
            replication = 1
            for axis in loops[: last + 1]:
                execs *= trips[axis]
                if axis not in indexing:
                    replication *= trips[axis]
            transfers += execs
            total_bytes += tensor_elems * cfg.dtype_bytes * replication

        dma_cycles = (
            transfers * (cfg.dma_latency_cycles + cfg.dma_issue_cycles)
            + total_bytes / cfg.dram_bytes_per_cycle
        )
        return dma_cycles, transfers, total_bytes


def strategy_bound(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    config: Optional[MachineConfig] = None,
) -> StrategyBound:
    """Admissible cost lower bound for one strategy of ``compute``."""
    cfg = config or default_config()
    dma = _DmaTerm(compute, cfg)(strategy)
    if dma is None:
        return VACUOUS
    dma_cycles, transfers, total_bytes = dma
    return StrategyBound(
        dma_cycles=dma_cycles,
        compute_cycles=_compute_cycles(compute, strategy, cfg),
        transfers=transfers,
        dma_bytes=total_bytes,
    )


#: the decisions the compute term reads: they select the kernel variant
_VARIANT_KEYS = ("spm_layout:a", "spm_layout:b", "vec_dim")


def space_bounds(
    compute: ComputeDef,
    space: ScheduleSpace,
    config: Optional[MachineConfig] = None,
) -> np.ndarray:
    """``strategy_bound(...).cycles`` of every strategy of ``space``, as
    a float64 array in enumeration order.

    The DMA term reads only the skeleton (tiles and loop order) and the
    compute term only the kernel variant, so each is evaluated once per
    distinct combination of the decisions it reads -- through the same
    helpers as :func:`strategy_bound`, so every value is ``==`` -- and
    laid out with size-1 axes for the decisions it ignores.  Their
    ``max`` is broadcast over the space's decision product.  A skeleton
    the decoder cannot read bounds all of its strategies by 0.0.
    """
    cfg = config or default_config()
    keys, pools = space.pools()
    # a key declared twice resolves to its last pool, as in strategies()
    position = {key: i for i, key in enumerate(keys)}

    def term(reads, fn) -> np.ndarray:
        axes = sorted({position[k] for k in reads if k in position})
        values = [
            fn(ScheduleStrategy({keys[i]: v for i, v in zip(axes, combo)}))
            for combo in itertools.product(*(pools[i] for i in axes))
        ]
        shape = [len(pool) if i in axes else 1 for i, pool in enumerate(pools)]
        return np.array(values, dtype=np.float64).reshape(shape)

    dma_term = _DmaTerm(compute, cfg)

    def dma_cycles(skeleton: ScheduleStrategy) -> float:
        dma = dma_term(skeleton)
        return math.nan if dma is None else dma[0]

    dma = term(
        [f"tile:{name}" for name in compute.axes] + ["order"], dma_cycles
    )
    compute_cycles = term(
        _VARIANT_KEYS, lambda variant: _compute_cycles(compute, variant, cfg)
    )
    cycles = np.empty([len(pool) for pool in pools])
    cycles[...] = np.where(np.isnan(dma), 0.0, np.maximum(dma, compute_cycles))
    return cycles.ravel()


def definitely_infeasible(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    config: Optional[MachineConfig] = None,
    options: Optional[LoweringOptions] = None,
) -> bool:
    """True when lowering is *guaranteed* to prune this strategy.

    The check is a strict under-estimate of the SPM plan: each GEMM
    operand tile split perfectly 8x8 (``elems/64`` per CPE, no
    boundary rounding), no vector padding, no alignment gaps, with the
    double-buffer reservation the lowering applies to the streamed
    operands.  If even this floor exceeds the scratch-pad capacity the
    plan-spm stage must overflow too, so skipping the strategy cannot
    change the legal candidate set.  ``False`` never implies legality.
    """
    cfg = config or default_config()
    opts = options or LoweringOptions()
    gemm = compute.gemm
    if gemm is None:
        return False
    decoded = _decode(compute, strategy)
    if decoded is None:
        return False
    tiles, _ = decoded

    floor_bytes = 0.0
    for tensor in (gemm.a, gemm.b, gemm.c):
        spec = compute.tensors.get(tensor)
        if spec is None:
            return False
        elems = 1
        for dim in spec.dims:
            if isinstance(dim, ShiftedDim):
                elems *= tiles[dim.spatial]
            else:
                elems *= tiles[dim]
        per_cpe = (
            elems
            * cfg.dtype_bytes
            / (cfg.cluster_rows * cfg.cluster_cols)
        )
        if opts.double_buffer and tensor != gemm.c:
            per_cpe *= 2
        floor_bytes += per_cpe
    return floor_bytes > cfg.spm_bytes
