"""Admissible strategy-level lower bounds, computed before any IR exists.

The branch-and-bound driver (:mod:`repro.engine.search`) wants to skip
the lower -> optimize -> predict pipeline for candidates that provably
cannot beat the incumbent.  That is only sound if the bound is
*admissible*: for every strategy the bound must not exceed the score
the full pipeline would produce, otherwise a potential winner could be
pruned and the search would no longer return bit-identical results to
the exhaustive walk.  Two bounds are combined (see DESIGN.md, "Bound
admissibility"):

* **DMA bound** -- each tensor is moved at most once per execution of
  its innermost materialized indexing loop (assuming maximal hoisting,
  which the hoist-dma pass approaches but never beats).  Every such
  transfer pays at least the cheapest Eq. (1) cost among the tensor's
  full and boundary tile shapes: descriptor issue and transaction-
  rounded bytes follow from the tile lengths and the tensor's layout
  (:func:`~repro.optimizer.dma_inference.geometry_of` on the permuted
  storage shape) at the cheapest element-aligned start, through the
  cost model's own :func:`~repro.autotuner.cost_model.min_transfer_cycles`,
  so it stays below both the predicted and the simulated transfer.
  A zero-waste charge -- fixed overheads once per transfer, every byte
  at peak bandwidth -- is admissible too and sometimes larger (it
  counts the full tiles' bytes, where the transfer charge takes the
  smallest boundary tile); the DMA bound is the larger of the two.
* **Compute bound** -- the kernel's FLOPs retired at the throughput of
  the strategy's *own* kernel variant (the vec_dim/spm_layout decisions
  fully determine it before lowering), with zero init/drain/loop/call
  overhead.  The variant's steady-state k-step cost comes from the
  pipeline model, but is normalized by the *ideal* 16-cycle step even
  though every real variant needs >= 17 cycles -- a built-in >= 6%
  margin below the structural floor that absorbs the Eq. (2) fit's
  local undershoot.

A pipelined kernel can at best overlap the two, but not completely:
the transfers outside every pipelined loop (hoisted preloads, the
output write-back) and the fill share of the pipelined ones stay on the
critical path, as in the paper's static model (Sec. 4.6).  The **serial
floor** ``S`` charges each tensor's cheapest transfer once every time
the longest loop enclosing it starts (its fill count, see
:meth:`_DmaTerm.counts`), and the bound is ``max(T - S, C) + S`` for
the DMA term ``T`` and the compute term ``C`` -- computed as the equal
``max(T, C + S)``, which is never below ``max(T, C)``.  Any strategy
the decoder cannot interpret gets the vacuous bound 0.0, which never
prunes.

The search bounds whole spaces at once (:func:`space_bounds`): the
transfer and fill counts and the zero-waste charge depend only on a
strategy's skeleton (tiles and loop order), each tensor's cheapest
transfer only on the tiles of its own axes and its ``layout:``
decision, and the compute term only on the kernel variant, so each is
computed once per distinct value and broadcast over the space's
decision product.
:func:`strategy_bound` is the same arithmetic for one strategy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dsl.compute import ComputeDef, ShiftedDim
from ..dsl.schedule import ScheduleSpace, ScheduleStrategy
from ..errors import IllegalCandidateError
from ..ir.expr import AffineExpr
from ..ir.nodes import DmaGeometry, TileAccess
from ..machine.config import MachineConfig, default_config
from ..optimizer.dma_inference import geometry_of
from ..primitives.microkernel import (
    BLOCK_SCALARS,
    BLOCK_VECS,
    cycles_per_k_step,
)
from ..scheduler.lower import (
    LoweringOptions,
    kernel_variant,
    legal,
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
    #: the part of ``dma_cycles`` no pipeline can hide behind compute
    serial_cycles: float

    @property
    def cycles(self) -> float:
        """The admissible bound: DMA overlapped with compute except for
        the serial floor, ``max(T - S, C) + S == max(T, C + S)``."""
        return max(self.dma_cycles, self.compute_cycles + self.serial_cycles)


#: The never-prunes bound returned for undecodable strategies.
VACUOUS = StrategyBound(0.0, 0.0, 0, 0.0, 0.0)


def _tiles(
    compute: ComputeDef, strategy: ScheduleStrategy, axes
) -> Optional[Dict[str, int]]:
    """Tiles of ``axes`` as the decode-strategy pass reads them.

    Tiles are clipped into [1, extent] (an out-of-range tile would make
    the candidate illegal anyway); ``None`` means the strategy carries
    decisions the decoder cannot read -- the caller must fall back to
    the vacuous bound.
    """
    try:
        return {
            name: max(
                1,
                min(tile_decision(compute, strategy, name), compute.axes[name].extent),
            )
            for name in axes
        }
    except (TypeError, ValueError, IllegalCandidateError):
        return None


def _decode(
    compute: ComputeDef, strategy: ScheduleStrategy
) -> Optional[Tuple[Dict[str, int], Tuple[str, ...]]]:
    """Tiles and loop order as the decode-strategy pass reads them;
    ``None`` when either is undecodable."""
    tiles = _tiles(compute, strategy, compute.axes)
    if tiles is None:
        return None
    try:
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


def _dim_lengths(dim, tiles: Dict[str, int], compute: ComputeDef) -> Tuple[int, ...]:
    """Every length a tile of a tensor dimension takes: the full tile
    and the peeled boundary remainder of its axis (a shifted dim spans
    its spatial and kernel lengths, as the lowering's accesses do)."""

    def lengths(axis: str) -> Tuple[int, ...]:
        tail = compute.axes[axis].extent % tiles[axis]
        return (tiles[axis], tail) if tail else (tiles[axis],)

    if isinstance(dim, ShiftedDim):
        return tuple(
            sorted(
                {s + k - 1 for s in lengths(dim.spatial) for k in lengths(dim.kernel)}
            )
        )
    return lengths(dim)


_ZERO = AffineExpr(0)


@dataclass(frozen=True)
class _Tensor:
    name: str
    dims: tuple
    #: loop axes whose value selects the tensor's tile
    indexing: Tuple[str, ...]
    shape: Tuple[int, ...]


class _DmaTerm:
    """The DMA bound of one compute on one machine.

    For every tensor, the innermost *materialized* loop (trip count
    > 1) that indexes it determines how often its tile must be
    (re-)transferred; loops outside that tensor's indexing set multiply
    its total traffic (the tile is re-loaded although the data did not
    change -- even a perfect hoist cannot avoid that).  Un-tiled axes
    produce no loop and therefore no re-transfers, matching what the
    hoist pass achieves on the real IR.  :meth:`counts` reads only the
    skeleton (tile and order decisions).

    Two admissible charges follow from those counts, and the bound
    takes the larger: :meth:`traffic` streams every byte at peak
    bandwidth and pays each transfer's fixed overheads once; the
    transfer charge multiplies each tensor's count by its
    :meth:`cheapest` transfer, which reads only the tiles of the
    tensor's own axes and its ``layout:`` decision.  The serial floor
    multiplies each tensor's fill count by the same cheapest transfer.
    The cheapest transfer of each tile shape is memoized for the life
    of the term.
    """

    def __init__(self, compute: ComputeDef, cfg: MachineConfig) -> None:
        # deferred import: repro.autotuner's package init imports the
        # tuners, which import this package
        from ..autotuner.cost_model import min_transfer_cycles

        self._min_transfer_cycles = min_transfer_cycles
        self.compute = compute
        self.cfg = cfg
        self.tensors = [
            _Tensor(
                name,
                spec.dims,
                tuple(a for a in compute.axes if a in _indexing_axes(spec)),
                compute.tensor_shape(name),
            )
            for name, spec in compute.tensors.items()
        ]
        self._by_shape: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float] = {}
        self._by_geometry: Dict[DmaGeometry, float] = {}

    def counts(
        self, strategy: ScheduleStrategy
    ) -> Optional[List[Tuple[int, int, float]]]:
        """``(transfers, replication, fill)`` of every tensor under
        maximal hoisting; ``None`` when the skeleton is undecodable.

        ``fill`` is how many of the transfers stay on the critical path
        however the kernel is pipelined: ``transfers`` divided by the
        largest trip count among the loops enclosing the transfer (1
        for a tensor hoisted above every loop).  The cost model hides
        at most ``(E - 1) / E`` of a transfer inside a pipelined loop of
        extent ``E``, and charges every other transfer in full; taking
        the largest enclosing trip count keeps that a floor when the
        prefetch pass pipelines an outer loop, or the hoist pass leaves
        a transfer deeper (more transfers per pipeline iteration)."""
        decoded = _decode(self.compute, strategy)
        if decoded is None:
            return None
        tiles, order = decoded
        trips = {
            name: -(-axis.extent // tiles[name])
            for name, axis in self.compute.axes.items()
        }
        loops = [a for a in order if trips[a] > 1]
        out = []
        for tensor in self.tensors:
            last = -1
            for i, axis in enumerate(loops):
                if axis in tensor.indexing:
                    last = i
            enclosing = loops[: last + 1]
            execs = 1
            replication = 1
            for axis in enclosing:
                execs *= trips[axis]
                if axis not in tensor.indexing:
                    replication *= trips[axis]
            longest = max((trips[axis] for axis in enclosing), default=1)
            out.append((execs, replication, execs / longest))
        return out

    def traffic(
        self, counts: List[Tuple[int, int, float]]
    ) -> Tuple[float, int, float]:
        """The zero-waste charge ``(cycles, transfers, bytes)``: fixed
        overheads once per transfer, every byte at peak bandwidth."""
        cfg = self.cfg
        transfers = 0
        total_bytes = 0.0
        for tensor, (execs, replication, _) in zip(self.tensors, counts):
            transfers += execs
            total_bytes += math.prod(tensor.shape) * cfg.dtype_bytes * replication
        cycles = (
            transfers * (cfg.dma_latency_cycles + cfg.dma_issue_cycles)
            + total_bytes / cfg.dram_bytes_per_cycle
        )
        return cycles, transfers, total_bytes

    def cheapest(self, index: int, strategy: ScheduleStrategy) -> float:
        """The cheapest Eq. (1) transfer of tensor ``index`` over its
        full and boundary tile shapes and every start alignment, on the
        layout-permuted storage shape; nan when its tiles or layout are
        undecodable."""
        tensor = self.tensors[index]
        tiles = _tiles(self.compute, strategy, tensor.indexing)
        perm = _layout(strategy, tensor)
        if tiles is None or perm is None:
            return math.nan
        lengths = [_dim_lengths(dim, tiles, self.compute) for dim in tensor.dims]
        storage = tuple(tensor.shape[i] for i in perm)
        return min(
            self._floor(tensor.name, storage, shape)
            for shape in itertools.product(*(lengths[i] for i in perm))
        )

    def _floor(
        self, name: str, storage: Tuple[int, ...], shape: Tuple[int, ...]
    ) -> float:
        """The cheapest transfer of one tile shape, memoized by shape
        and by geometry (distinct shapes can share one)."""
        floor = self._by_shape.get((storage, shape))
        if floor is None:
            access = TileAccess(name, tuple((_ZERO, n) for n in shape))
            geo = geometry_of(access, storage, self.cfg)
            floor = self._by_geometry.get(geo)
            if floor is None:
                floor = self._by_geometry[geo] = self._min_transfer_cycles(
                    geo, self.cfg
                )
            self._by_shape[(storage, shape)] = floor
        return floor


def _layout(
    strategy: ScheduleStrategy, tensor: _Tensor
) -> Optional[Tuple[int, ...]]:
    """The tensor's ``layout:`` permutation as the lowering reads it
    (identity without a decision); ``None`` unless it is one."""
    perm = strategy.get(f"layout:{tensor.name}")
    rank = len(tensor.dims)
    if perm is None:
        return tuple(range(rank))
    try:
        perm = tuple(int(i) for i in perm)  # type: ignore[union-attr]
    except (TypeError, ValueError):
        return None
    return perm if sorted(perm) == list(range(rank)) else None


def strategy_bound(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    config: Optional[MachineConfig] = None,
) -> StrategyBound:
    """Admissible cost lower bound for one strategy of ``compute``."""
    cfg = config or default_config()
    term = _DmaTerm(compute, cfg)
    counts = term.counts(strategy)
    if counts is None:
        return VACUOUS
    flat_cycles, transfers, total_bytes = term.traffic(counts)
    charged = 0.0
    serial = 0.0
    for index, (execs, _, fill) in enumerate(counts):
        cheapest = term.cheapest(index, strategy)
        if math.isnan(cheapest):
            return VACUOUS
        charged = charged + execs * cheapest
        serial = serial + fill * cheapest
    return StrategyBound(
        dma_cycles=max(charged, flat_cycles),
        compute_cycles=_compute_cycles(compute, strategy, cfg),
        transfers=transfers,
        dma_bytes=total_bytes,
        serial_cycles=serial,
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

    Each factor of the bound is evaluated once per distinct combination
    of the decisions it reads -- the transfer and fill counts and the
    zero-waste charge per skeleton (tiles and loop order), each
    tensor's cheapest transfer per tiling of its own axes and its
    layout, the compute term per kernel variant -- through the same
    helpers as :func:`strategy_bound`, and laid out with size-1 axes
    for the decisions it ignores.  The tensors' transfer charges and
    serial floors are broadcast-summed in ``compute.tensors`` order and
    combined as in :func:`strategy_bound`, so every value is ``==``.  A
    skeleton or layout the decoder cannot read bounds its strategies
    by 0.0.
    """
    cfg = config or default_config()
    keys, pools = space.pools()
    # a key declared twice resolves to its last pool, as in strategies()
    position = {key: i for i, key in enumerate(keys)}

    def term(reads, fn) -> np.ndarray:
        """``fn`` over the product of the pools of ``reads``, with
        size-1 axes for the other decisions; a tuple-valued ``fn`` gets
        one more, last axis."""
        axes = sorted({position[k] for k in reads if k in position})
        values = np.array(
            [
                fn(ScheduleStrategy({keys[i]: v for i, v in zip(axes, combo)}))
                for combo in itertools.product(*(pools[i] for i in axes))
            ],
            dtype=np.float64,
        )
        shape = [len(pool) if i in axes else 1 for i, pool in enumerate(pools)]
        return values.reshape(shape + list(values.shape[1:]))

    dma_term = _DmaTerm(compute, cfg)
    n_tensors = len(dma_term.tensors)

    def skeleton_terms(skeleton: ScheduleStrategy) -> Tuple[float, ...]:
        """The zero-waste charge, then every tensor's transfer count,
        then every tensor's fill count."""
        counts = dma_term.counts(skeleton)
        if counts is None:
            return (math.nan,) * (1 + 2 * n_tensors)
        return (
            dma_term.traffic(counts)[0],
            *(execs for execs, _, _ in counts),
            *(fill for _, _, fill in counts),
        )

    skeleton = term(
        [f"tile:{name}" for name in compute.axes] + ["order"], skeleton_terms
    )
    charged = 0.0
    serial = 0.0
    for index, tensor in enumerate(dma_term.tensors):
        cheapest = term(
            [f"tile:{axis}" for axis in tensor.indexing]
            + [f"layout:{tensor.name}"],
            lambda s, index=index: dma_term.cheapest(index, s),
        )
        charged = charged + skeleton[..., 1 + index] * cheapest
        serial = serial + skeleton[..., 1 + n_tensors + index] * cheapest
    dma = np.maximum(charged, skeleton[..., 0])
    compute_cycles = term(
        _VARIANT_KEYS, lambda variant: _compute_cycles(compute, variant, cfg)
    )
    cycles = np.empty([len(pool) for pool in pools])
    cycles[...] = np.where(
        np.isnan(dma), 0.0, np.maximum(dma, compute_cycles + serial)
    )
    return cycles.ravel()


def definitely_infeasible(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    config: Optional[MachineConfig] = None,
    options: Optional[LoweringOptions] = None,
) -> bool:
    """True when lowering prunes this strategy: ``not legal(...)``."""
    # kept under this name only for the perfbench ledger's "bounds" hook
    return not legal(compute, strategy, options=options, config=config)
