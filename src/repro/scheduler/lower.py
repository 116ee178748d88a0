"""Lowering: schedule seed + schedule strategy -> kernel IR.

This is the scheduler's core (Sec. 4.3 + Fig. 4 middle): a concrete
:class:`~repro.dsl.schedule.ScheduleStrategy` is applied to a
:class:`~repro.dsl.compute.ComputeDef`, producing a
:class:`~repro.ir.nodes.KernelNode`:

* every axis is **split** by its tile factor; the outer part becomes a
  loop, the inner part feeds the GEMM dims and tile extents;
* the loop nest follows the strategy's **order** (reduction axes must
  be innermost of the axes they reduce into -- the C tile accumulates
  in SPM across them, exactly like Alg. 2);
* **layout** choices permute main-memory tensors (changing DMA
  geometry) and fix the SPM storage order of the GEMM operands;
* the **vectorization** choice plus the SPM layouts select one of the
  eight kernel variants;
* ragged extents produce *boundary regions*: the split's remainder is
  peeled into epilogue code that either switches the primitive to the
  smaller tail parameters or applies lightweight zero-padding when the
  tail is below the vector width (Sec. 4.5.3);
* SPM capacity is checked against the 64 KB budget (with double
  buffering accounted for), pruning infeasible candidates.

The produced IR is *raw*: DMA nodes carry tile accesses but no per-CPE
geometry, and nothing is hoisted or double-buffered yet -- those are IR
optimizer passes (:mod:`repro.optimizer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.compute import REDUCTION, ComputeDef, ShiftedDim
from ..dsl.schedule import ScheduleStrategy
from ..errors import IllegalCandidateError, LoweringError
from ..ir.expr import AffineExpr
from ..ir.nodes import (
    AllocSpmNode,
    DmaCgNode,
    ForNode,
    GemmOpNode,
    KernelNode,
    Node,
    SeqNode,
    TileAccess,
    ZeroSpmNode,
)
from ..machine.config import MachineConfig, default_config
from ..machine.dma import MEM_TO_SPM, SPM_TO_MEM
from ..machine.spm import SpmAllocator, SpmBuffer
from ..primitives.microkernel import COL_MAJOR, ROW_MAJOR, KernelVariant
from ..primitives.registry import PrimitiveRegistry, default_registry


@dataclass
class LoweringOptions:
    """Knobs that are framework policy rather than schedule decisions."""

    #: reserve 2x SPM for the streamed operand tiles (the prefetch pass
    #: will double-buffer them); disable to lower the Fig. 10 baseline.
    double_buffer: bool = True
    #: minimum extent of the vectorized dimension a primitive accepts;
    #: smaller boundary tiles take the lightweight zero-padding path.
    min_vec_extent: int = 4


def axis_of_dim(dim) -> str:
    """The loop axis that drives a tensor dimension (shifted dims are
    driven by their spatial base; the kernel offset is additive)."""
    return dim.spatial if isinstance(dim, ShiftedDim) else dim


def lower_strategy(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    *,
    options: Optional[LoweringOptions] = None,
    config: Optional[MachineConfig] = None,
    registry: Optional[PrimitiveRegistry] = None,
) -> KernelNode:
    """Apply one schedule strategy to the seed and emit kernel IR.

    Thin wrapper over the verified pass pipeline: runs the
    decode-strategy / build-loop-nest / plan-spm stages on a
    :class:`~repro.passes.manager.PassManager`, which verifies the
    resulting IR.  Raises :class:`IllegalCandidateError` for strategies
    the scheduler must prune (bad loop order, SPM overflow, no legal
    primitive) and :class:`LoweringError` for structural problems in
    the seed itself.
    """
    # lazy import: repro.passes.lowering imports this module's helpers
    from ..passes.base import PassContext
    from ..passes.lowering import lowering_passes
    from ..passes.manager import PassManager

    ctx = PassContext(
        compute=compute,
        config=config or default_config(),
        strategy=strategy,
        options=options,
        registry=registry,
    )
    return PassManager(lowering_passes()).run(ctx)


def reference_lower_strategy(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    *,
    options: Optional[LoweringOptions] = None,
    config: Optional[MachineConfig] = None,
    registry: Optional[PrimitiveRegistry] = None,
) -> KernelNode:
    """The frozen pre-pipeline monolithic lowering.

    Kept verbatim as the oracle for the golden tests: the staged
    pipeline behind :func:`lower_strategy` must produce bit-identical
    IR to this function for any strategy.  Not used by any runtime
    consumer.
    """
    compute.validate()
    opts = options or LoweringOptions()
    cfg = config or default_config()
    reg = registry or default_registry()
    gemm = compute.gemm
    assert gemm is not None  # validate() guarantees

    tiles = _tile_sizes(compute, strategy)
    order = loop_order(compute, strategy)
    _check_order_legality(compute, order)
    _check_kernel_axes(compute, tiles)

    vec_dim = str(strategy.get("vec_dim", "M"))
    a_layout = str(strategy.get("spm_layout:a", COL_MAJOR))
    b_layout = str(strategy.get("spm_layout:b", COL_MAJOR))
    variant = KernelVariant(a_layout, b_layout, vec_dim)

    layouts = _tensor_layouts(compute, strategy)

    # --- tile geometry ----------------------------------------------------
    m_tile = tiles[gemm.m_axis]
    n_tile = math.prod(tiles[ax] for ax in gemm.n_axes)
    k_tile = tiles[gemm.k_axis]
    reg.check_legal(m_tile, n_tile, k_tile, variant)

    builder = _KernelBuilder(
        compute=compute,
        tiles=tiles,
        order=order,
        layouts=layouts,
        variant=variant,
        options=opts,
        config=cfg,
    )
    body = builder.build()

    allocs = builder.make_allocs()
    _check_spm(allocs, cfg, opts)

    return KernelNode(
        name=f"{compute.name}__{variant.name}",
        allocs=allocs,
        body=body,
        tensor_layouts=layouts,
    )


# ---------------------------------------------------------------------------
# strategy decoding & legality
# ---------------------------------------------------------------------------
def tile_decision(compute: ComputeDef, strategy: ScheduleStrategy, axis: str) -> int:
    """The tile size a strategy selects for ``axis``: its ``tile:<axis>``
    decision, or the extent (no split) when it has none.  Unchecked
    against the extent; a non-integer decision raises ``TypeError`` or
    ``ValueError``.  Shared by the decode-strategy pass and the pre-IR
    bounds (:mod:`repro.engine.bounds`), so the two cannot drift."""
    tile = strategy.get(f"tile:{axis}")
    return compute.axes[axis].extent if tile is None else int(tile)  # type: ignore[arg-type]


def _tile_sizes(compute: ComputeDef, strategy: ScheduleStrategy) -> Dict[str, int]:
    tiles: Dict[str, int] = {}
    for name, axis in compute.axes.items():
        tiles[name] = tile_decision(compute, strategy, name)
        if not (1 <= tiles[name] <= axis.extent):
            raise IllegalCandidateError(
                f"tile {tiles[name]} outside [1, {axis.extent}] for axis {name!r}"
            )
    return tiles


def loop_order(compute: ComputeDef, strategy: ScheduleStrategy) -> Tuple[str, ...]:
    """The loop order a strategy selects: its ``order`` decision, or
    every spatial axis before every reduction axis when it has none.
    Raises :class:`IllegalCandidateError` unless the order is a
    permutation of the axes."""
    order = strategy.get("order")
    if order is None:
        spatial = [a for a in compute.axes if compute.axes[a].kind != REDUCTION]
        reduction = [a for a in compute.axes if compute.axes[a].kind == REDUCTION]
        return tuple(spatial + reduction)
    order = tuple(order)  # type: ignore[arg-type]
    if set(order) != set(compute.axes):
        raise IllegalCandidateError(f"order {order} is not a permutation of the axes")
    return order


def kernel_variant(strategy: ScheduleStrategy) -> KernelVariant:
    """The micro-kernel variant a strategy's ``vec_dim`` and
    ``spm_layout:*`` decisions select (column-major operands and
    M-vectorization by default)."""
    return KernelVariant(
        str(strategy.get("spm_layout:a", COL_MAJOR)),
        str(strategy.get("spm_layout:b", COL_MAJOR)),
        str(strategy.get("vec_dim", "M")),
    )


def _check_order_legality(compute: ComputeDef, order: Sequence[str]) -> None:
    """Reduction axes must come after every spatial axis: the C tile
    lives in SPM across all reduction loops (Alg. 2's accumulation)."""
    seen_reduction = False
    for ax in order:
        if compute.axes[ax].kind == REDUCTION:
            seen_reduction = True
        elif seen_reduction:
            raise IllegalCandidateError(
                f"spatial axis {ax!r} nested inside a reduction loop: "
                "the SPM-resident C tile cannot accumulate correctly"
            )


def _check_kernel_axes(compute: ComputeDef, tiles: Dict[str, int]) -> None:
    """Reduction axes feeding shifted dims must iterate point-wise, or
    the accessed input window would exceed the GEMM extents."""
    for spec in compute.tensors.values():
        for dim in spec.dims:
            if isinstance(dim, ShiftedDim) and tiles[dim.kernel] != 1:
                raise IllegalCandidateError(
                    f"kernel axis {dim.kernel!r} must have tile factor 1 "
                    f"(got {tiles[dim.kernel]})"
                )


def _tensor_layouts(
    compute: ComputeDef, strategy: ScheduleStrategy
) -> Dict[str, Tuple[int, ...]]:
    layouts: Dict[str, Tuple[int, ...]] = {}
    for name, spec in compute.tensors.items():
        perm = strategy.get(f"layout:{name}")
        if perm is None:
            layouts[name] = tuple(range(len(spec.dims)))
        else:
            layouts[name] = tuple(int(i) for i in perm)  # type: ignore[arg-type]
    return layouts


def _padded(extent: int, lanes: int, opts: LoweringOptions) -> int:
    if extent >= opts.min_vec_extent and extent % lanes == 0:
        return extent
    return max(opts.min_vec_extent, -(-extent // lanes) * lanes)


def _check_spm(
    allocs: List[AllocSpmNode], cfg: MachineConfig, opts: LoweringOptions
) -> None:
    from ..optimizer.memplan import per_cpe_bytes

    buffers = [
        SpmBuffer(
            alloc.name,
            per_cpe_bytes(alloc, cfg),
            double_buffered=alloc.double_buffered,
        )
        for alloc in allocs
    ]
    try:
        SpmAllocator(cfg).plan(buffers)
    except Exception as exc:  # SpmCapacityError -> candidate pruned
        raise IllegalCandidateError(str(exc)) from exc


# ---------------------------------------------------------------------------
# the recursive builder
# ---------------------------------------------------------------------------
@dataclass
class _KernelBuilder:
    compute: ComputeDef
    tiles: Dict[str, int]
    order: Tuple[str, ...]
    layouts: Dict[str, Tuple[int, ...]]
    variant: KernelVariant
    options: LoweringOptions
    config: MachineConfig

    #: per-tensor maximum tile lengths seen (storage order), for allocs
    _max_lens: Dict[str, List[int]] = field(default_factory=dict)

    def build(self) -> Node:
        gemm = self.compute.gemm
        assert gemm is not None
        # position in the order where reduction loops begin
        self._red_level = len(self.order)
        for i, ax in enumerate(self.order):
            if self.compute.axes[ax].kind == REDUCTION:
                self._red_level = i
                break
        return self._build_level(0, {}, {})

    # --- loop nest ----------------------------------------------------------
    def _build_level(
        self,
        level: int,
        offsets: Dict[str, AffineExpr],
        lens: Dict[str, int],
    ) -> Node:
        if level == self._red_level:
            return self._build_output_region(level, offsets, lens)
        if level == len(self.order):
            return self._leaf(offsets, lens)
        return self._loop_over_axis(level, offsets, lens)

    def _build_output_region(
        self,
        level: int,
        offsets: Dict[str, AffineExpr],
        lens: Dict[str, int],
    ) -> Node:
        """Zero the C tile, run the reduction loops, write C back --
        the Alg. 2 accumulation structure."""
        gemm = self.compute.gemm
        assert gemm is not None
        if level == len(self.order):
            inner: Node = self._leaf(offsets, lens)
        else:
            inner = self._loop_over_reductions(level, offsets, lens)
        c_access = self._tile_access(gemm.c, offsets, lens)
        return SeqNode(
            [
                ZeroSpmNode("spm_c"),
                inner,
                DmaCgNode(access=c_access, spm="spm_c", direction=SPM_TO_MEM),
            ]
        )

    def _loop_over_reductions(
        self,
        level: int,
        offsets: Dict[str, AffineExpr],
        lens: Dict[str, int],
    ) -> Node:
        if level == len(self.order):
            return self._leaf(offsets, lens)
        return self._loop_over_axis(level, offsets, lens, in_reduction=True)

    def _loop_over_axis(
        self,
        level: int,
        offsets: Dict[str, AffineExpr],
        lens: Dict[str, int],
        *,
        in_reduction: bool = False,
    ) -> Node:
        axis = self.order[level]
        extent = self.compute.axes[axis].extent
        tile = self.tiles[axis]
        full_trips, tail = divmod(extent, tile)
        next_level = (
            self._loop_over_reductions if in_reduction else self._build_level
        )

        nodes: List[Node] = []
        if full_trips > 0:
            var = f"c{axis}"
            # a trip-count-1 loop collapses: its index is always zero
            start = AffineExpr.var(var) * tile if full_trips > 1 else AffineExpr(0)
            body = next_level(level + 1, offsets | {axis: start}, lens | {axis: tile})
            nodes.append(body if full_trips == 1 else ForNode(var, full_trips, body))
        if tail > 0:
            # boundary region: the peeled remainder iteration
            off = offsets | {axis: AffineExpr(full_trips * tile)}
            nodes.append(next_level(level + 1, off, lens | {axis: tail}))
        if len(nodes) == 1:
            return nodes[0]
        return SeqNode(nodes)

    # --- leaf: DMA in + gemm ---------------------------------------------------
    def _leaf(self, offsets: Dict[str, AffineExpr], lens: Dict[str, int]) -> Node:
        gemm = self.compute.gemm
        assert gemm is not None
        lanes = self.config.vector_lanes

        m = lens[gemm.m_axis]
        n = math.prod(lens[ax] for ax in gemm.n_axes)
        k = lens[gemm.k_axis]

        a_access = self._tile_access(gemm.a, offsets, lens)
        b_access = self._tile_access(gemm.b, offsets, lens)

        a_map, a_lens = self._mat_map(gemm.a, lens, role="a")
        b_map, b_lens = self._mat_map(gemm.b, lens, role="b")
        c_map, c_lens = self._mat_map(gemm.c, lens, role="c")

        # boundary processing: switch parameters, or lightweight-pad the
        # vectorized dim up to a whole vector (Sec. 4.5.3).  Padding is
        # applied to the operand *views*: the buffers are allocated at
        # the padded shape, DMA fills the real region, and the pad is
        # zeroed so the extra lanes contribute nothing.
        gm, gn = m, n
        padded = False
        if self.variant.vec_dim == "M":
            gm = _padded(m, lanes, self.options)
            if gm != m:
                padded = True
                a_lens = _inflate_m(a_lens, a_map, gm)
                c_lens = _inflate_m(c_lens, c_map, gm)
        else:
            gn_target = _padded(n, lanes, self.options)
            if gn_target != n:
                padded = True
                b_lens = _inflate_last_col(b_lens, b_map, gn_target)
                c_lens = _inflate_last_col(c_lens, c_map, gn_target)
                gn = math.prod(b_lens[i] for i in b_map[1])

        # allocs must cover the padded views
        self._note_lens(gemm.a, list(a_lens))
        self._note_lens(gemm.b, list(b_lens))
        self._note_lens(gemm.c, list(c_lens))

        body: List[Node] = []
        if padded:
            # stale data in the pad region would corrupt the product
            pad_buf = "spm_a" if self.variant.vec_dim == "M" else "spm_b"
            body.append(ZeroSpmNode(pad_buf))
        body.append(DmaCgNode(access=a_access, spm="spm_a", direction=MEM_TO_SPM))
        body.append(DmaCgNode(access=b_access, spm="spm_b", direction=MEM_TO_SPM))
        body.append(
            GemmOpNode(
                m=gm,
                n=gn,
                k=k,
                a_spm="spm_a",
                b_spm="spm_b",
                c_spm="spm_c",
                a_map=a_map,
                b_map=b_map,
                c_map=c_map,
                variant=self.variant,
                accumulate=True,
                a_lens=a_lens,
                b_lens=b_lens,
                c_lens=c_lens,
            )
        )
        return SeqNode(body)

    # --- tensor access -----------------------------------------------------------
    def _tile_access(
        self,
        tensor: str,
        offsets: Dict[str, AffineExpr],
        lens: Dict[str, int],
    ) -> TileAccess:
        spec = self.compute.tensors[tensor]
        perm = self.layouts[tensor]
        dims: List[Tuple[AffineExpr, int]] = []
        logical: List[Tuple[AffineExpr, int]] = []
        for dim in spec.dims:
            if isinstance(dim, ShiftedDim):
                off = offsets[dim.spatial] + offsets[dim.kernel]
                length = lens[dim.spatial] + lens[dim.kernel] - 1
            else:
                off = offsets[dim]
                length = lens[dim]
            logical.append((off, length))
        for i in perm:
            dims.append(logical[i])
        self._note_lens(tensor, [length for _, length in dims])
        return TileAccess(buffer=tensor, dims=tuple(dims))

    def _note_lens(self, tensor: str, lens: List[int]) -> None:
        cur = self._max_lens.setdefault(tensor, [0] * len(lens))
        for i, length in enumerate(lens):
            cur[i] = max(cur[i], length)

    # --- gemm operand maps ----------------------------------------------------------
    def _mat_map(
        self, tensor: str, lens: Dict[str, int], *, role: str
    ) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...]]:
        """How the tile (in storage order) reshapes into the GEMM matrix.

        Returns ``((row_dims, col_dims), tile_lens)`` with dims referring
        to positions in the *storage-order* tile; N-side columns are
        listed in the seed's ``n_axes`` fusion order so B and C flatten
        identically.
        """
        gemm = self.compute.gemm
        assert gemm is not None
        spec = self.compute.tensors[tensor]
        perm = self.layouts[tensor]
        axes_in_storage = [axis_of_dim(spec.dims[i]) for i in perm]
        tile_lens = []
        for i in perm:
            dim = spec.dims[i]
            if isinstance(dim, ShiftedDim):
                tile_lens.append(lens[dim.spatial] + lens[dim.kernel] - 1)
            else:
                tile_lens.append(lens[dim])

        if role == "a":
            row_axis, col_spec = gemm.m_axis, (gemm.k_axis,)
        elif role == "b":
            row_axis, col_spec = gemm.k_axis, gemm.n_axes
        else:
            row_axis, col_spec = gemm.m_axis, gemm.n_axes

        rows = tuple(
            i for i, ax in enumerate(axes_in_storage) if ax == row_axis
        )
        cols: List[int] = []
        for ax in col_spec:
            cols.extend(i for i, a in enumerate(axes_in_storage) if a == ax)
        used = set(rows) | set(cols)
        for i, length in enumerate(tile_lens):
            if i in used:
                continue
            if length != 1:
                raise LoweringError(
                    f"tensor {tensor!r} dim {i} (axis {axes_in_storage[i]!r}) "
                    f"is outside the GEMM mapping but has tile length {length}"
                )
            cols.append(i)  # singleton: flattens harmlessly
        if not rows:
            raise LoweringError(
                f"tensor {tensor!r} has no dimension for GEMM role {role!r}"
            )
        return ((rows, tuple(cols)), tuple(tile_lens))

    # --- allocations --------------------------------------------------------------
    def make_allocs(self) -> List[AllocSpmNode]:
        """SPM buffers sized to the largest (padded) tile each leaf
        views; the streamed A/B operands reserve double-buffer space
        when the prefetch pass is expected to run."""
        gemm = self.compute.gemm
        assert gemm is not None
        allocs = []
        for spm_name, tensor in (
            ("spm_a", gemm.a),
            ("spm_b", gemm.b),
            ("spm_c", gemm.c),
        ):
            shape = tuple(self._max_lens[tensor])
            layout = (
                self.variant.a_layout
                if spm_name == "spm_a"
                else self.variant.b_layout
                if spm_name == "spm_b"
                else (COL_MAJOR if self.variant.vec_dim == "M" else ROW_MAJOR)
            )
            allocs.append(
                AllocSpmNode(
                    name=spm_name,
                    shape=shape,
                    matrix_layout=layout,
                    double_buffered=(
                        self.options.double_buffer and spm_name != "spm_c"
                    ),
                )
            )
        return allocs


def _inflate_m(
    lens: Tuple[int, ...], mat_map, target: int
) -> Tuple[int, ...]:
    """Grow the (single) row dim of a map so the matrix reaches
    ``target`` rows (vec-M boundary padding)."""
    rows = mat_map[0]
    out = list(lens)
    cur = math.prod(out[i] for i in rows)
    if cur < target:
        out[rows[-1]] = -(-target * out[rows[-1]] // cur)
    return tuple(out)


def _inflate_last_col(
    lens: Tuple[int, ...], mat_map, target: int
) -> Tuple[int, ...]:
    """Grow the innermost fused column dim so the flattened column
    extent reaches at least ``target`` (vec-N boundary padding).  The
    pad interleaves through the flattened N, which is harmless: the pad
    region is zeroed before the product and never written back."""
    cols = mat_map[1]
    out = list(lens)
    cur = math.prod(out[i] for i in cols)
    if cur < target:
        last = cols[-1] if cols else None
        if last is None:
            raise LoweringError("cannot pad a matrix with no column dims")
        others = cur // out[last]
        out[last] = -(-target // max(1, others))
    return tuple(out)

