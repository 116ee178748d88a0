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
  buffering accounted for), pruning infeasible candidates.  The check
  needs no IR: :func:`leaf_table` derives every leaf's geometry, and
  the allocs covering them, from the decoded strategy alone, so
  :func:`legal` decides legality before any loop nest is built.

The produced IR is *raw*: DMA nodes carry tile accesses but no per-CPE
geometry, and nothing is hoisted or double-buffered yet -- those are IR
optimizer passes (:mod:`repro.optimizer`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
from ..primitives.microkernel import COL_MAJOR, ROW_MAJOR, KernelVariant
from ..primitives.registry import PrimitiveRegistry


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
    decode-strategy / plan-spm / build-loop-nest stages on a
    :class:`~repro.passes.manager.PassManager`, which verifies the
    resulting IR.  Raises :class:`IllegalCandidateError` for strategies
    the scheduler must prune (bad loop order, SPM overflow, no legal
    primitive) and :class:`LoweringError` for structural problems in
    the seed itself.  This is the only lowering path; the golden tests
    pin its raw and optimized IR per strategy.
    """
    # lazy import: repro.passes.lowering imports this module's helpers
    from ..passes.lowering import lowering_passes
    from ..passes.manager import PassManager

    ctx = _context(compute, strategy, options, config, registry)
    return PassManager(lowering_passes()).run(ctx)


def legal(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    *,
    options: Optional[LoweringOptions] = None,
    config: Optional[MachineConfig] = None,
    registry: Optional[PrimitiveRegistry] = None,
) -> bool:
    """Whether :func:`lower_strategy` accepts the strategy, decided
    without building IR: runs the lowering stages before
    build-loop-nest (decode-strategy, plan-spm) and nothing else, so the
    two cannot drift.  Structural seed problems still raise
    :class:`LoweringError`."""
    from ..passes.lowering import lowering_passes

    ctx = _context(compute, strategy, options, config, registry)
    try:
        for stage in lowering_passes()[:-1]:  # all but build-loop-nest
            stage.run(ctx, None)
    except IllegalCandidateError:
        return False
    return True


def _context(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    options: Optional[LoweringOptions],
    config: Optional[MachineConfig],
    registry: Optional[PrimitiveRegistry],
):
    """The pass context both :func:`lower_strategy` and :func:`legal`
    run their stages in."""
    from ..passes.base import PassContext

    return PassContext(
        compute=compute, config=config or default_config(),
        strategy=strategy, options=options, registry=registry,
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


# ---------------------------------------------------------------------------
# leaf geometry, before any IR
# ---------------------------------------------------------------------------
#: how a tile (in storage order) reshapes into a GEMM matrix:
#: ``(row_dims, col_dims)``, positions in the storage-order tile
MatMap = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class Leaf:
    """One leaf shape of the loop nest: the GEMM operand maps, the
    operand views' storage-order lengths (padded at a boundary), the
    GEMM extents the primitive runs at, and whether padding applies."""

    a_map: MatMap
    b_map: MatMap
    c_map: MatMap
    a_lens: Tuple[int, ...]
    b_lens: Tuple[int, ...]
    c_lens: Tuple[int, ...]
    gm: int
    gn: int
    padded: bool


def leaf_table(
    compute: ComputeDef,
    tiles: Dict[str, int],
    layouts: Dict[str, Tuple[int, ...]],
    variant: KernelVariant,
    options: LoweringOptions,
    config: MachineConfig,
) -> Tuple[Dict[Tuple[int, ...], Leaf], List[AllocSpmNode]]:
    """The leaf geometry of a decoded strategy, with no IR built: every
    leaf shape keyed by its per-axis lengths (tile or tail, in
    ``compute.axes`` order), and the SPM allocs that cover them.

    The loop nest splits every axis into full tiles plus at most one
    peeled tail, so its leaves are exactly the product of each axis'
    (tile, tail) lengths.  Each alloc is the per-dimension maximum of
    its operand's (padded) lengths over all leaves; a leaf's DMA tile
    is never longer than its padded operand view.  The streamed A/B
    operands reserve double-buffer space when the prefetch pass is
    expected to run.
    """
    gemm = compute.gemm
    assert gemm is not None
    operands = (gemm.a, gemm.b, gemm.c)
    (a_map, _), (b_map, _), (c_map, _) = maps = [
        _mat_map(compute, layouts, tensor, role=role)
        for role, tensor in zip("abc", operands)
    ]
    names = tuple(compute.axes)
    lengths = []
    for name in names:
        tile = tiles[name]
        tail = compute.axes[name].extent % tile
        lengths.append((tile, tail) if tail else (tile,))

    leaves: Dict[Tuple[int, ...], Leaf] = {}
    for key in itertools.product(*lengths):
        lens = dict(zip(names, key))
        a_lens, b_lens, c_lens = (
            _storage_lens(compute, layouts, tensor, lens, outside)
            for tensor, (_, outside) in zip(operands, maps)
        )
        # boundary processing: switch parameters, or lightweight-pad the
        # vectorized dim up to a whole vector (Sec. 4.5.3).  Padding is
        # applied to the operand *views*: the buffers are allocated at
        # the padded shape, DMA fills the real region, and the pad is
        # zeroed so the extra lanes contribute nothing.
        gm = m = lens[gemm.m_axis]
        gn = n = math.prod(lens[ax] for ax in gemm.n_axes)
        if variant.vec_dim == "M":
            gm = _padded(m, config.vector_lanes, options)
            if gm != m:
                a_lens = _inflate_m(a_lens, a_map, gm)
                c_lens = _inflate_m(c_lens, c_map, gm)
        else:
            gn_target = _padded(n, config.vector_lanes, options)
            if gn_target != n:
                b_lens = _inflate_last_col(b_lens, b_map, gn_target)
                c_lens = _inflate_last_col(c_lens, c_map, gn_target)
                gn = math.prod(b_lens[i] for i in b_map[1])
        leaves[key] = Leaf(
            a_map, b_map, c_map, a_lens, b_lens, c_lens, gm, gn,
            padded=(gm, gn) != (m, n),
        )

    c_layout = COL_MAJOR if variant.vec_dim == "M" else ROW_MAJOR
    allocs = [
        AllocSpmNode(
            name=spm_name,
            shape=tuple(
                max(dim)
                for dim in zip(*(getattr(leaf, attr) for leaf in leaves.values()))
            ),
            matrix_layout=layout,
            double_buffered=options.double_buffer and spm_name != "spm_c",
        )
        for spm_name, attr, layout in (
            ("spm_a", "a_lens", variant.a_layout),
            ("spm_b", "b_lens", variant.b_layout),
            ("spm_c", "c_lens", c_layout),
        )
    ]
    return leaves, allocs


def _storage_lens(
    compute: ComputeDef,
    layouts: Dict[str, Tuple[int, ...]],
    tensor: str,
    lens: Dict[str, int],
    outside: Tuple[int, ...] = (),
) -> Tuple[int, ...]:
    """A tensor's tile lengths in storage order (a shifted dim spans its
    spatial tile plus the kernel window minus one); the dims
    ``outside`` the GEMM mapping must be singletons."""
    spec = compute.tensors[tensor]
    out = []
    for i in layouts[tensor]:
        dim = spec.dims[i]
        if isinstance(dim, ShiftedDim):
            out.append(lens[dim.spatial] + lens[dim.kernel] - 1)
        else:
            out.append(lens[dim])
    for i in outside:
        if out[i] != 1:
            axis = axis_of_dim(spec.dims[layouts[tensor][i]])
            raise LoweringError(
                f"tensor {tensor!r} dim {i} (axis {axis!r}) "
                f"is outside the GEMM mapping but has tile length {out[i]}"
            )
    return tuple(out)


def _mat_map(
    compute: ComputeDef,
    layouts: Dict[str, Tuple[int, ...]],
    tensor: str,
    *,
    role: str,
) -> Tuple[MatMap, Tuple[int, ...]]:
    """How a tile (in storage order) reshapes into the GEMM matrix.

    Returns ``((row_dims, col_dims), outside)`` with dims referring to
    positions in the *storage-order* tile; N-side columns are listed in
    the seed's ``n_axes`` fusion order so B and C flatten identically.
    The ``outside`` dims belong to no GEMM axis; they close the column
    list, where a singleton flattens harmlessly.
    """
    gemm = compute.gemm
    assert gemm is not None
    spec = compute.tensors[tensor]
    axes_in_storage = [axis_of_dim(spec.dims[i]) for i in layouts[tensor]]

    if role == "a":
        row_axis, col_spec = gemm.m_axis, (gemm.k_axis,)
    elif role == "b":
        row_axis, col_spec = gemm.k_axis, gemm.n_axes
    else:
        row_axis, col_spec = gemm.m_axis, gemm.n_axes

    rows = tuple(
        i for i, ax in enumerate(axes_in_storage) if ax == row_axis
    )
    if not rows:
        raise LoweringError(
            f"tensor {tensor!r} has no dimension for GEMM role {role!r}"
        )
    cols: List[int] = []
    for ax in col_spec:
        cols.extend(i for i, a in enumerate(axes_in_storage) if a == ax)
    used = set(rows) | set(cols)
    outside = tuple(i for i in range(len(axes_in_storage)) if i not in used)
    return (rows, tuple(cols) + outside), outside


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
    #: the strategy's leaves, from :func:`leaf_table`
    leaves: Dict[Tuple[int, ...], Leaf]

    def build(self) -> Node:
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
        leaf = self.leaves[tuple(lens[ax] for ax in self.compute.axes)]

        body: List[Node] = []
        if leaf.padded:
            # stale data in the pad region would corrupt the product
            pad_buf = "spm_a" if self.variant.vec_dim == "M" else "spm_b"
            body.append(ZeroSpmNode(pad_buf))
        for tensor, spm in ((gemm.a, "spm_a"), (gemm.b, "spm_b")):
            access = self._tile_access(tensor, offsets, lens)
            body.append(DmaCgNode(access=access, spm=spm, direction=MEM_TO_SPM))
        body.append(
            GemmOpNode(
                m=leaf.gm,
                n=leaf.gn,
                k=lens[gemm.k_axis],
                a_spm="spm_a",
                b_spm="spm_b",
                c_spm="spm_c",
                a_map=leaf.a_map,
                b_map=leaf.b_map,
                c_map=leaf.c_map,
                variant=self.variant,
                accumulate=True,
                a_lens=leaf.a_lens,
                b_lens=leaf.b_lens,
                c_lens=leaf.c_lens,
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
        logical: List[AffineExpr] = []
        for dim in spec.dims:
            if isinstance(dim, ShiftedDim):
                logical.append(offsets[dim.spatial] + offsets[dim.kernel])
            else:
                logical.append(offsets[dim])
        lengths = _storage_lens(self.compute, self.layouts, tensor, lens)
        dims = tuple(
            (logical[i], length) for i, length in zip(self.layouts[tensor], lengths)
        )
        return TileAccess(buffer=tensor, dims=dims)


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

