"""Lowering as composable pipeline stages.

The 579-line ``scheduler/lower.py`` monolith is split into three named
stages registered on the :class:`~repro.passes.manager.PassManager`:

* ``decode-strategy`` -- validate the seed, decode the strategy's tile
  factors / loop order / layouts / kernel variant, and run every
  strategy-level legality check (loop-order, kernel-axis, primitive
  legality).  Runs before any IR exists; results land in ``ctx.state``.
* ``build-loop-nest`` -- the recursive builder: split every axis, nest
  the loops, peel boundary regions, emit raw DMA + gemm_op leaves, and
  size the SPM allocations.  Produces the root ``KernelNode``.
* ``plan-spm`` -- the coalesced memory plan of Sec. 4.7 over the
  allocs; an over-capacity plan raises
  :class:`~repro.errors.IllegalCandidateError` so the enumerator prunes
  the candidate exactly as before.  Establishes the ``spm-plan``
  invariant the verifier enforces from here on.

The stages call the same helpers (and in the same order) as the frozen
:func:`~repro.scheduler.lower.reference_lower_strategy`, so the lowered
IR is bit-identical -- the golden tests assert it.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..errors import IllegalCandidateError, LoweringError, SpmCapacityError
from ..ir.nodes import KernelNode
from ..machine.spm import SpmAllocator, SpmBuffer
from ..optimizer.memplan import per_cpe_bytes
from ..primitives.microkernel import KernelVariant
from ..primitives.registry import default_registry
from ..scheduler.lower import (
    LoweringOptions,
    _KernelBuilder,
    _check_kernel_axes,
    _check_order_legality,
    _tensor_layouts,
    _tile_sizes,
    kernel_variant,
    loop_order,
)
from .base import SPM_PLANNED, Pass, PassContext


def _require_strategy(ctx: PassContext):
    if ctx.strategy is None:
        raise LoweringError(
            f"lowering {ctx.compute.name!r} needs a schedule strategy on "
            "the pass context"
        )
    return ctx.strategy


class DecodeStrategyPass(Pass):
    """Strategy -> decoded tiling/order/layout/variant (+ legality)."""

    name = "decode-strategy"

    def run(self, ctx: PassContext, kernel: Optional[KernelNode]):
        compute = ctx.compute
        strategy = _require_strategy(ctx)
        compute.validate()
        gemm = compute.gemm
        assert gemm is not None  # validate() guarantees

        tiles = _tile_sizes(compute, strategy)
        order = loop_order(compute, strategy)
        _check_order_legality(compute, order)
        _check_kernel_axes(compute, tiles)

        variant = kernel_variant(strategy)
        layouts = _tensor_layouts(compute, strategy)

        m_tile = tiles[gemm.m_axis]
        n_tile = math.prod(tiles[ax] for ax in gemm.n_axes)
        k_tile = tiles[gemm.k_axis]
        reg = ctx.registry or default_registry()
        reg.check_legal(m_tile, n_tile, k_tile, variant)

        ctx.state["tiles"] = tiles
        ctx.state["order"] = order
        ctx.state["variant"] = variant
        ctx.state["layouts"] = layouts
        return None


class BuildLoopNestPass(Pass):
    """Decoded strategy -> raw kernel IR (loops, DMA leaves, allocs)."""

    name = "build-loop-nest"

    def run(self, ctx: PassContext, kernel: Optional[KernelNode]):
        if "tiles" not in ctx.state:
            raise LoweringError(
                "build-loop-nest needs decode-strategy to run first"
            )
        compute = ctx.compute
        opts = ctx.options or LoweringOptions()
        variant: KernelVariant = ctx.state["variant"]
        builder = _KernelBuilder(
            compute=compute,
            tiles=ctx.state["tiles"],
            order=ctx.state["order"],
            layouts=ctx.state["layouts"],
            variant=variant,
            options=opts,
            config=ctx.config,
        )
        body = builder.build()
        allocs = builder.make_allocs()
        return KernelNode(
            name=f"{compute.name}__{variant.name}",
            allocs=allocs,
            body=body,
            tensor_layouts=ctx.state["layouts"],
        )


class PlanSpmPass(Pass):
    """Coalesced SPM planning (Sec. 4.7) as a pipeline stage.

    Overflow raises :class:`IllegalCandidateError` -- the candidate is
    prunable, not broken.  The resulting plan is recorded in
    ``ctx.state['spm_plan']`` and the ``spm-plan`` invariant becomes
    active for the verifier.
    """

    name = "plan-spm"
    establishes = (SPM_PLANNED,)

    def run(self, ctx: PassContext, kernel: Optional[KernelNode]):
        if kernel is None:
            raise LoweringError("plan-spm needs a lowered kernel")
        buffers = [
            SpmBuffer(
                alloc.name,
                per_cpe_bytes(alloc, ctx.config),
                double_buffered=alloc.double_buffered,
            )
            for alloc in kernel.allocs
        ]
        try:
            ctx.state["spm_plan"] = SpmAllocator(ctx.config).plan(buffers)
        except SpmCapacityError as exc:  # candidate pruned
            raise IllegalCandidateError(str(exc)) from exc
        return None


def lowering_passes() -> List[Pass]:
    """The default lowering pipeline (strategy -> raw verified IR)."""
    return [DecodeStrategyPass(), BuildLoopNestPass(), PlanSpmPass()]
