"""Lowering as composable pipeline stages.

Three named stages registered on the
:class:`~repro.passes.manager.PassManager`, in this order:

* ``decode-strategy`` -- validate the seed, decode the strategy's tile
  factors / loop order / layouts / kernel variant, and run every
  strategy-level legality check (loop-order, kernel-axis, primitive
  legality).  Runs before any IR exists; results land in ``ctx.state``.
* ``plan-spm`` -- derive every leaf's geometry and the SPM allocs from
  the decoded strategy (:func:`~repro.scheduler.lower.leaf_table`, no
  IR built) and run the coalesced memory plan of Sec. 4.7 over them;
  an over-capacity plan raises
  :class:`~repro.errors.IllegalCandidateError` so the enumerator prunes
  the candidate.  Establishes the ``spm-plan`` invariant the verifier
  enforces from here on.
* ``build-loop-nest`` -- the recursive builder: split every axis, nest
  the loops, peel boundary regions, emit raw DMA + gemm_op leaves from
  the leaf table.  Produces the root ``KernelNode``.

Both pre-IR stages together are :func:`~repro.scheduler.lower.legal`,
the exact legality check; only a legal strategy builds a loop nest.
These stages are the only lowering; the golden tests pin a digest of
the IR they build for every strategy of seven fixed spaces
(``tests/passes/golden_ir.json``).  ``--dump-ir`` has no IR to print
around the two pre-IR stages.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..errors import IllegalCandidateError, LoweringError, SpmCapacityError
from ..ir.nodes import KernelNode
from ..optimizer.memplan import plan_allocs
from ..primitives.registry import default_registry
from ..scheduler.lower import (
    LoweringOptions,
    _KernelBuilder,
    _check_kernel_axes,
    _check_order_legality,
    _tensor_layouts,
    _tile_sizes,
    kernel_variant,
    leaf_table,
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


class PlanSpmPass(Pass):
    """Leaf table + coalesced SPM planning (Sec. 4.7), before any IR.

    Overflow raises :class:`IllegalCandidateError` -- the candidate is
    prunable, not broken.  The leaves, allocs and plan are recorded in
    ``ctx.state`` and the ``spm-plan`` invariant becomes active for the
    verifier.
    """

    name = "plan-spm"
    establishes = (SPM_PLANNED,)

    def run(self, ctx: PassContext, kernel: Optional[KernelNode]):
        if "tiles" not in ctx.state:
            raise LoweringError("plan-spm needs decode-strategy to run first")
        leaves, allocs = leaf_table(
            ctx.compute,
            ctx.state["tiles"],
            ctx.state["layouts"],
            ctx.state["variant"],
            ctx.options or LoweringOptions(),
            ctx.config,
        )
        try:
            ctx.state["spm_plan"] = plan_allocs(allocs, ctx.config)
        except SpmCapacityError as exc:  # candidate pruned
            raise IllegalCandidateError(str(exc)) from exc
        ctx.state["leaves"], ctx.state["allocs"] = leaves, allocs
        return None


class BuildLoopNestPass(Pass):
    """Decoded strategy + leaf table -> raw kernel IR."""

    name = "build-loop-nest"

    def run(self, ctx: PassContext, kernel: Optional[KernelNode]):
        if "leaves" not in ctx.state:
            raise LoweringError("build-loop-nest needs plan-spm to run first")
        compute = ctx.compute
        variant = ctx.state["variant"]
        body = _KernelBuilder(
            compute=compute,
            tiles=ctx.state["tiles"],
            order=ctx.state["order"],
            layouts=ctx.state["layouts"],
            variant=variant,
            leaves=ctx.state["leaves"],
        ).build()
        return KernelNode(
            name=f"{compute.name}__{variant.name}",
            allocs=ctx.state["allocs"],
            body=body,
            tensor_layouts=ctx.state["layouts"],
        )


def lowering_passes() -> List[Pass]:
    """The default lowering pipeline (strategy -> raw verified IR)."""
    return [DecodeStrategyPass(), PlanSpmPass(), BuildLoopNestPass()]
