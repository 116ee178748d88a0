"""The IR verifier: structural invariants of pass-pipeline output.

A growing tuner fleet lowers and rewrites millions of kernels; a pass
that silently produces malformed IR corrupts every downstream stage
(mis-priced candidates, wrong functional results, executor crashes far
from the cause).  The verifier makes the contract explicit: the output
of every pipeline stage must satisfy

1. **declared buffers** -- every DMA / GEMM / zero-fill references an
   SPM buffer declared in the kernel's allocs, and every DMA tile
   access names a tensor of the compute seed;
2. **well-formed loop nesting** -- loop variables are not shadowed by
   nested loops, and every variable a DMA offset uses is bound by an
   enclosing loop; SPM allocations appear only at the kernel root;
3. **SPM capacity** (once ``spm-plan`` is established) -- the coalesced
   per-CPE plan of the allocs still fits the 64 KB scratch pad, so no
   optimizer pass grew the footprint past what the scheduler validated;
4. **consistent double-buffer phases** -- a pipelined loop only streams
   into double-buffered buffers, and no buffer is streamed by two
   nested pipelined loops (each buffer has exactly two phase copies);
5. **DMA geometry** (once ``dma-geometry`` is established) -- every DMA
   node carries its inferred per-CPE descriptor geometry.

:func:`check_kernel` returns the violations as strings.
:class:`~repro.passes.manager.PassManager` calls it once per run, on
the final kernel; when that list is non-empty (or a pass raised) it
re-checks every pass's recorded output in order and raises
:class:`~repro.errors.PassVerificationError` naming the first
offending pass.  :class:`~repro.codegen.executor.CompiledKernel`
checks again before a kernel executes.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set

from ..dsl.compute import ComputeDef
from ..errors import SpmCapacityError
from ..ir.nodes import (
    AllocSpmNode,
    DmaCgNode,
    ForNode,
    GemmOpNode,
    KernelNode,
    Node,
    ZeroSpmNode,
)
from ..ir.visitors import walk
from ..machine.config import MachineConfig, default_config
from ..optimizer.memplan import plan_spm
from ..optimizer.prefetch import direct_stream_dmas
from .base import DMA_GEOMETRY, SPM_PLANNED

#: invariants enforced unconditionally when check_kernel is called
#: standalone (a finished kernel should satisfy everything).
ALL_INVARIANTS: FrozenSet[str] = frozenset({SPM_PLANNED, DMA_GEOMETRY})


def check_kernel(
    kernel: KernelNode,
    *,
    compute: Optional[ComputeDef] = None,
    config: Optional[MachineConfig] = None,
    established: Iterable[str] = ALL_INVARIANTS,
) -> List[str]:
    """All structural-invariant violations of a kernel (empty = valid)."""
    cfg = config or default_config()
    held = set(established)
    out: List[str] = []
    out.extend(_check_buffer_refs(kernel, compute))
    out.extend(_check_loop_nesting(kernel))
    out.extend(_check_double_buffer_phases(kernel))
    if SPM_PLANNED in held:
        out.extend(_check_spm_capacity(kernel, cfg))
    if DMA_GEOMETRY in held:
        out.extend(_check_dma_geometry(kernel))
    return out


# ---------------------------------------------------------------------------
# individual invariants
# ---------------------------------------------------------------------------
def _check_buffer_refs(
    kernel: KernelNode, compute: Optional[ComputeDef]
) -> List[str]:
    out: List[str] = []
    allocs = {a.name for a in kernel.allocs}
    for node in walk(kernel.body):
        if isinstance(node, DmaCgNode):
            if node.spm not in allocs:
                out.append(
                    f"DMA targets undeclared SPM buffer {node.spm!r} "
                    f"(allocs: {sorted(allocs)})"
                )
            if compute is not None and node.access.buffer not in compute.tensors:
                out.append(
                    f"DMA accesses unknown tensor {node.access.buffer!r} "
                    f"(tensors: {sorted(compute.tensors)})"
                )
        elif isinstance(node, ZeroSpmNode):
            if node.spm not in allocs:
                out.append(
                    f"zero_spm targets undeclared SPM buffer {node.spm!r}"
                )
        elif isinstance(node, GemmOpNode):
            for role, name in (
                ("A", node.a_spm), ("B", node.b_spm), ("C", node.c_spm)
            ):
                if name not in allocs:
                    out.append(
                        f"gemm_op operand {role} references undeclared "
                        f"SPM buffer {name!r}"
                    )
    return out


def _check_loop_nesting(kernel: KernelNode) -> List[str]:
    out: List[str] = []

    def visit(node: Node, bound: Set[str]) -> None:
        if isinstance(node, AllocSpmNode):
            out.append(
                f"SPM alloc {node.name!r} nested in the kernel body "
                "(allocs belong on the kernel root)"
            )
        if isinstance(node, DmaCgNode):
            free = node.access.variables() - bound
            if free:
                out.append(
                    f"DMA access of {node.access.buffer!r} uses unbound "
                    f"loop variable(s) {sorted(free)}"
                )
        if isinstance(node, ForNode):
            if node.var in bound:
                out.append(
                    f"loop variable {node.var!r} shadowed by a nested loop"
                )
            bound = bound | {node.var}
        for child in node.children():
            visit(child, bound)

    visit(kernel.body, set())
    return out


def _check_spm_capacity(kernel: KernelNode, cfg: MachineConfig) -> List[str]:
    try:
        plan_spm(kernel, cfg)
    except SpmCapacityError as exc:
        return [f"SPM plan violates capacity: {exc}"]
    return []


def _check_double_buffer_phases(kernel: KernelNode) -> List[str]:
    """Double buffering gives each streamed buffer exactly two phase
    copies (one filling, one computing), so:

    * a pipelined loop streams only into double-buffered buffers;
    * one iteration fills each buffer at most once (a second fill
      would clobber the first tile before its GEMM consumes it);
    * no buffer is streamed by two *nested* pipelined loops -- the two
      pipelines' phase assignments would race over the same two
      copies.  Sequential (sibling) pipelined loops are fine: each
      runs its pipeline to completion before the next starts.
    """
    out: List[str] = []
    declared = kernel_alloc_names(kernel)
    double_buffered = {a.name for a in kernel.allocs if a.double_buffered}

    def visit(node: Node, active: dict) -> None:
        if isinstance(node, ForNode) and node.pipelined:
            streamed: dict = {}
            for dma in direct_stream_dmas(node):
                streamed[dma.spm] = streamed.get(dma.spm, 0) + 1
            for spm, fills in streamed.items():
                if spm in declared and spm not in double_buffered:
                    out.append(
                        f"pipelined loop {node.var!r} streams into {spm!r} "
                        "which has no double-buffer reservation"
                    )
                if fills > 1:
                    out.append(
                        f"pipelined loop {node.var!r} fills {spm!r} "
                        f"{fills} times per iteration: no free phase copy "
                        "to prefetch into"
                    )
                if spm in active:
                    out.append(
                        f"buffer {spm!r} streamed by nested pipelined "
                        f"loops ({active[spm]!r} and {node.var!r}): phase "
                        "assignments race"
                    )
            active = {**active, **{s: node.var for s in streamed}}
        for child in node.children():
            visit(child, active)

    visit(kernel.body, {})
    return out


def _check_dma_geometry(kernel: KernelNode) -> List[str]:
    out: List[str] = []
    for node in walk(kernel.body):
        if isinstance(node, DmaCgNode) and node.geometry is None:
            out.append(
                f"DMA of {node.access.buffer!r} -> {node.spm!r} has no "
                "inferred geometry"
            )
    return out


def kernel_alloc_names(kernel: KernelNode) -> Set[str]:
    return {a.name for a in kernel.allocs}

