"""Hiding memory access latency: automatic double buffering (Sec. 4.5.2).

swATOP prefetches the next iteration's tiles while the current
iteration computes.  The pass:

* finds every loop that *directly* issues mem->SPM transfers (not
  through a nested loop) and also performs tensorized compute, and
  marks it ``pipelined``;
* verifies the streamed SPM buffers are double-buffered (two identical
  copies: one computing, one filling -- the allocation the lowering
  reserved);
* asserts the prefetched accesses are affine in the loop variable,
  which is the paper's applicability condition ("readily applicable to
  loop nests in which the data access is a function of the enclosing
  loop variables").

The executor gives a ``pipelined`` loop its overlap semantics: the
transfers for iteration ``i+1`` are issued when iteration ``i`` starts
computing, and iteration ``i+1`` begins by waiting on them.  The C
emitter prints the equivalent reply-word/if-then-else code.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..errors import IrError
from ..ir.nodes import (
    DmaCgNode,
    ForNode,
    GemmOpNode,
    KernelNode,
    Node,
)
from ..ir.visitors import transform, walk
from ..machine.dma import MEM_TO_SPM


def direct_stream_dmas(loop: ForNode) -> List[DmaCgNode]:
    """The mem->SPM transfers issued by this loop itself (transfers in
    nested loops belong to those loops' pipelines)."""

    out: List[DmaCgNode] = []

    def visit(node: Node) -> None:
        if isinstance(node, DmaCgNode) and node.direction == MEM_TO_SPM:
            out.append(node)
            return
        if isinstance(node, ForNode):
            return  # stop at nested loops
        for child in node.children():
            visit(child)

    visit(loop.body)
    return out


def _has_direct_compute(loop: ForNode) -> bool:
    def visit(node: Node) -> bool:
        if isinstance(node, GemmOpNode):
            return True
        if isinstance(node, ForNode):
            return any(visit(c) for c in node.children())
        return any(visit(c) for c in node.children())

    return visit(loop.body)


def apply_prefetch(kernel: KernelNode) -> KernelNode:
    """Mark streaming loops as pipelined; returns a new kernel.

    Raises :class:`IrError` if a streamed buffer was not allocated with
    double-buffer space -- the capacity reservation and the overlap
    semantics must agree or the simulated kernel would be reading a
    buffer while the DMA engine overwrites it.
    """
    double_buffered: Set[str] = {
        a.name for a in kernel.allocs if a.double_buffered
    }

    def mark(node: Node) -> Optional[Node]:
        if not isinstance(node, ForNode) or node.pipelined:
            return None
        dmas = direct_stream_dmas(node)
        if not dmas or not _has_direct_compute(node):
            return None
        # double buffering gives each streamed buffer exactly two
        # copies: one filling, one computing.  A body that fills the
        # same buffer twice per iteration (e.g. a peeled K-tail after a
        # collapsed K loop) has no free copy to prefetch into -- issuing
        # both at iteration start would clobber the first tile before
        # its GEMM consumes it.
        per_buffer: dict = {}
        for dma in dmas:
            per_buffer[dma.spm] = per_buffer.get(dma.spm, 0) + 1
        if any(count > 1 for count in per_buffer.values()):
            return None
        # a nested pipelined loop already alternates the phases of any
        # buffer it streams; pipelining this loop onto the same buffers
        # would race the two pipelines' phase assignments (each buffer
        # has exactly two copies).  The transform runs post-order, so
        # inner loops are marked first and win.
        mine = {d.spm for d in dmas}
        for inner in walk(node.body):
            if isinstance(inner, ForNode) and inner.pipelined:
                streamed = {d.spm for d in direct_stream_dmas(inner)}
                if streamed & mine:
                    return None
        for dma in dmas:
            if dma.spm not in double_buffered:
                raise IrError(
                    f"loop {node.var!r} streams into {dma.spm!r} which has "
                    "no double-buffer reservation; lower with "
                    "LoweringOptions(double_buffer=True)"
                )
        if not any(node.var in dma.access.variables() for dma in dmas):
            # every transfer is loop-invariant: nothing to stream (the
            # hoisting pass removes such loops' transfers when it can)
            return None
        return ForNode(node.var, node.extent, node.body, pipelined=True)

    out = transform(kernel, mark)
    assert isinstance(out, KernelNode)
    return out


def pipelined_loops(kernel: KernelNode) -> List[ForNode]:
    return [n for n in walk(kernel) if isinstance(n, ForNode) and n.pipelined]

