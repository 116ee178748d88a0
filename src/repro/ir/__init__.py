"""Intermediate representation of swATOP kernels (Sec. 4.4)."""

from .expr import AffineExpr, Cond
from .nodes import (
    AllocSpmNode,
    ComputeOpNode,
    DmaCgNode,
    DmaGeometry,
    DmaWaitNode,
    ForNode,
    GemmOpNode,
    IfThenElseNode,
    KernelNode,
    MatMap,
    Node,
    PrefetchNode,
    SeqNode,
    TileAccess,
    ZeroSpmNode,
)
from .printer import pretty
from .visitors import count_nodes, find_all, transform, walk

__all__ = [
    "AffineExpr",
    "Cond",
    "Node",
    "SeqNode",
    "ForNode",
    "IfThenElseNode",
    "AllocSpmNode",
    "TileAccess",
    "DmaCgNode",
    "DmaGeometry",
    "DmaWaitNode",
    "PrefetchNode",
    "ZeroSpmNode",
    "GemmOpNode",
    "ComputeOpNode",
    "KernelNode",
    "MatMap",
    "pretty",
    "walk",
    "find_all",
    "transform",
    "count_nodes",
]
