"""Tests for IR nodes, visitors, and the printer."""

import pytest

from repro.errors import IrError
from repro.ir.expr import AffineExpr, Cond
from repro.ir.nodes import (
    AllocSpmNode,
    ComputeOpNode,
    DmaCgNode,
    DmaGeometry,
    ForNode,
    GemmOpNode,
    IfThenElseNode,
    KernelNode,
    SeqNode,
    TileAccess,
    ZeroSpmNode,
)
from repro.ir.printer import pretty
from repro.ir.visitors import count_nodes, find_all, transform, walk
from repro.machine.dma import MEM_TO_SPM
from repro.primitives.microkernel import ALL_VARIANTS


def sample_access(var="i"):
    return TileAccess("T", ((AffineExpr.var(var) * 8, 8), (AffineExpr(0), 16)))


def sample_gemm():
    return GemmOpNode(
        m=8, n=16, k=4,
        a_spm="spm_a", b_spm="spm_b", c_spm="spm_c",
        a_map=((0,), (1,)), b_map=((0,), (1,)), c_map=((0,), (1,)),
        variant=ALL_VARIANTS[0],
        a_lens=(8, 4), b_lens=(4, 16), c_lens=(8, 16),
    )


def sample_kernel():
    body = ForNode(
        "i", 4,
        SeqNode([
            DmaCgNode(sample_access(), "spm_a", MEM_TO_SPM),
            sample_gemm(),
        ]),
    )
    return KernelNode(
        "k",
        allocs=[AllocSpmNode("spm_a", (8, 4)), AllocSpmNode("spm_c", (8, 16))],
        body=body,
    )


class TestValidation:
    def test_negative_extent(self):
        with pytest.raises(IrError):
            ForNode("i", -1)

    def test_alloc_bad_shape(self):
        with pytest.raises(IrError):
            AllocSpmNode("a", (0, 4))

    def test_tile_access_bad_length(self):
        with pytest.raises(IrError):
            TileAccess("T", ((AffineExpr(0), 0),))

    def test_tile_access_non_affine(self):
        with pytest.raises(IrError):
            TileAccess("T", ((3, 4),))  # type: ignore[arg-type]

    def test_gemm_bad_dims(self):
        with pytest.raises(IrError):
            GemmOpNode(
                m=0, n=1, k=1, a_spm="a", b_spm="b", c_spm="c",
                a_map=((0,), (1,)), b_map=((0,), (1,)), c_map=((0,), (1,)),
                variant=ALL_VARIANTS[0],
            )

    def test_compute_negative_cycles(self):
        with pytest.raises(IrError):
            ComputeOpNode("t", -1.0)

    def test_kernel_alloc_lookup(self):
        k = sample_kernel()
        assert k.alloc("spm_a").shape == (8, 4)
        with pytest.raises(IrError):
            k.alloc("nope")


class TestAccessProperties:
    def test_lengths_and_elems(self):
        acc = sample_access()
        assert acc.lengths == (8, 16)
        assert acc.elems == 128

    def test_variables(self):
        assert sample_access("j").variables() == frozenset({"j"})


class TestVisitors:
    def test_walk_covers_all(self):
        k = sample_kernel()
        kinds = [type(n).__name__ for n in walk(k)]
        assert "KernelNode" in kinds
        assert "ForNode" in kinds
        assert "GemmOpNode" in kinds

    def test_find_all(self):
        k = sample_kernel()
        assert len(find_all(k, DmaCgNode)) == 1
        assert len(find_all(k, AllocSpmNode)) == 2

    def test_count_nodes(self):
        k = sample_kernel()
        assert count_nodes(k, ForNode) == 1
        assert count_nodes(k) >= 6

    def test_transform_identity_preserves(self):
        k = sample_kernel()
        out = transform(k, lambda n: None)
        assert isinstance(out, KernelNode)
        assert pretty(out) == pretty(k)

    def test_transform_replaces(self):
        k = sample_kernel()

        def double_loops(n):
            if isinstance(n, ForNode):
                return ForNode(n.var, n.extent * 2, n.body)
            return None

        out = transform(k, double_loops)
        loops = find_all(out, ForNode)
        assert len(loops) == 1 and loops[0].extent == 8
        # original untouched
        loops = find_all(k, ForNode)
        assert len(loops) == 1 and loops[0].extent == 4


class TestPrinter:
    def test_pretty_contains_structure(self):
        text = pretty(sample_kernel())
        assert "kernel k {" in text
        assert "for i in range(4)" in text
        assert "gemm_op spm_c += spm_a x spm_b" in text
        assert "dma_sync T(" in text

    def test_pretty_geometry(self):
        dma = DmaCgNode(
            sample_access(), "spm_a", MEM_TO_SPM,
            geometry=DmaGeometry(8, 64, 192, 1),
        )
        assert "geom(blocks=8, block=64B, stride=192B" in pretty(dma)

    def test_pretty_if(self):
        node = IfThenElseNode(
            Cond(AffineExpr.var("i"), "==", 3),
            ZeroSpmNode("spm_c"),
            ZeroSpmNode("spm_a"),
        )
        text = pretty(node)
        assert "if (i == 3)" in text and "else" in text

    def test_pretty_pipelined_tag(self):
        loop = ForNode("i", 2, SeqNode([]), pipelined=True)
        assert "pipelined" in pretty(loop)


class TestWithChildren:
    def test_leaf_rejects_children(self):
        with pytest.raises(IrError):
            ZeroSpmNode("a").with_children([SeqNode([])])

    def test_kernel_roundtrip(self):
        k = sample_kernel()
        rebuilt = k.with_children(k.children())
        assert pretty(rebuilt) == pretty(k)

    def test_kernel_rejects_non_alloc(self):
        k = sample_kernel()
        kids = k.children()
        kids[0] = SeqNode([])
        with pytest.raises(IrError):
            k.with_children(kids)
