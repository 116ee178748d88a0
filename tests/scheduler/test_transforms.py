"""The lowering's loop transformations: split and reorder.

Every axis splits into full tiles plus at most one peeled tail, so a
strategy's leaves are the product of each axis' (tile, tail) lengths
(:func:`~repro.scheduler.lower.leaf_table`); a loop order must permute
the axes (:func:`~repro.scheduler.lower.loop_order`).
"""

import pytest

from repro.dsl.schedule import ScheduleStrategy
from repro.errors import ScheduleError
from repro.ir import ForNode, walk
from repro.machine.config import default_config
from repro.primitives.microkernel import COL_MAJOR, KernelVariant
from repro.scheduler import LoweringOptions, legal, lower_strategy
from repro.scheduler.lower import leaf_table, loop_order

from .test_lower import gemm_cd, lower_gemm


def m_leaves(extent, factor):
    """The M lengths of the leaves of a GEMM with M = ``extent`` split
    by ``factor``, and its allocs."""
    cd = gemm_cd(extent, 64, 64)
    leaves, allocs = leaf_table(
        cd,
        {"M": factor, "N": 64, "K": 64},
        {name: tuple(range(len(spec.dims))) for name, spec in cd.tensors.items()},
        KernelVariant(COL_MAJOR, COL_MAJOR, "M"),
        LoweringOptions(),
        default_config(),
    )
    return sorted({key[0] for key in leaves}), allocs


def trips(kernel, var):
    return [n.extent for n in walk(kernel) if isinstance(n, ForNode) and n.var == var]


class TestSplit:
    def test_even_split(self):
        lengths, allocs = m_leaves(128, 32)
        assert lengths == [32]
        assert allocs[0].shape == (32, 64)  # spm_a: M x K

    def test_ragged_split(self):
        lengths, allocs = m_leaves(100, 32)
        assert lengths == [4, 32]
        assert allocs[0].shape == (32, 64)  # the full tile covers the tail

    def test_factor_one(self):
        assert m_leaves(7, 1)[0] == [1]

    def test_factor_equals_extent(self):
        assert m_leaves(7, 7)[0] == [7]

    def test_validation(self):
        cd = gemm_cd(8, 64, 64)
        for tile in (0, 9):
            strategy = ScheduleStrategy({"tile:M": tile})
            assert not legal(cd, strategy)
            with pytest.raises(ScheduleError):
                lower_strategy(cd, strategy)

    def test_split_fuse_roundtrip(self):
        _, kernel = lower_gemm(96, 64, 64, 24, 64, 64)
        assert trips(kernel, "cM") == [4]  # 4 x 24 == 96, no tail
        assert m_leaves(96, 24)[0] == [24]


class TestReorderFuse:
    def test_reorder_valid(self):
        strategy = ScheduleStrategy({"order": ("N", "M", "K")})
        assert loop_order(gemm_cd(), strategy) == ("N", "M", "K")

    def test_reorder_invalid(self):
        strategy = ScheduleStrategy({"order": ("M", "M", "K")})
        with pytest.raises(ScheduleError):
            loop_order(gemm_cd(), strategy)
