"""Tests for the schedule space."""

import pytest

from repro.dsl.compute import ComputeDef
from repro.dsl.schedule import ScheduleSpace, default_factors
from repro.errors import DslError

from .test_compute import gemm_def


class TestDefaultFactors:
    def test_includes_extent(self):
        assert 100 in default_factors(100)

    def test_vector_aligned_candidates(self):
        cands = default_factors(256)
        assert {4, 8, 16, 32, 64, 128} <= set(cands)

    def test_no_candidate_exceeds_extent(self):
        for extent in (5, 17, 100, 513):
            assert all(c <= extent for c in default_factors(extent))

    def test_bad_extent(self):
        with pytest.raises(DslError):
            default_factors(0)


class TestDeclarations:
    def test_split_unknown_axis(self):
        sp = ScheduleSpace(gemm_def())
        with pytest.raises(DslError):
            sp.split("Q")

    def test_split_twice(self):
        sp = ScheduleSpace(gemm_def())
        sp.split("M")
        with pytest.raises(DslError):
            sp.split("M")

    def test_split_factor_exceeding_extent(self):
        sp = ScheduleSpace(gemm_def(m=32))
        with pytest.raises(DslError):
            sp.split("M", [64])

    def test_reorder_must_be_permutation(self):
        sp = ScheduleSpace(gemm_def())
        with pytest.raises(DslError):
            sp.reorder([("M", "N")])  # missing K
        sp.reorder([("M", "N", "K"), ("N", "M", "K")])

    def test_layout_must_be_permutation(self):
        sp = ScheduleSpace(gemm_def())
        with pytest.raises(DslError):
            sp.layout("A", [(0, 0)])
        sp.layout("A", [(0, 1), (1, 0)])

    def test_layout_unknown_tensor(self):
        sp = ScheduleSpace(gemm_def())
        with pytest.raises(DslError):
            sp.layout("Q", [(0,)])

    def test_vectorize_validation(self):
        sp = ScheduleSpace(gemm_def())
        with pytest.raises(DslError):
            sp.vectorize(["K"])
        sp.vectorize(["M", "N"])

    def test_spm_layout_validation(self):
        sp = ScheduleSpace(gemm_def())
        with pytest.raises(DslError):
            sp.spm_layout("c")
        with pytest.raises(DslError):
            sp.spm_layout("a", ["diagonal"])
        sp.spm_layout("a")

    def test_duplicate_choice(self):
        sp = ScheduleSpace(gemm_def())
        sp.vectorize()
        with pytest.raises(DslError):
            sp.vectorize()


class TestEnumeration:
    def test_size_is_product(self):
        sp = ScheduleSpace(gemm_def())
        sp.split("M", [32, 64])
        sp.split("N", [16, 32, 64])
        sp.vectorize()  # 2 candidates
        assert sp.size() == 2 * 3 * 2

    def test_strategies_cover_space(self):
        sp = ScheduleSpace(gemm_def())
        sp.split("M", [32, 64])
        sp.vectorize()
        strategies = list(sp.strategies())
        assert len(strategies) == 4
        combos = {(s.tile("M"), s["vec_dim"]) for s in strategies}
        assert combos == {(32, "M"), (32, "N"), (64, "M"), (64, "N")}

    @pytest.mark.parametrize("reorder", [True, False])
    def test_strategy_at_matches_enumeration(self, reorder):
        sp = ScheduleSpace(gemm_def())
        sp.split("M", [16, 32, 64])
        sp.split("N", [32])  # single-candidate decisions
        sp.split("K", [8, 16])
        if reorder:
            sp.reorder([("M", "N", "K"), ("N", "M", "K")])
        sp.vectorize(["N"])
        sp.spm_layout("a")
        strategies = list(sp.strategies())
        assert len(strategies) == sp.size()
        assert [sp.strategy_at(i) for i in range(sp.size())] == strategies
        for bad in (-1, sp.size()):
            with pytest.raises(IndexError):
                sp.strategy_at(bad)

    def test_strategy_at_of_empty_space(self):
        sp = ScheduleSpace(gemm_def())
        assert sp.size() == 1
        assert sp.strategy_at(0) == next(sp.strategies())

    def test_strategy_defaults_and_overrides(self):
        sp = ScheduleSpace(gemm_def())
        sp.split("M", [32, 64])
        sp.vectorize()
        s = sp.strategy(tile_M=64, vec_dim="N")
        assert s.tile("M") == 64
        assert s["vec_dim"] == "N"

    def test_strategy_unknown_override(self):
        sp = ScheduleSpace(gemm_def())
        sp.split("M", [32])
        with pytest.raises(DslError):
            sp.strategy(tile_Q=4)

    def test_strategy_accessors(self):
        sp = ScheduleSpace(gemm_def())
        sp.split("M", [32])
        s = sp.strategy()
        assert s.get("missing") is None
        with pytest.raises(DslError):
            s["missing"]
        assert "tile:M=32" in s.describe()
