"""Tests for schedule-space enumeration and pruning, as the engine's
candidate pipeline walks the space."""

from repro.dsl import ScheduleSpace
from repro.engine import CandidatePipeline

from .test_lower import gemm_cd


def small_space(M=128, N=128, K=128):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [32, 64])
    sp.split("N", [32, 64])
    sp.split("K", [64])
    sp.vectorize()
    return cd, sp


class TestEnumeration:
    def test_all_legal_candidates_yielded(self):
        cd, sp = small_space()
        cands = list(CandidatePipeline(cd, sp).candidates())
        assert len(cands) == sp.size() == 8

    def test_stats_track_pruning(self):
        cd, sp = small_space()
        # add an order that is illegal (reduction outermost)
        sp.reorder([("M", "N", "K"), ("K", "M", "N")])
        pipe = CandidatePipeline(cd, sp)
        cands = list(pipe.candidates())
        assert pipe.stats.declared == 16
        assert pipe.stats.pruned == 8
        assert pipe.stats.legal == len(cands) == 8

    def test_limit(self):
        cd, sp = small_space()
        cands = list(CandidatePipeline(cd, sp).candidates(limit=3))
        assert len(cands) == 3

    def test_candidates_carry_distinct_kernels(self):
        cd, sp = small_space()
        cands = list(CandidatePipeline(cd, sp).candidates())
        names = {c.describe() for c in cands}
        assert len(names) == len(cands)

    def test_candidate_description(self):
        cd, sp = small_space()
        cand = next(CandidatePipeline(cd, sp).candidates())
        assert "tile:M" in cand.describe()
