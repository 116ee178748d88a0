"""Tests for the pipeline-derived micro-kernel cycle model."""

import pytest

from repro.autotuner.calibrate import default_coeffs, fit_all
from repro.errors import PipelineError
from repro.machine import vector as V
from repro.machine.config import default_config
from repro.machine.pipeline import schedule, steady_state_cycles
from repro.primitives import gemm_kernel
from repro.primitives.microkernel import (
    ALL_VARIANTS,
    COL_MAJOR,
    ROW_MAJOR,
    KernelVariant,
    _k_step_instrs,
    block_drain_cycles,
    block_init_cycles,
    cycles_per_k_step,
    schedule_memo_stats,
)

from ..machine.test_config_signature import slow_loads, slow_vmad


class TestVariantDefinitions:
    def test_eight_variants(self):
        assert len(ALL_VARIANTS) == 8
        assert len({v.name for v in ALL_VARIANTS}) == 8

    def test_validation(self):
        with pytest.raises(PipelineError):
            KernelVariant("diagonal", ROW_MAJOR, "M")
        with pytest.raises(PipelineError):
            KernelVariant(ROW_MAJOR, ROW_MAJOR, "K")

    def test_vec_contiguity_rules(self):
        """vec-M wants A column-major; vec-N wants B row-major
        (Sec. 4.3.2 layout rules)."""
        assert KernelVariant(COL_MAJOR, COL_MAJOR, "M").vec_operand_contiguous
        assert not KernelVariant(ROW_MAJOR, COL_MAJOR, "M").vec_operand_contiguous
        assert KernelVariant(COL_MAJOR, ROW_MAJOR, "N").vec_operand_contiguous
        assert not KernelVariant(COL_MAJOR, COL_MAJOR, "N").vec_operand_contiguous

    def test_names_stable(self):
        v = KernelVariant(COL_MAJOR, ROW_MAJOR, "M")
        assert v.name == "ac_br_vecm"


class TestDerivedCycles:
    def test_contiguous_variants_near_vmad_bound(self):
        """Well-laid-out variants sustain ~1 vmad/cycle: 16 vmads ->
        16-18 cycles per k-step (loop control costs a little)."""
        good = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        assert 16 <= cycles_per_k_step(good) <= 18

    def test_noncontiguous_vec_operand_is_much_slower(self):
        """Scalar load-and-pack roughly doubles the k-step: the effect
        that makes layout transformation worth a schedule dimension."""
        good = cycles_per_k_step(KernelVariant(COL_MAJOR, COL_MAJOR, "M"))
        bad = cycles_per_k_step(KernelVariant(ROW_MAJOR, COL_MAJOR, "M"))
        assert bad >= 1.7 * good

    def test_all_variants_at_least_vmad_bound(self):
        for v in ALL_VARIANTS:
            assert cycles_per_k_step(v) >= 16

    def test_symmetry_between_vec_dims(self):
        """vec-M with (A col, B col) mirrors vec-N with (B row, A row)."""
        m_side = cycles_per_k_step(KernelVariant(COL_MAJOR, COL_MAJOR, "M"))
        n_side = cycles_per_k_step(KernelVariant(ROW_MAJOR, ROW_MAJOR, "N"))
        assert m_side == n_side


class TestInitDrain:
    def test_init_nonzero_and_variant_dependent(self):
        good = block_init_cycles(KernelVariant(COL_MAJOR, COL_MAJOR, "M"))
        bad = block_init_cycles(KernelVariant(ROW_MAJOR, COL_MAJOR, "M"))
        assert good >= 16  # at least the 16 C loads
        assert bad > good

    def test_drain_covers_stores_plus_latency(self):
        cfg = default_config()
        drain = block_drain_cycles(KernelVariant(COL_MAJOR, COL_MAJOR, "M"))
        # 16 stores on one pipe + waiting out the last vmad latency
        assert drain >= 16
        assert drain <= 16 + cfg.latencies["vmad"] + 4

    def test_results_cached(self):
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        assert cycles_per_k_step(v) == cycles_per_k_step(v)


class TestScheduleMemo:
    def test_repeat_queries_hit_the_memo(self):
        v = KernelVariant(COL_MAJOR, ROW_MAJOR, "N")
        cycles_per_k_step(v)  # may miss or hit (shared across tests)
        before = schedule_memo_stats().hits
        cycles_per_k_step(v)
        after = schedule_memo_stats().hits
        assert after == before + 1

    def test_latency_table_splits_memo_entries(self):
        """The old lru_cache keyed on the config object, whose hash
        ignores the latency table -- two configs differing only in vmad
        latency shared one cached cycle count.  The signature-keyed
        memo must keep them apart."""
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        base = default_config()
        slow = base.with_overrides(
            latencies={**base.latencies, "vmad": base.latencies["vmad"] + 32}
        )
        assert slow == base  # dataclass equality is latency-blind...
        assert cycles_per_k_step(v, slow) > cycles_per_k_step(v, base)

    def test_drain_shared_across_variants(self):
        """The store sequence is variant-independent: after one variant
        warmed the memo, every other variant's drain is a pure hit."""
        drains = {block_drain_cycles(v) for v in ALL_VARIANTS}
        assert len(drains) == 1
        before = schedule_memo_stats().hits
        for v in ALL_VARIANTS:
            block_drain_cycles(v)
        assert schedule_memo_stats().hits == before + len(ALL_VARIANTS)


def _old_derivation(variant, cfg):
    """The derivation the table replaced: full ``schedule`` calls, the
    3- and 5-copy bodies scheduled separately, the drain per variant."""
    body = _k_step_instrs(variant, "e", "o") + _k_step_instrs(variant, "o", "e")
    c_block = [f"c{i}_{j}" for i in range(4) for j in range(4)]
    init = [V.load_vector(c, "cp") for c in c_block] + [
        ins for ins in _k_step_instrs(variant, "e", "e") if ins.op != "vmad"
    ]
    drain = schedule(
        [V.store_vector(c, "cp") for c in c_block],
        cfg,
        initial_ready={c: cfg.latencies["vmad"] for c in c_block},
    )
    return (
        steady_state_cycles(body, cfg) / 2.0,
        schedule(init, cfg).cycles,
        drain.cycles,
    )


ORACLE_CONFIGS = {
    "default": default_config(),
    "slow_vmad": slow_vmad(default_config()),
    "slow_loads": slow_loads(default_config()),
}


class TestTableMatchesOldDerivation:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_every_variant(self, name):
        cfg = ORACLE_CONFIGS[name]
        for v in ALL_VARIANTS:
            row = (
                cycles_per_k_step(v, cfg),
                block_init_cycles(v, cfg),
                block_drain_cycles(v, cfg),
            )
            assert row == _old_derivation(v, cfg), v.name

    def test_default_table_pinned(self):
        rows = [
            (cycles_per_k_step(v), block_init_cycles(v), block_drain_cycles(v))
            for v in ALL_VARIANTS
        ]
        assert [r[0] for r in rows] == [17, 33, 18, 18, 34, 34, 33, 17]
        assert [r[1] for r in rows] == [27, 45, 25, 25, 47, 47, 45, 27]
        assert {r[2] for r in rows} == {23}

    def test_calibration_fits_through_old_derivation(self, monkeypatch):
        """Eq. (2) coefficients fitted on the table equal those fitted
        on the old derivation."""
        cfg = default_config()
        from_table = default_coeffs(cfg)
        old = {v: _old_derivation(v, cfg) for v in ALL_VARIANTS}
        for index, name in enumerate(
            ("cycles_per_k_step", "block_init_cycles", "block_drain_cycles")
        ):
            monkeypatch.setattr(
                gemm_kernel, name, lambda v, c, i=index: old[v][i]
            )
        assert fit_all(config=cfg) == from_table
