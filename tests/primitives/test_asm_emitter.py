"""Tests for the template-based assembly-kernel emitter."""

import re

import pytest

from repro.primitives.asm_emitter import emit_all_kernels, emit_inner_loop
from repro.primitives.microkernel import (
    ALL_VARIANTS,
    COL_MAJOR,
    KernelVariant,
    cycles_per_k_step,
)


class TestEmission:
    def test_all_eight_kernels_emitted(self):
        text = emit_all_kernels()
        for v in ALL_VARIANTS:
            assert f"spm_gemm_{v.name}" in text
            assert f".Lk_loop_{v.name}" in text

    def test_steady_state_annotation_matches_model(self):
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        text = emit_inner_loop(v)
        m = re.search(r"steady state: ([\d.]+) cycles per k-step", text)
        assert m is not None
        assert float(m.group(1)) == pytest.approx(cycles_per_k_step(v), abs=0.1)

    def test_sixteen_vmads_per_step(self):
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        text = emit_inner_loop(v)
        # two rotated steps in the listing -> 32 vmads
        assert len(re.findall(r"\bvmad\b", text)) == 32

    def test_issue_slots_annotated(self):
        text = emit_inner_loop(ALL_VARIANTS[0])
        slots = re.findall(r"# c(\d+)\s+(P0|P1)", text)
        assert slots
        cycles = [int(c) for c, _ in slots]
        assert cycles == sorted(cycles)  # listed in issue order
        # dual issue actually happens: some cycle hosts both pipes
        from collections import Counter

        per_cycle = Counter(cycles)
        assert max(per_cycle.values()) == 2

    def test_loop_closed_with_branch(self):
        text = emit_inner_loop(ALL_VARIANTS[0])
        assert "bne" in text

    def test_good_variant_listing_is_bubble_free(self):
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        text = emit_inner_loop(v)
        m = re.search(r"(\d+) bubbles", text)
        assert m is not None
        assert int(m.group(1)) <= 3  # near-perfect issue density


class TestSummary:
    """Per-variant properties read off the emitted listings, which hold
    two rotated k-steps each."""

    LOADS = r"\b(vldd|vlddr|vlddc|vldder|vlddec|ldd)\b"

    def test_vmad_count_fixed_by_blocking(self):
        for v in ALL_VARIANTS:
            assert len(re.findall(r"\bvmad\b", emit_inner_loop(v))) == 2 * 16

    def test_contiguous_variants_load_less(self):
        variants = {v.name: v for v in ALL_VARIANTS}
        good = variants["ac_bc_vecm"]
        bad = variants["ar_bc_vecm"]
        assert good.vec_operand_contiguous and not bad.vec_operand_contiguous
        loads = {
            v: len(re.findall(self.LOADS, emit_inner_loop(v))) for v in (good, bad)
        }
        assert loads[bad] > loads[good]
        assert cycles_per_k_step(bad) > cycles_per_k_step(good)
