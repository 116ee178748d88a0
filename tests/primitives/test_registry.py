"""Tests for the primitive registry and legality rules."""

import pytest

from repro.errors import IllegalCandidateError
from repro.primitives.gemm_kernel import COL_MAJOR, ROW_MAJOR
from repro.primitives.microkernel import ALL_VARIANTS, KernelVariant
from repro.primitives.registry import (
    PrimitiveInfo,
    PrimitiveRegistry,
    default_registry,
)


class TestRegistry:
    def test_default_has_eight_public_variants(self):
        reg = PrimitiveRegistry()
        assert len(reg.public_variants()) == 8

    def test_get_unknown(self):
        with pytest.raises(IllegalCandidateError):
            PrimitiveRegistry().get("nope")

    def test_register_manual_special(self):
        reg = PrimitiveRegistry()
        special = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        reg.register(
            "xmath_square",
            PrimitiveInfo(special, public=False, cycle_scale=0.9),
        )
        assert len(reg.public_variants()) == 8  # still hidden from swATOP
        cost = reg.cost(256, 256, 256, special)
        assert cost.total > 0

    def test_duplicate_registration_rejected(self):
        reg = PrimitiveRegistry()
        v = ALL_VARIANTS[0]
        with pytest.raises(IllegalCandidateError):
            reg.register(v.name, PrimitiveInfo(v))

    def test_cycle_scale_applies(self):
        reg = PrimitiveRegistry()
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        reg.register("fast", PrimitiveInfo(v, public=False, cycle_scale=0.5))
        normal = reg.cost(128, 128, 128, v).total
        # the named entry shares the variant; fetch via cost on the entry
        scaled = reg._entries["fast"].cycle_scale * normal
        assert scaled == pytest.approx(0.5 * normal)

    def test_default_registry_is_singleton(self):
        assert default_registry() is default_registry()


class TestLegality:
    def test_empty_tile_illegal(self):
        reg = PrimitiveRegistry()
        with pytest.raises(IllegalCandidateError):
            reg.check_legal(0, 8, 8, ALL_VARIANTS[0])

    def test_boundary_allowed_by_default(self):
        reg = PrimitiveRegistry()
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        reg.check_legal(3, 64, 64, v)  # M=3 < 4 lanes but boundary ok

    def test_strict_mode_requires_whole_vectors(self):
        reg = PrimitiveRegistry()
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        with pytest.raises(IllegalCandidateError):
            reg.check_legal(6, 64, 64, v, allow_boundary=False)
        reg.check_legal(8, 64, 64, v, allow_boundary=False)

    def test_strict_mode_checks_vec_dim_only(self):
        reg = PrimitiveRegistry()
        v = KernelVariant(ROW_MAJOR, ROW_MAJOR, "N")
        # N must be vector-aligned; M free
        reg.check_legal(6, 64, 64, v, allow_boundary=False)
        with pytest.raises(IllegalCandidateError):
            reg.check_legal(64, 6, 64, v, allow_boundary=False)

    def test_legal_variants_filtering(self):
        reg = PrimitiveRegistry()
        legal = reg.legal_variants(6, 64, 64, allow_boundary=False)
        assert legal
        assert all(v.vec_dim == "N" for v in legal)

    def test_best_variant_picks_minimum(self):
        reg = PrimitiveRegistry()
        legal = {
            v: reg.cost(8, 1024, 128, v).total
            for v in reg.legal_variants(8, 1024, 128)
        }
        variant = min(legal, key=legal.__getitem__)
        all_costs = [
            reg.cost(8, 1024, 128, v).total for v in reg.public_variants()
        ]
        assert legal[variant] == min(all_costs)
        assert variant.vec_dim == "N"  # skinny M favours vec-N
