"""Primitive registry and legality rules.

The scheduler prunes schedule strategies whose GEMM sites cannot be
served by any kernel variant; the rules here encode the constraints the
paper attributes to the hand-written kernels:

* the vectorized dimension of a tile must reach at least one vector
  (4 elements) -- smaller boundaries go through boundary processing;
* operand tiles must fit the SPM plan (checked elsewhere via
  :mod:`repro.machine.spm`);
* layouts must match one of the eight implemented variants (always
  true by construction, but the registry is the single source of truth
  for "what exists", including manual-library-only specials).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import IllegalCandidateError
from ..machine.config import MachineConfig, default_config
from .gemm_kernel import GemmCost, kernel_cycles
from .microkernel import ALL_VARIANTS, KernelVariant


@dataclass(frozen=True)
class PrimitiveInfo:
    """Registry entry for one kernel variant."""

    variant: KernelVariant
    #: available to swATOP's scheduler (False = manual-library special).
    public: bool = True
    #: multiplier on the structural cycle count (manual specials can be
    #: slightly better than the generic template inside their niche).
    cycle_scale: float = 1.0
    min_vec_extent: int = 4


class PrimitiveRegistry:
    """All GEMM primitives known to the system."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or default_config()
        self._entries: Dict[str, PrimitiveInfo] = {
            v.name: PrimitiveInfo(v) for v in ALL_VARIANTS
        }

    def register(self, name: str, info: PrimitiveInfo) -> None:
        if name in self._entries:
            raise IllegalCandidateError(f"primitive {name!r} already registered")
        self._entries[name] = info

    def get(self, name: str) -> PrimitiveInfo:
        try:
            return self._entries[name]
        except KeyError:
            raise IllegalCandidateError(f"unknown primitive {name!r}") from None

    def public_variants(self) -> List[KernelVariant]:
        return [e.variant for e in self._entries.values() if e.public]

    # --- legality -----------------------------------------------------------
    def check_legal(
        self,
        m: int,
        n: int,
        k: int,
        variant: KernelVariant,
        *,
        allow_boundary: bool = True,
    ) -> None:
        """Raise :class:`IllegalCandidateError` if the variant cannot
        serve an (m, n, k) tile.

        With ``allow_boundary`` the vectorized extent may be any
        positive size (boundary processing pads it); without, it must be
        a whole number of vectors -- the constraint the paper notes
        vectorization imposes on loop lengths (Sec. 4.3.3).
        """
        info = self.get(variant.name)
        if m <= 0 or n <= 0 or k <= 0:
            raise IllegalCandidateError(f"empty GEMM tile ({m}, {n}, {k})")
        lanes = self.config.vector_lanes
        vec_extent = m if variant.vec_dim == "M" else n
        if allow_boundary:
            if vec_extent < 1:
                raise IllegalCandidateError("vectorized extent must be positive")
        else:
            if vec_extent < info.min_vec_extent:
                raise IllegalCandidateError(
                    f"vectorized extent {vec_extent} below minimum "
                    f"{info.min_vec_extent} for {variant.name}"
                )
            if vec_extent % lanes:
                raise IllegalCandidateError(
                    f"vectorized extent {vec_extent} not a multiple of "
                    f"{lanes} lanes (boundary processing disabled)"
                )

    def legal_variants(
        self, m: int, n: int, k: int, *, allow_boundary: bool = True
    ) -> List[KernelVariant]:
        out = []
        for variant in self.public_variants():
            try:
                self.check_legal(m, n, k, variant, allow_boundary=allow_boundary)
            except IllegalCandidateError:
                continue
            out.append(variant)
        return out

    def cost(self, m: int, n: int, k: int, variant: KernelVariant) -> GemmCost:
        info = self.get(variant.name)
        base = kernel_cycles(m, n, k, variant, self.config)
        if info.cycle_scale == 1.0:
            return base
        return GemmCost(
            total=base.total * info.cycle_scale,
            inner=base.inner * info.cycle_scale,
            init_drain=base.init_drain * info.cycle_scale,
            switches=base.switches * info.cycle_scale,
            call_overhead=base.call_overhead * info.cycle_scale,
        )


_DEFAULT_REGISTRY: Optional[PrimitiveRegistry] = None


def default_registry() -> PrimitiveRegistry:
    """Process-wide registry over the default machine config."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = PrimitiveRegistry()
    return _DEFAULT_REGISTRY
