"""Offline calibration of the Eq. (2) GEMM cost model.

The paper fits the linear coefficients "by collecting the execution
time of GEMM operations using different dimension parameters" on the
real processor; we collect the same micro-benchmark surface from the
simulated primitive (:func:`repro.primitives.kernel_cycles`) and fit by
least squares, once per kernel variant.  Coefficients are cached
per-machine-config so tuning stays interactive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CalibrationError
from ..machine.config import MachineConfig, config_signature, default_config
from ..primitives.gemm_kernel import kernel_cycles
from ..primitives.microkernel import ALL_VARIANTS, KernelVariant
from .cost_model import GemmCoeffs, eq2_features

#: micro-benchmark grid: the tile-size range the scheduler actually
#: proposes (per CG-level tile, before the 8x8 cluster split).  Tiny
#: tiles are excluded on purpose: below ~32 the ceil() quantisation of
#: the register blocking flattens the cost surface and a linear Eq. (2)
#: would trade accuracy in the regime that matters for accuracy in a
#: regime the tuner never picks.
DEFAULT_GRID: Tuple[int, ...] = (32, 48, 64, 96, 128, 192, 256, 384, 512)


def calibration_samples(
    variant: KernelVariant,
    grid: Sequence[int] = DEFAULT_GRID,
    config: Optional[MachineConfig] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(features, measured cycles) of the micro-benchmark sweep."""
    cfg = config or default_config()
    rows: List[Tuple[float, float, float, float]] = []
    times: List[float] = []
    for m in grid:
        for n in grid:
            for k in grid:
                rows.append(eq2_features(m, n, k, variant.vec_dim))
                times.append(kernel_cycles(m, n, k, variant, cfg).total)
    return np.asarray(rows, dtype=np.float64), np.asarray(times, dtype=np.float64)


def fit_variant(
    variant: KernelVariant,
    grid: Sequence[int] = DEFAULT_GRID,
    config: Optional[MachineConfig] = None,
) -> Tuple[float, float, float, float]:
    """Fit (alpha, beta, gamma, delta) for one variant.

    Weighted least squares with 1/measured weights: the tuner ranks
    candidates whose GEMM sites span orders of magnitude, so it is the
    *relative* error that must be uniform across tile sizes, not the
    absolute residual (which a plain fit would spend entirely on the
    largest tiles).
    """
    x, y = calibration_samples(variant, grid, config)
    w = 1.0 / np.maximum(y, 1.0)
    xw = x * w[:, None]
    yw = y * w
    coeffs, _, rank, _ = np.linalg.lstsq(xw, yw, rcond=None)
    if rank < x.shape[1]:
        raise CalibrationError(
            f"degenerate calibration grid for {variant.name!r} (rank {rank})"
        )
    return tuple(float(c) for c in coeffs)  # type: ignore[return-value]


def fit_all(
    grid: Sequence[int] = DEFAULT_GRID,
    config: Optional[MachineConfig] = None,
) -> GemmCoeffs:
    """Fit Eq. (2) for all eight variants."""
    cfg = config or default_config()
    return {v.name: fit_variant(v, grid, cfg) for v in ALL_VARIANTS}


# Keyed on the *full* machine signature, not the config object: the
# dataclass hash ignores the latency/pipe tables, so an lru_cache on
# the config silently returned stale coefficients for configs differing
# only in instruction timing -- and every analytic score downstream
# (including MemoizingEvaluator keys built from those coefficients)
# collided with them.
_FIT_CACHE: Dict[Tuple, Tuple[Tuple[str, Tuple[float, ...]], ...]] = {}


def _cached_fit(config: MachineConfig) -> Tuple[Tuple[str, Tuple[float, ...]], ...]:
    key = config_signature(config)
    hit = _FIT_CACHE.get(key)
    if hit is None:
        coeffs = fit_all(config=config)
        hit = tuple(sorted((k, tuple(v)) for k, v in coeffs.items()))
        _FIT_CACHE[key] = hit
    return hit


def default_coeffs(config: Optional[MachineConfig] = None) -> GemmCoeffs:
    """Cached Eq. (2) coefficients for a machine configuration."""
    cfg = config or default_config()
    return {k: tuple(v) for k, v in _cached_fit(cfg)}  # type: ignore[misc]

