"""Autotuning (Sec. 4.6): static cost model, calibration, tuners."""

from .calibrate import (
    DEFAULT_GRID,
    calibration_samples,
    default_coeffs,
    fit_all,
    fit_variant,
)
from .cost_model import (
    GemmCoeffs,
    PredictedTime,
    eq2_features,
    predict_dma,
    predict_gemm,
    predict_kernel,
)
from ..engine import synthetic_feeds
from .result import CandidateScore, TuningResult
from .tuner import tune_blackbox, tune_with_model

__all__ = [
    "predict_kernel",
    "predict_gemm",
    "predict_dma",
    "eq2_features",
    "PredictedTime",
    "GemmCoeffs",
    "fit_variant",
    "fit_all",
    "default_coeffs",
    "calibration_samples",
    "DEFAULT_GRID",
    "tune_with_model",
    "tune_blackbox",
    "synthetic_feeds",
    "CandidateScore",
    "TuningResult",
]
