"""Differential kernel validation against a NumPy reference.

A lowered kernel can be *timed* perfectly and still compute the wrong
numbers -- a mis-inferred DMA offset, a phase race the timing model
never sees, or a corrupted cache entry all produce plausible cycle
counts over garbage tensors.  swTVM validates its generated Sunway code
against reference outputs for exactly this reason, and simulator-backed
tuning is only trustworthy when functional execution is checked, not
just timed.

This module derives the reference directly from the operator's
:class:`~repro.dsl.compute.ComputeDef`: the single tensorized-GEMM
statement plus the shifted-dimension indexing covers GEMM, explicit /
implicit / Winograd convolution and every polyphase slice of a strided
convolution uniformly -- the reference loops over the shift (kernel
window) offsets and accumulates one ``einsum`` per offset in float64.
Tolerances are dtype-aware: proportional to the machine epsilon of the
kernel dtype and the square root of the total reduction length (the
random-walk error growth of a summation).

Three entry points:

* :func:`validate_candidate` -- compile + run + compare one candidate;
  raises :class:`~repro.errors.ValidationError`.
* :class:`ValidatingEvaluator` -- evaluator wrapper for ``--validate=all``:
  every measured candidate is validated, failures become
  :class:`~repro.engine.evaluators.FailedEvaluation` (site
  ``validation``) so supervision, memoization and the tuners treat a
  wrong kernel exactly like a crashed one.
* :func:`validation_digest` -- the cache-entry digest recorded by
  :class:`~repro.runtime.cache.TunedEntry`; a hit whose stored digest
  is stale (or missing) revalidates before the entry is trusted.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import string
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import persist
from ..dsl.compute import ComputeDef, ROLE_OUTPUT, ShiftedDim
from ..errors import SanitizerError, ValidationError
from ..machine.config import MachineConfig
from ..options import VALIDATE_MODES, check_validate_mode, current
from .evaluators import (
    Evaluation,
    Evaluator,
    FailedEvaluation,
    strategy_key,
    synthetic_feeds,
)

def resolve_validate(mode: Optional[str]) -> str:
    """Resolve a per-call ``validate`` argument: an explicit mode wins,
    then ``TuneOptions.validate``; with neither, a sanitizing run
    (``--sanitize``, ``REPRO_SANITIZE=1``) validates every measured
    candidate, so the CI sanitize job exercises validation too."""
    if mode is not None:
        return check_validate_mode(mode)
    options = current()
    if options.validate is not None:
        return options.validate
    return "all" if options.sanitize else "off"


# --- the NumPy reference ---------------------------------------------------
def reference_outputs(
    compute: ComputeDef, feeds: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Evaluate the operator's defining GEMM statement directly in
    NumPy (float64 accumulation), independent of any schedule.

    Shifted dimensions (``cRi = cRo + cKr``) are handled by looping
    over the kernel-axis offsets and slicing the shifted tensors; all
    remaining reduction axes are summed by ``einsum``.
    """
    g = compute.gemm
    if g is None:
        raise ValidationError(
            "compute definition has no gemm statement to validate against",
            op=compute.name,
        )
    out_spec = compute.tensors[g.c]
    letters: Dict[str, str] = {}

    def letter(axis: str) -> str:
        if axis not in letters:
            letters[axis] = string.ascii_lowercase[len(letters)]
        return letters[axis]

    if not all(isinstance(d, str) for d in out_spec.dims):
        raise ValidationError(
            "output tensor with shifted dimensions is not supported "
            "by the reference evaluator",
            op=compute.name,
            tensor=g.c,
        )
    out_labels = "".join(letter(d) for d in out_spec.dims)
    shift_axes = sorted(
        {
            d.kernel
            for spec in compute.tensors.values()
            for d in spec.dims
            if isinstance(d, ShiftedDim)
        }
    )
    out = np.zeros(compute.tensor_shape(g.c), dtype=np.float64)
    offsets_space = itertools.product(
        *[range(compute.axes[k].extent) for k in shift_axes]
    )
    for combo in offsets_space:
        offsets = dict(zip(shift_axes, combo))
        operands = []
        subs = []
        for tname in (g.a, g.b):
            spec = compute.tensors[tname]
            arr = np.asarray(feeds[tname], dtype=np.float64)
            index = []
            labels = []
            for d in spec.dims:
                if isinstance(d, ShiftedDim):
                    k0 = offsets[d.kernel]
                    index.append(
                        slice(k0, k0 + compute.axes[d.spatial].extent)
                    )
                    labels.append(letter(d.spatial))
                elif d in offsets:
                    index.append(offsets[d])  # kernel axis: fixed offset
                else:
                    index.append(slice(None))
                    labels.append(letter(d))
            operands.append(arr[tuple(index)])
            subs.append("".join(labels))
        out += np.einsum(f"{subs[0]},{subs[1]}->{out_labels}", *operands)
    return {g.c: out}


def tolerance_for(
    compute: ComputeDef, dtype=np.float32
) -> Tuple[float, float]:
    """Dtype-aware ``(rtol, atol)`` for comparing a kernel output
    against the float64 reference: scaled by sqrt of the total
    reduction length (random-walk growth of summation error)."""
    eps = float(np.finfo(dtype).eps)
    k = 1
    for name in compute.reduction_axes():
        k *= compute.axes[name].extent
    rtol = max(64.0 * eps * math.sqrt(k), 1e-5)
    return rtol, rtol


def compare_tensors(
    actual: np.ndarray,
    reference: np.ndarray,
    *,
    rtol: float,
    atol: float,
    op: str = "",
    tensor: str = "",
) -> float:
    """Elementwise ``|a - r| <= atol + rtol * |r|`` check; raises a
    structured :class:`ValidationError` and returns the max abs error
    on success."""
    act = np.asarray(actual, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if act.shape != ref.shape:
        raise ValidationError(
            f"output shape {act.shape} != reference shape {ref.shape}",
            op=op,
            tensor=tensor,
        )
    err = np.abs(act - ref)
    bound = atol + rtol * np.abs(ref)
    bad = err > bound
    count = int(bad.sum())
    if count:
        worst = int(np.argmax(np.where(bad, err, 0.0).reshape(-1)))
        raise ValidationError(
            "kernel output disagrees with the NumPy reference",
            op=op,
            tensor=tensor,
            mismatches=count,
            max_abs_err=float(err.reshape(-1)[worst]),
            tolerance=float(bound.reshape(-1)[worst]),
        )
    return float(err.max()) if err.size else 0.0


# --- validation of compiled kernels / candidates ---------------------------
@dataclass(frozen=True)
class ValidationReport:
    """Evidence of one successful differential validation."""

    op: str
    tensors: Tuple[str, ...]
    max_abs_err: float
    rtol: float
    atol: float
    cycles: float


def validate_kernel(
    ck, *, feeds: Optional[Dict[str, np.ndarray]] = None, seed: int = 0
) -> ValidationReport:
    """Run a :class:`~repro.codegen.executor.CompiledKernel` on seeded
    feeds and compare every output against the NumPy reference."""
    compute = ck.compute
    if feeds is None:
        feeds = synthetic_feeds(compute, seed)
    result = ck.run(feeds)
    refs = reference_outputs(compute, feeds)
    rtol, atol = tolerance_for(compute)
    worst = 0.0
    names = []
    for name, spec in compute.tensors.items():
        if spec.role != ROLE_OUTPUT:
            continue
        ref = refs.get(name)
        if ref is None:
            continue
        worst = max(
            worst,
            compare_tensors(
                result.outputs[name],
                ref,
                rtol=rtol,
                atol=atol,
                op=compute.name,
                tensor=name,
            ),
        )
        names.append(name)
    if not names:
        raise ValidationError(
            "kernel produced no output tensor the reference covers",
            op=compute.name,
        )
    return ValidationReport(
        op=compute.name,
        tensors=tuple(names),
        max_abs_err=worst,
        rtol=rtol,
        atol=atol,
        cycles=result.report.cycles,
    )


def validate_candidate(
    candidate,
    config: Optional[MachineConfig] = None,
    *,
    feeds: Optional[Dict[str, np.ndarray]] = None,
    seed: int = 0,
    sanitize: Optional[bool] = None,
) -> ValidationReport:
    """Differentially validate one prepared (optimized) candidate.

    Raises :class:`ValidationError` on a numeric mismatch and lets any
    :class:`~repro.errors.SanitizerError` from a sanitized run
    propagate -- both mean the kernel must not be trusted.
    """
    from ..codegen.executor import CompiledKernel

    ck = CompiledKernel(
        candidate.kernel, candidate.compute, config, sanitize=sanitize
    )
    return validate_kernel(ck, feeds=feeds, seed=seed)


def validation_digest(key: str, strategy) -> str:
    """Digest recorded on a cache entry when its kernel validated.

    Folds the operator cache key, the winning strategy and
    :func:`repro.persist.code_salt`; a stored digest that no longer
    matches (different strategy, other code, or absent entirely) marks
    the entry *stale* and forces revalidation on the next cache hit.
    """
    payload = (persist.code_salt(), str(key), strategy_key(strategy))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


class ValidatingEvaluator(Evaluator):
    """Evaluator wrapper that differentially validates every candidate
    the inner evaluator scores (the ``--validate=all`` path).

    A validation or sanitizer failure is returned as a
    :class:`FailedEvaluation` with site ``"validation"`` rather than
    raised: supervision would otherwise burn retries on a
    deterministic failure, and the memo layer already skips failed
    results, so a wrong kernel is simply never a winner.
    """

    def __init__(
        self,
        inner: Evaluator,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.config = config if config is not None else getattr(
            inner, "config", None
        )
        self.seed = seed
        self.kind = f"{inner.kind}+validate"
        self.validations = 0
        self.failures = 0

    def params_key(self):
        return (self.inner.params_key(), "validate", self.seed)

    def evaluate(self, candidate) -> Evaluation:
        result = self.inner.evaluate(candidate)
        if result.failed:
            return result
        try:
            self.validations += 1
            validate_candidate(
                candidate, self.config, seed=self.seed
            )
        except (ValidationError, SanitizerError) as exc:
            self.failures += 1
            return FailedEvaluation.from_exception(
                exc, site="validation", attempts=1
            )
        return result

    def __getattr__(self, name):
        return getattr(self.inner, name)


__all__ = [
    "VALIDATE_MODES",
    "ValidatingEvaluator",
    "ValidationReport",
    "compare_tensors",
    "reference_outputs",
    "resolve_validate",
    "tolerance_for",
    "validate_candidate",
    "validate_kernel",
    "validation_digest",
]
