"""Pluggable candidate evaluators behind one interface.

Both autotuners reduce to "score a batch of prepared candidates"; the
difference is *how* a candidate is scored:

* :class:`AnalyticEvaluator` -- the Eq. (1)/(2) static cost model, the
  cheap path that makes model-based tuning hundreds of times faster
  than brute force (Tab. 3);
* :class:`SimulatorEvaluator` -- compile and execute on the simulated
  SW26010 (the paper's "collect real execution time");
* :class:`MemoizingEvaluator` -- wraps either one with a
  process-lifetime memo keyed by (compute signature, strategy
  decisions, machine config, evaluator parameters), so a strategy that
  was already scored anywhere -- either tuner, a sweep bench, or
  :class:`~repro.runtime.library.AtopLibrary` -- is never re-simulated.

Simulated timing is data-independent (DMA cost depends on shapes and
addresses, GEMM cost on tile dims), which is what makes memoizing
measured runs across different input tensors sound: the ranking
quantity (cycles) is identical for any feed values of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, MutableMapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..autotuner.cost_model import GemmCoeffs

from ..dsl.compute import ComputeDef, ROLE_OUTPUT, ShiftedDim
from ..dsl.schedule import ScheduleStrategy
from ..machine.config import MachineConfig, config_signature, default_config
from ..machine.trace import SimReport
from ..options import current
from ..scheduler.enumerate import Candidate

#: generated input tensors, keyed by (compute signature, seed).  Feed
#: generation used to re-run the RNG for every simulated candidate --
#: pure overhead, since simulated timing is data-independent and every
#: candidate of one compute receives identical feeds anyway.  Cached
#: arrays are frozen (writes would leak between candidates).
_FEEDS_CACHE: Dict[Tuple, Dict[str, np.ndarray]] = {}


def clear_feeds_cache() -> None:
    _FEEDS_CACHE.clear()


def synthetic_feeds(
    compute: ComputeDef, seed: int = 0
) -> Dict[str, np.ndarray]:
    """Deterministic random inputs for every non-output tensor.

    Returns a fresh dict of read-only arrays answered from a
    process-lifetime cache; callers may add/remove entries but must not
    write into the arrays.
    """
    key = (compute_signature(compute), int(seed))
    hit = _FEEDS_CACHE.get(key)
    if hit is not None:
        return dict(hit)
    rng = np.random.default_rng(seed)
    feeds = {}
    for name, spec in compute.tensors.items():
        if spec.role == ROLE_OUTPUT:
            continue
        shape = compute.tensor_shape(name)
        arr = rng.standard_normal(shape).astype(np.float32)
        arr.setflags(write=False)
        feeds[name] = arr
    _FEEDS_CACHE[key] = feeds
    return dict(feeds)


@dataclass(frozen=True)
class Evaluation:
    """Outcome of evaluating one candidate."""

    predicted_cycles: Optional[float] = None
    measured_cycles: Optional[float] = None
    report: Optional[SimReport] = None
    memoized: bool = False

    #: overridden by :class:`FailedEvaluation`; callers filter on it.
    failed = False

    @property
    def cycles(self) -> float:
        if self.measured_cycles is not None:
            return self.measured_cycles
        if self.predicted_cycles is not None:
            return self.predicted_cycles
        raise ValueError("candidate was never evaluated")


@dataclass(frozen=True)
class FailedEvaluation(Evaluation):
    """A candidate whose evaluation was quarantined by supervision.

    Carries the full diagnosis (failure site, exception chain, attempt
    count) instead of aborting the sweep or silently serializing the
    batch.  ``cycles`` is ``inf`` so a failed candidate can never win
    or enter the top-K; tuners and the branch-and-bound incumbent both
    skip entries with ``failed`` set.
    """

    site: str = "exception"  # "crash" | "exception" | "hang"
    error_type: str = ""
    error_message: str = ""
    error_chain: Tuple[str, ...] = ()
    attempts: int = 0

    failed = True

    @property
    def cycles(self) -> float:
        return float("inf")

    def describe(self) -> str:
        return (
            f"[{self.site}] {self.error_type}: {self.error_message} "
            f"(after {self.attempts} attempts)"
        )

    @classmethod
    def from_exception(
        cls, exc: BaseException, *, site: str, attempts: int
    ) -> "FailedEvaluation":
        """Capture an exception (and its cause/context chain) as a
        structured failure record."""
        chain = []
        seen = set()
        e: Optional[BaseException] = exc
        while e is not None and id(e) not in seen and len(chain) < 10:
            seen.add(id(e))
            chain.append(f"{type(e).__name__}: {e}")
            e = e.__cause__ or e.__context__
        return cls(
            site=site,
            error_type=type(exc).__name__,
            error_message=str(exc),
            error_chain=tuple(chain),
            attempts=attempts,
        )


def _dim_key(dim):
    if isinstance(dim, ShiftedDim):
        return ("shift", dim.spatial, dim.kernel)
    return dim


def compute_signature(compute: ComputeDef) -> Tuple:
    """Hashable identity of a schedule seed (axes, tensors, gemm)."""
    axes = tuple((a.name, a.extent, a.kind) for a in compute.axes.values())
    tensors = tuple(
        (t.name, tuple(_dim_key(d) for d in t.dims), t.role)
        for t in compute.tensors.values()
    )
    g = compute.gemm
    gemm = None if g is None else (g.c, g.a, g.b, g.m_axis, g.n_axes, g.k_axis)
    return (compute.name, axes, tensors, gemm)


def strategy_key(strategy: ScheduleStrategy) -> Tuple:
    """Hashable identity of one schedule-space point."""
    return tuple(sorted(strategy.decisions.items()))


class Evaluator:
    """Scores one prepared (already optimized) candidate."""

    #: evaluator family; selects the metrics stage it reports into.
    kind = "abstract"

    def evaluate(self, candidate: Candidate) -> Evaluation:
        raise NotImplementedError

    def params_key(self) -> Optional[Tuple]:
        """Hashable identity of evaluator parameters that change the
        score (folded into memo keys)."""
        return None


class AnalyticEvaluator(Evaluator):
    """Static cost model (Sec. 4.6, Eq. (1)/(2))."""

    kind = "analytic"

    def __init__(
        self,
        coeffs: Optional["GemmCoeffs"] = None,
        config: Optional[MachineConfig] = None,
    ) -> None:
        # deferred import: repro.autotuner's package init imports the
        # tuners, which import this package -- a top-level import here
        # would close that cycle.
        from ..autotuner.calibrate import default_coeffs

        self.config = config or default_config()
        self.coeffs = coeffs or default_coeffs(self.config)

    def evaluate(self, candidate: Candidate) -> Evaluation:
        from ..autotuner.cost_model import predict_kernel

        pred = predict_kernel(candidate.kernel, self.coeffs, self.config)
        return Evaluation(predicted_cycles=pred.total)

    def params_key(self) -> Tuple:
        return tuple(sorted(self.coeffs.items()))


class SimulatorEvaluator(Evaluator):
    """Compile and time on the simulated machine.

    Only cycles are wanted, so candidates run through the data-free
    :meth:`~repro.codegen.executor.CompiledKernel.time_only`; under the
    sanitizer that runs the functional path too and fails unless both
    reports agree.

    ``feeds=None`` generates deterministic synthetic inputs per compute.
    ``executions`` counts real simulated runs on *this* instance.
    """

    kind = "simulator"

    def __init__(
        self,
        feeds: Optional[Dict[str, np.ndarray]] = None,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
    ) -> None:
        self.feeds = feeds
        self.config = config or default_config()
        self.seed = seed
        self.executions = 0

    def evaluate(self, candidate: Candidate) -> Evaluation:
        from ..codegen.executor import CompiledKernel

        feeds = (
            self.feeds
            if self.feeds is not None
            else synthetic_feeds(candidate.compute, self.seed)
        )
        ck = CompiledKernel(candidate.kernel, candidate.compute, self.config)
        self.executions += 1
        report = ck.time_only(feeds)
        return Evaluation(measured_cycles=report.cycles, report=report)


#: process-lifetime memo shared by every MemoizingEvaluator without an
#: explicit store -- the "repeated strategies across tuners/benches/
#: library never re-simulate" guarantee.
_SHARED_MEMO: Dict[Tuple, Evaluation] = {}


def clear_shared_memo() -> None:
    _SHARED_MEMO.clear()


#: "disk not specified" marker: resolved to the run's
#: ``TuneOptions.eval_store`` (see :mod:`repro.options`) at lookup time,
#: so installing a cache after evaluators were built still works.
_DEFAULT_DISK = object()


class MemoizingEvaluator(Evaluator):
    """Memo layer over another evaluator.

    The key covers everything that determines a score: the compute
    signature, the strategy decisions, the *full* machine signature
    (``config_signature`` -- the dataclass's own hash ignores the
    latency/pipe tables, so keying on the object silently collided
    configs that differ only in instruction timing, and with them the
    Eq. (2) coefficients fitted from those timings), the inner
    evaluator's parameters (for the analytic evaluator that is the
    fitted coefficients themselves), plus a caller-supplied ``salt`` for
    context the candidate itself cannot express (lowering options,
    prefetch on/off -- the same (compute, strategy) pair lowers to a
    different kernel under different options, see the Fig. 10 baseline).

    Lookup is tiered: the in-process ``store`` first, then the optional
    persistent ``disk`` store (:class:`~repro.engine.evalcache
    .PersistentEvalStore`); disk hits are promoted into the in-process
    store so they pay the digest cost once.  An in-process hit is
    written through to the disk store (unchanged entries cost one
    digest), so a store installed after the memo warmed still banks
    every score it answers.
    """

    def __init__(
        self,
        inner: Evaluator,
        *,
        store: Optional[MutableMapping[Tuple, Evaluation]] = None,
        salt: Optional[Tuple] = None,
        disk=_DEFAULT_DISK,
    ) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.store = _SHARED_MEMO if store is None else store
        self.salt = salt
        self._disk = disk
        self.hits = 0
        self.disk_hits = 0

    @property
    def disk(self):
        if self._disk is not _DEFAULT_DISK:
            return self._disk
        return current().eval_store

    def key(self, candidate: Candidate) -> Tuple:
        config = getattr(self.inner, "config", None)
        return (
            self.kind,
            self.inner.params_key(),
            self.salt,
            None if config is None else config_signature(config),
            compute_signature(candidate.compute),
            strategy_key(candidate.strategy),
        )

    def lookup(self, candidate: Candidate) -> Optional[Evaluation]:
        key = self.key(candidate)
        hit = self.store.get(key)
        disk = self.disk
        if hit is not None:
            self.hits += 1
            if disk is not None:
                # a store installed after the memo warmed must bank it too
                disk.put(key, hit)
            return replace(hit, memoized=True)
        if disk is not None:
            found = disk.get(key, config=getattr(self.inner, "config", None))
            if found is not None:
                self.hits += 1
                self.disk_hits += 1
                self.store[key] = replace(found, memoized=False)
                return found
        return None

    def remember(self, candidate: Candidate, evaluation: Evaluation) -> None:
        if evaluation.failed:
            return  # quarantined candidates must never poison the memo
        key = self.key(candidate)
        self.store[key] = replace(evaluation, memoized=False)
        disk = self.disk
        if disk is not None:
            disk.put(key, evaluation)

    def flush(self) -> None:
        """Persist pending disk-store entries (no-op without a disk)."""
        disk = self.disk
        if disk is not None:
            disk.flush()

    def evaluate(self, candidate: Candidate) -> Evaluation:
        hit = self.lookup(candidate)
        if hit is not None:
            return hit
        evaluation = self.inner.evaluate(candidate)
        self.remember(candidate, evaluation)
        return evaluation
