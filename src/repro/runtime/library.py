"""The online-autotuning operator library.

A swDNN-shaped façade over the whole stack: call
:meth:`AtopLibrary.conv2d` / :meth:`AtopLibrary.gemm` like a DNN
library and get exact results plus simulated timing.  The first call
for a new configuration tunes it (the paper's "online autotuning"
integration mode); later calls hit the kernel cache.  A warmed cache
can be saved and shipped (the "offline compiler" mode).

Execution safety (see DESIGN.md "Execution safety model"): cached
kernels are only *trusted* while their recorded validation digest is
fresh.  A hit whose digest is stale (or absent -- older cache files)
is revalidated against the NumPy reference before its output is
believed; a kernel that fails the check -- or trips the machine
sanitizer -- is quarantined from the cache and the call gracefully
falls back to the reference implementation, timed as unported MPE-side
execution.  The caller always gets a correct result; the fallback is
visible in :class:`LibraryStats`, on
:attr:`~repro.harness.runner.OperatorRun.fallback_reason`, and as one
:class:`KernelFallbackWarning` per affected cache key.

Compile once, serve many: the library keeps the kernels its calls
compiled, per cache key, and a hit runs them again instead of lowering,
optimizing and verifying its strategy anew.  They are served only for
the very cache entry and strategy they were compiled for and under the
sanitize mode they were compiled under; a quarantined or overwritten
entry's kernels are dropped.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..dsl.schedule import ScheduleStrategy
from ..engine import resolve_validate, strategy_key, validation_digest
from ..engine.validate import compare_tensors
from ..errors import SanitizerError, ValidationError, WorkloadError
from ..harness.runner import (
    CONV_RUNNERS,
    KernelStore,
    OperatorRun,
    run_conv_strided,
    run_gemm,
)
from ..machine.config import MachineConfig, default_config
from ..machine.trace import SimReport
from ..ops import conv2d_reference, select_method, strided
from ..ops.conv_common import ConvParams
from ..ops.conv_implicit import MIN_NI
from ..options import current
from .cache import KernelCache, TunedEntry

#: sustained FLOP rate of the unported fallback path: one scalar FMA
#: pipeline at 1.5 GHz with realistic memory stalls.  Both the
#: never-ported layers of :func:`~repro.runtime.network.run_network`
#: and the quarantine fallback here are timed at this rate.
MPE_FALLBACK_FLOPS = 2.2e9


def mpe_fallback_report(
    flops: float, config: MachineConfig, detail: str
) -> SimReport:
    """The timing of ``flops`` served by the unported MPE-side path."""
    cycles = config.seconds_to_cycles(flops / MPE_FALLBACK_FLOPS)
    return SimReport(
        cycles=cycles,
        compute_cycles=cycles,
        flops=flops,
        config=config,
        detail=detail,
    )

#: library-level differential tolerances -- the operator-level bounds
#: the runtime test-suite has always held tuned kernels to.
CONV_RTOL, CONV_ATOL = 1e-3, 1e-2
GEMM_RTOL, GEMM_ATOL = 1e-4, 1e-3


#: ``run(strategies, stores)`` runs one operator call: it tunes when
#: ``strategies`` is None and replays them (one per cache key)
#: otherwise; the kernels it compiles for each key land in its store
Runner = Callable[[Optional[List[ScheduleStrategy]], List[KernelStore]], OperatorRun]


def _tuned_entry(run: OperatorRun) -> List[TunedEntry]:
    """The cache entry of a freshly tuned one-kernel run."""
    assert run.tuning is not None
    best = run.tuning.best
    return [
        TunedEntry(
            strategy=best.candidate.strategy,
            predicted_cycles=best.predicted_cycles,
            measured_cycles=run.cycles,
        )
    ]


class KernelFallbackWarning(UserWarning):
    """A cached kernel was quarantined and its call served by the
    reference fallback (emitted once per cache key)."""


@dataclass
class LibraryStats:
    tuned: int = 0
    cache_hits: int = 0
    simulated_cycles: float = 0.0
    #: differential validations actually performed (stale digests)
    validations: int = 0
    #: calls served by the reference fallback after a kernel failure
    fallbacks: int = 0
    #: cache entries dropped because their kernel failed at use time
    quarantined: int = 0


@dataclass
class _Compiled:
    """The kernels compiled for one cache entry, stamped with its
    strategy and the sanitize mode they were compiled under."""

    entry: TunedEntry
    stamp: Tuple[tuple, bool]
    kernels: KernelStore = field(default_factory=dict)


class AtopLibrary:
    """Tuned-operator library with a persistent kernel cache."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        *,
        quick: bool = True,
        cache_path: Optional[Union[str, Path]] = None,
        validate: Optional[str] = None,
    ) -> None:
        self.config = config or default_config()
        self.quick = quick
        self.cache_path = Path(cache_path) if cache_path else None
        # an online session re-tunes what a missing, corrupt or stale
        # library file lost instead of refusing to start
        self.cache = (
            KernelCache.load(self.cache_path) if self.cache_path else KernelCache()
        )
        #: validation mode for library calls (``None`` inherits the
        #: run's ``TuneOptions``, see :mod:`repro.options`)
        self.validate = (
            validate if validate is None else resolve_validate(validate)
        )
        self.stats = LibraryStats()
        self._warned_keys: set = set()
        #: cache key -> the kernels compiled for its entry (one entry
        #: per key, so bounded by the cache)
        self._compiled: Dict[str, _Compiled] = {}

    # --- keys ------------------------------------------------------------
    @staticmethod
    def conv_key(method: str, params: ConvParams) -> str:
        return f"conv:{method}:{params.describe()}"

    @staticmethod
    def gemm_key(m: int, n: int, k: int) -> str:
        return f"gemm:{m}x{n}x{k}"

    # --- operators ----------------------------------------------------------
    def conv2d(
        self,
        x: np.ndarray,
        w: np.ndarray,
        params: ConvParams,
        *,
        method: Optional[str] = None,
    ) -> OperatorRun:
        """Tuned convolution; method auto-selected per the paper's
        policy unless forced.  A cached kernel that fails the sanitizer
        or differential validation is quarantined and the call served
        by the reference fallback.

        Strided convolutions go through the phase decomposition
        (:mod:`repro.ops.strided`; implicit needs enough input
        channels), with one cache key per phase.  The phases are served
        and certified as one decomposition: a hit needs every phase key,
        and a failure quarantines them all."""
        if params.stride > 1:
            method = method or ("implicit" if params.ni >= MIN_NI else "explicit")
            keys = [
                f"conv:strided:{method}:{params.describe()}:p{i}"
                for i in range(len(strided.decompose(params)))
            ]

            def run(strategies, stores):
                return run_conv_strided(
                    params, x, w, library="swatop", method=method,
                    quick=self.quick, config=self.config,
                    strategies=strategies, kernels=stores,
                )

            def entries_of(tuned: OperatorRun) -> List[TunedEntry]:
                return [TunedEntry(strategy=s) for s in tuned.phase_strategies]

        else:
            method = method or select_method(params)
            if method not in CONV_RUNNERS:
                raise WorkloadError(f"unknown conv method {method!r}")
            keys = [self.conv_key(method, params)]
            run = self._single(CONV_RUNNERS[method], params, x, w)
            entries_of = _tuned_entry
        return self._serve(
            keys, run, entries_of, lambda: conv2d_reference(x, w, params),
            rtol=CONV_RTOL, atol=CONV_ATOL, flops=params.flops,
        )

    def gemm(self, a: np.ndarray, b: np.ndarray) -> OperatorRun:
        m, k = a.shape
        n = b.shape[1]
        return self._serve(
            [self.gemm_key(m, n, k)], self._single(run_gemm, a, b), _tuned_entry,
            lambda: np.asarray(a, np.float64) @ np.asarray(b, np.float64),
            rtol=GEMM_RTOL, atol=GEMM_ATOL, flops=2.0 * m * n * k,
        )

    # --- internals -----------------------------------------------------------
    def _single(self, runner: Callable[..., OperatorRun], *args) -> Runner:
        """The :data:`Runner` of a one-kernel operator."""
        return lambda strategies, stores: runner(
            *args, library="swatop", quick=self.quick, config=self.config,
            strategy=strategies[0] if strategies else None, kernels=stores[0],
        )

    def _serve(
        self,
        keys: Sequence[str],
        run: Runner,
        entries_of: Callable[[OperatorRun], List[TunedEntry]],
        reference: Callable[[], np.ndarray],
        *,
        rtol: float,
        atol: float,
        flops: float,
    ) -> OperatorRun:
        """Serve one call whose kernels are cached under ``keys``.

        A hit (every key cached) replays the stored strategies on the
        kernels kept for them; a miss tunes into fresh kernel stores and
        caches ``entries_of`` the run.  Either way the output passes the
        trust gate; a sanitizer or validation failure quarantines every
        key and serves ``reference`` as the fallback.  ``reference`` runs
        at most once, whether certification, fallback or both need it."""
        reference = functools.cache(reference)
        entries = [self.cache.get(k) for k in keys]
        hit = all(e is not None for e in entries)
        try:
            if hit:
                # replay the cached strategies without re-tuning (what
                # an offline-compiled library does at load time)
                self.stats.cache_hits += 1
                out = run(
                    [e.strategy for e in entries],
                    [self._kernels(k, e) for k, e in zip(keys, entries)],
                )
            else:
                stores: List[KernelStore] = [{} for _ in keys]
                out = run(None, stores)
                self.stats.tuned += 1
                entries = entries_of(out)
                for key, entry, kernels in zip(keys, entries, stores):
                    self.cache.put(key, entry, overwrite=True)
                    self._kernels(key, entry).update(kernels)
            self._certify(keys, entries, out.output, reference, rtol=rtol, atol=atol)
            if not hit:
                self._autosave()
        except (SanitizerError, ValidationError) as exc:
            out = self._fallback(
                keys, exc, output=reference().astype(np.float32), flops=flops
            )
        self.stats.simulated_cycles += out.cycles
        return out

    def _kernels(self, key: str, entry: TunedEntry) -> KernelStore:
        """The kernel store of ``key``: what earlier calls compiled for
        this very ``entry``, its current strategy and the sanitize mode
        now in force, or a fresh store in place of any other."""
        stamp = (strategy_key(entry.strategy), current().sanitize)
        compiled = self._compiled.get(key)
        if compiled is None or compiled.entry is not entry or compiled.stamp != stamp:
            compiled = self._compiled[key] = _Compiled(entry, stamp)
        return compiled.kernels

    def _certify(
        self,
        keys: Sequence[str],
        entries: Sequence[TunedEntry],
        output: Optional[np.ndarray],
        reference: Callable[[], np.ndarray],
        *,
        rtol: float,
        atol: float,
    ) -> None:
        """Trust gate for the output of the kernels cached as ``entries``
        under ``keys`` (several for the phases of a strided conv).

        No-op when validation is off or every entry's recorded digest
        is fresh (the kernels already proved themselves under the
        current strategies and code).  Otherwise the output is
        differentially compared against the reference: success stamps
        the digests onto the entries (persisted, so the check amortizes
        to zero), failure raises :class:`~repro.errors.ValidationError`
        for the caller's quarantine-and-fall-back path.
        """
        mode = resolve_validate(self.validate)
        if mode == "off" or output is None:
            return
        digests = [validation_digest(k, e.strategy) for k, e in zip(keys, entries)]
        if all(e.validation_digest == d for e, d in zip(entries, digests)):
            return
        self.stats.validations += 1
        compare_tensors(
            output, reference(), rtol=rtol, atol=atol,
            op=keys[0], tensor="output",
        )
        for entry, digest in zip(entries, digests):
            entry.validation_digest = digest
        self._autosave()

    def _fallback(
        self,
        keys: Sequence[str],
        exc: Exception,
        *,
        output: np.ndarray,
        flops: float,
    ) -> OperatorRun:
        """Quarantine the offending cache entries and serve the call
        from the reference implementation, timed as unported MPE-side
        execution (the honest cost of not trusting the kernel)."""
        for key in keys:
            self._compiled.pop(key, None)
            if self.cache.quarantine(key) is not None:
                self.stats.quarantined += 1
        self.stats.fallbacks += 1
        self._autosave()
        lead = keys[0] if keys else "<unknown>"
        if lead not in self._warned_keys:
            self._warned_keys.add(lead)
            warnings.warn(
                f"kernel {lead!r} quarantined "
                f"({type(exc).__name__}: {exc}); serving the reference "
                f"fallback",
                KernelFallbackWarning,
                stacklevel=4,  # the caller of conv2d / gemm
            )
        return OperatorRun(
            report=mpe_fallback_report(flops, self.config, "validation-fallback"),
            output=output,
            fallback_reason=f"{type(exc).__name__}: {exc}",
        )

    def _autosave(self) -> None:
        if self.cache_path is not None:
            self.cache.save(self.cache_path)
