"""Candidate preparation: the single owner of enumerate -> lower -> optimize.

:class:`CandidatePipeline` is the one place a schedule strategy
becomes an optimized, executable kernel; every caller (both tuners, the
operator runners, the runtime library's cached-replay path) routes
through it.

Both halves run on :class:`~repro.passes.manager.PassManager`
instances -- the lowering stages (decode-strategy / build-loop-nest /
plan-spm) and the optimizer stages (infer-dma / hoist-dma / prefetch /
analyze-boundary) -- so every consumer inherits per-pass timing and the
structural verifier, which checks each manager run's final kernel once
(two checks per lowered candidate) and re-checks the intermediate IR
only to name the offending pass when something fails.  Wall time lands in distinct
:class:`~repro.engine.metrics.EngineMetrics` stages: ``enumeration``
(the pure space walk, or building the strategies a search takes),
``bounds`` (the whole-space bound), ``lowering`` (strategy -> raw IR,
including pruned strategies) and ``optimization``.
"""

from __future__ import annotations

import numbers
import time
from typing import Iterator, Optional

import numpy as np

from ..dsl.compute import ComputeDef
from ..dsl.schedule import ScheduleSpace, ScheduleStrategy
from ..errors import IllegalCandidateError, TuningError
from ..machine.config import MachineConfig, default_config
from ..passes.base import SPM_PLANNED, PassContext
from ..passes.lowering import lowering_passes
from ..passes.manager import PassManager
from ..passes.optimize import optimize_passes
from ..primitives.registry import PrimitiveRegistry
from ..scheduler.enumerate import Candidate, EnumerationStats
from ..scheduler.lower import LoweringOptions
from .bounds import definitely_infeasible, space_bounds
from .metrics import EngineMetrics


def clip_strategy(
    strategy: ScheduleStrategy, compute: ComputeDef
) -> ScheduleStrategy:
    """Clip tile decisions to a (smaller) shard's extents.

    Non-integer tile decisions (a symbolic placeholder, a stray string)
    are left untouched -- the lowering's own legality checks own those.
    A tile decision naming an axis the compute does not have is a
    caller bug (wrong strategy replayed onto the wrong operator) and
    raises :class:`TuningError` instead of silently surviving the clip.
    """
    decisions = dict(strategy.decisions)
    for key, value in strategy.decisions.items():
        if not key.startswith("tile:"):
            continue
        axis = key[len("tile:"):]
        if axis not in compute.axes:
            raise TuningError(
                f"strategy tile decision {key!r} names no axis of "
                f"{compute.name!r} (axes: {sorted(compute.axes)})"
            )
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            continue
        decisions[key] = min(int(value), compute.axes[axis].extent)
    return ScheduleStrategy(decisions)


class CandidatePipeline:
    """Prepares candidates of one operator: enumerate legal strategies,
    lower them through the verified pass pipeline, run the optimizer
    passes (DMA inference + hoisting, automatic latency hiding)."""

    def __init__(
        self,
        compute: ComputeDef,
        space: Optional[ScheduleSpace] = None,
        *,
        options: Optional[LoweringOptions] = None,
        config: Optional[MachineConfig] = None,
        registry: Optional[PrimitiveRegistry] = None,
        prefetch: bool = True,
        metrics: Optional[EngineMetrics] = None,
    ) -> None:
        self.compute = compute
        self.space = space
        self.options = options
        self.config = config or default_config()
        self.registry = registry
        self.prefetch = prefetch
        self.metrics = EngineMetrics() if metrics is None else metrics
        self.stats = EnumerationStats()
        self.lowerer = PassManager(
            lowering_passes(), metrics=self.metrics, stage="lowering"
        )
        self.optimizer = PassManager(
            optimize_passes(prefetch=prefetch),
            metrics=self.metrics,
            stage="optimization",
        )

    def _context(self, strategy: Optional[ScheduleStrategy]) -> PassContext:
        return PassContext(
            compute=self.compute,
            config=self.config,
            strategy=strategy,
            options=self.options,
            registry=self.registry,
        )

    def _lower(self, strategy: ScheduleStrategy):
        """Strategy -> raw kernel IR via the lowering manager (charges
        ``metrics.lowering``, also for strategies that prune)."""
        return self.lowerer.run(self._context(strategy))

    # --- single-strategy paths -------------------------------------------
    def optimize(self, candidate: Candidate) -> Candidate:
        """Optimizer passes over a raw lowered candidate; returns a new
        candidate whose kernel is ready for prediction or execution."""
        ctx = self._context(candidate.strategy)
        # lowered candidates already passed SPM planning
        ctx.established.add(SPM_PLANNED)
        kernel = self.optimizer.run(ctx, candidate.kernel)
        return Candidate(candidate.strategy, kernel, candidate.compute)

    def prepare(
        self, strategy: ScheduleStrategy, *, clip: bool = False
    ) -> Candidate:
        """Lower + optimize one explicit strategy (the cached-replay
        path: re-materialize a stored winner without enumeration)."""
        if clip:
            strategy = clip_strategy(strategy, self.compute)
        kernel = self._lower(strategy)
        return self.optimize(Candidate(strategy, kernel, self.compute))

    # --- space enumeration ------------------------------------------------
    def _space(self) -> ScheduleSpace:
        if self.space is None:
            raise TuningError(
                f"pipeline for {self.compute.name!r} has no schedule space"
            )
        return self.space

    def strategies(self) -> Iterator[ScheduleStrategy]:
        """Lazily walk every declared strategy of the space (legal or
        not -- legality is only known after :meth:`realize`).  Charges
        the pure walk to ``metrics.enumeration`` and counts
        ``stats.declared``."""
        it = self._space().strategies()
        sentinel = object()
        while True:
            t0 = time.perf_counter()
            strategy = next(it, sentinel)
            dt = time.perf_counter() - t0
            if strategy is sentinel:
                self.metrics.enumeration.add(dt, count=0)
                return
            self.stats.declared += 1
            self.metrics.enumeration.add(dt)
            yield strategy  # type: ignore[misc]

    def bound_space(self) -> np.ndarray:
        """Admissible pre-lowering cost bound of every declared
        strategy, in enumeration order (see
        :func:`~repro.engine.bounds.space_bounds`).  Declares the whole
        space (``stats.declared``, ``metrics.enumeration.count``) and
        charges the computation to ``metrics.bounds``; the strategies
        themselves are built on demand by :meth:`strategy_at`."""
        space = self._space()
        t0 = time.perf_counter()
        cycles = space_bounds(self.compute, space, self.config)
        self.metrics.bounds.add(time.perf_counter() - t0, count=len(cycles))
        self.stats.declared += len(cycles)
        self.metrics.enumeration.add(0.0, count=len(cycles))
        return cycles

    def strategy_at(self, index: int) -> ScheduleStrategy:
        """The ``index``-th declared strategy (enumeration order),
        charging its construction to ``metrics.enumeration``."""
        space = self._space()
        t0 = time.perf_counter()
        strategy = space.strategy_at(index)
        self.metrics.enumeration.add(time.perf_counter() - t0, count=0)
        return strategy

    def realize(
        self, strategy: ScheduleStrategy, *, prefilter: bool = False
    ) -> Optional[Candidate]:
        """Lower + optimize one declared strategy; ``None`` if illegal.

        With ``prefilter`` the conservative SPM floor check runs first:
        a strategy it rejects is *guaranteed* to fail SPM planning, so
        the loop nest is never built (counted into ``stats.pruned`` and
        ``metrics.spm_pruned``; the legal candidate set is unchanged).
        """
        if prefilter and definitely_infeasible(
            self.compute, strategy, self.config, self.options
        ):
            self.stats.pruned += 1
            self.metrics.spm_pruned += 1
            return None
        try:
            kernel = self._lower(strategy)
        except IllegalCandidateError:
            self.stats.pruned += 1
            return None
        self.stats.legal += 1
        return self.optimize(Candidate(strategy, kernel, self.compute))

    def candidates(self, limit: Optional[int] = None) -> Iterator[Candidate]:
        """Lazily yield every legal, optimized candidate of the space
        (at most ``limit`` of them)."""
        legal = 0
        for strategy in self.strategies():
            candidate = self.realize(strategy)
            if candidate is None:
                continue
            legal += 1
            yield candidate
            if limit is not None and legal >= limit:
                return

    # --- differential validation ------------------------------------------
    def validate(self, candidate: Candidate, *, seed: int = 0):
        """Differentially validate one prepared candidate against the
        NumPy reference (charges ``metrics.validation``; failures also
        count into ``metrics.validation_failures`` and the event trail
        before re-raising)."""
        from ..errors import SanitizerError, ValidationError
        from .validate import validate_candidate

        t0 = time.perf_counter()
        try:
            report = validate_candidate(candidate, self.config, seed=seed)
        except (ValidationError, SanitizerError) as exc:
            self.metrics.validation_failures += 1
            kind = (
                "sanitizer" if isinstance(exc, SanitizerError) else "validation"
            )
            self.metrics.record_event(kind, str(exc))
            raise
        finally:
            self.metrics.validation.add(time.perf_counter() - t0)
        return report


def compile_strategy(
    compute: ComputeDef,
    strategy: ScheduleStrategy,
    config: Optional[MachineConfig] = None,
    *,
    options: Optional[LoweringOptions] = None,
    prefetch: bool = True,
    clip: bool = True,
    sanitize: Optional[bool] = None,
):
    """One strategy -> executable kernel (clipped to the compute's
    extents by default, as the sharded runners need)."""
    from ..codegen.executor import CompiledKernel

    pipeline = CandidatePipeline(
        compute, options=options, config=config, prefetch=prefetch
    )
    candidate = pipeline.prepare(strategy, clip=clip)
    return CompiledKernel(
        candidate.kernel, compute, pipeline.config, sanitize=sanitize
    )
