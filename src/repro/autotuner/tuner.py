"""The autotuners (Sec. 4.6): one driver, two rankers.

Both tuners run the same loop -- search the legal candidates, simulate
the leaders, validate the winner -- and differ only in the evaluator
that ranks the candidates:

* the black-box tuner "generates code for all schedule IRs and picks
  the best one by collecting real execution time": it ranks by
  simulated execution of every candidate, so its search has already
  measured everything and nothing is re-simulated.  The wall-clock cost
  of doing so is exactly the tuning-time penalty Tab. 3 quantifies.
* the model-based tuner ranks every candidate with the static cost
  model and simulates only the ``top_k`` predictions -- this is what
  collapses tuning time from hours to seconds/minutes while staying
  within a few percent of the true optimum (Fig. 9, Tab. 3).

Candidate preparation, search and evaluation route through
:mod:`repro.engine`: the :class:`~repro.engine.CandidatePipeline` owns
the enumerate -> optimize loop, evaluators own prediction/execution,
and ``evaluate_batch`` scores each batch in-process under retry and
quarantine supervision, with order-stable results.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..dsl.compute import ComputeDef
from ..dsl.schedule import ScheduleSpace
from ..errors import SanitizerError, TuningError, ValidationError
from ..machine.config import MachineConfig, default_config
from ..scheduler.lower import LoweringOptions
from ..engine import (
    AnalyticEvaluator,
    CandidatePipeline,
    Evaluator,
    MemoizingEvaluator,
    SimulatorEvaluator,
    ValidatingEvaluator,
    evaluate_batch,
    resolve_validate,
    search_candidates,
    synthetic_feeds,
)
from ..primitives.microkernel import schedule_memo_stats
from .cost_model import GemmCoeffs
from .result import CandidateScore, TuningResult

__all__ = ["tune_blackbox", "tune_with_model"]


def _memo_salt(options: Optional[LoweringOptions], prefetch: bool):
    """Context that changes the lowered kernel without changing the
    (compute, strategy) pair -- must split memo entries."""
    opts = (
        None
        if options is None
        else (options.double_buffer, options.min_vec_extent)
    )
    return (opts, bool(prefetch))


def _check_workers(workers: int) -> None:
    if workers != 1:
        raise ValueError(
            f"workers={workers!r}: candidate evaluation runs in-process, "
            f"so only workers=1 is accepted"
        )


def _tune(
    compute: ComputeDef,
    space: ScheduleSpace,
    method: str,
    *,
    measure: int,
    coeffs: Optional[GemmCoeffs] = None,
    config: Optional[MachineConfig],
    options: Optional[LoweringOptions],
    prefetch: bool,
    feeds: Optional[Dict[str, np.ndarray]],
    keep_scores: bool,
    top_k: int = 1,
    limit: Optional[int] = None,
    memoize: bool,
    prune: Optional[bool],
    validate: Optional[str],
) -> TuningResult:
    """Search -> measure -> validate.  ``method`` picks the ranking
    evaluator (``"blackbox"``: the simulator, ``"model"``: the cost
    model); ``measure`` is how many ranked leaders to simulate
    afterwards."""
    cfg = config or default_config()
    mode = resolve_validate(validate)

    simulator: Optional[Evaluator] = None
    if method == "blackbox" or measure:
        data = feeds if feeds is not None else synthetic_feeds(compute)
        simulator = SimulatorEvaluator(data, cfg)
        if mode == "all":
            simulator = ValidatingEvaluator(simulator, cfg)
        if memoize:
            simulator = MemoizingEvaluator(
                simulator, salt=_memo_salt(options, prefetch)
            )
    # the clock starts once the inputs exist: generating them is not
    # tuning work, and Tab. 3 scales black-box wall time up to the full
    # space, which would multiply a one-off cost counted here.
    t0 = time.perf_counter()
    ukernel_before = schedule_memo_stats().hits

    pipeline = CandidatePipeline(
        compute, space, options=options, config=cfg, prefetch=prefetch
    )
    ranker = (
        simulator if method == "blackbox" else AnalyticEvaluator(coeffs, cfg)
    )
    pairs = search_candidates(
        pipeline,
        ranker,
        top_k=max(1, top_k),
        prune=prune,
        limit=limit,
    )
    if not pairs:
        raise TuningError(
            f"schedule space of {compute.name!r} has no legal candidates"
        )
    usable = [(c, e) for c, e in pairs if not e.failed]
    if not usable:
        raise TuningError(
            f"every candidate of {compute.name!r} was quarantined "
            f"({len(pairs)} failures); see the engine events for the "
            f"failure chain"
        )

    scores = [
        CandidateScore(
            candidate=c,
            predicted_cycles=e.predicted_cycles,
            measured_cycles=e.measured_cycles,
            report=e.report,
        )
        for c, e in usable
    ]
    # a stable sort keeps the first of equals -- the enumeration-order
    # tie-break, so results are stable with and without pruning.
    ranked = sorted(scores, key=lambda s: s.cycles)

    pool = ranked
    if measure:
        finalists = ranked[:measure]
        measured = evaluate_batch(
            [s.candidate for s in finalists],
            simulator,
            metrics=pipeline.metrics,
        )
        if all(evaluation.failed for evaluation in measured):
            raise TuningError(
                f"every finalist of {compute.name!r} was quarantined "
                f"during measurement; see the engine events for the "
                f"failure chain"
            )
        for score, evaluation in zip(finalists, measured):
            if not evaluation.failed:
                score.measured_cycles = evaluation.measured_cycles
                score.report = evaluation.report
        pool = sorted(
            (s for s in finalists if s.measured_cycles is not None),
            key=lambda s: s.measured_cycles,
        )

    best = pool[0]
    # winner validation: take the best candidate that passes the
    # differential check.  Under mode "all" the evaluator wrapper
    # already validated every simulated run, so only an unmeasured
    # (prediction-only) pool still needs the walk.
    if mode == "winner" or (mode == "all" and best.measured_cycles is None):
        for score in pool:
            try:
                pipeline.validate(score.candidate)
            except (ValidationError, SanitizerError):
                continue
            best = score
            break
        else:
            raise TuningError(
                f"every candidate of {compute.name!r} failed "
                f"differential validation; see the engine events for "
                f"the failure chain"
            )

    pipeline.metrics.ukernel_memo_hits += (
        schedule_memo_stats().hits - ukernel_before
    )
    if not keep_scores:
        scores = []
    elif method == "model":
        scores = ranked  # the model reports its predicted ranking
    return TuningResult(
        best=best,
        space_size=pipeline.stats.declared,
        legal_count=pipeline.stats.legal,
        evaluated=len(usable),
        wall_seconds=time.perf_counter() - t0,
        method=method,
        scores=scores,
        report=best.report,
        metrics=pipeline.metrics,
    )


def tune_blackbox(
    compute: ComputeDef,
    space: ScheduleSpace,
    *,
    config: Optional[MachineConfig] = None,
    options: Optional[LoweringOptions] = None,
    prefetch: bool = True,
    feeds: Optional[Dict[str, np.ndarray]] = None,
    keep_scores: bool = False,
    limit: Optional[int] = None,
    workers: int = 1,
    memoize: bool = False,
    prune: bool = False,
    validate: Optional[str] = None,
) -> TuningResult:
    """Execute every legal candidate; return the measured best.

    ``limit`` caps the number of executed candidates (used by smoke
    benches; the paper's black-box numbers use the full space).
    ``workers`` must be 1: evaluation always runs in-process, and the
    keyword stays only for existing callers.

    ``memoize`` and ``prune`` default *off*, and ``prune`` deliberately
    ignores ``TuneOptions.prune``: this tuner exists to
    measure the true cost of brute force, and answering from a warm memo
    or skipping candidates would corrupt that measurement.  Opt in
    explicitly when the cost is not the point -- the admissible bound
    holds against measured cycles too, so the winner is unchanged.
    ``keep_scores`` returns the scores in enumeration order.

    ``validate`` behaves exactly as in :func:`tune_with_model`.
    """
    _check_workers(workers)
    return _tune(
        compute,
        space,
        "blackbox",
        measure=0,
        config=config,
        options=options,
        prefetch=prefetch,
        feeds=feeds,
        keep_scores=keep_scores,
        limit=limit,
        memoize=memoize,
        prune=bool(prune),
        validate=validate,
    )


def tune_with_model(
    compute: ComputeDef,
    space: ScheduleSpace,
    *,
    coeffs: Optional[GemmCoeffs] = None,
    config: Optional[MachineConfig] = None,
    options: Optional[LoweringOptions] = None,
    prefetch: bool = True,
    run_best: bool = True,
    feeds: Optional[Dict[str, np.ndarray]] = None,
    keep_scores: bool = False,
    top_k: int = 1,
    workers: int = 1,
    memoize: bool = True,
    prune: Optional[bool] = None,
    validate: Optional[str] = None,
) -> TuningResult:
    """Rank all candidates analytically; execute the best.

    ``top_k > 1`` re-measures the k best predictions and keeps the
    fastest -- the paper's "pick best (or top k)" refinement;
    ``run_best=False`` executes nothing and returns the predicted best.
    ``workers`` must be 1, as for :func:`tune_blackbox`;
    ``memoize`` reuses measured runs of strategies already executed
    anywhere in this process.  ``prune`` enables branch-and-bound
    pruning (``None`` inherits ``TuneOptions.prune``, see
    :mod:`repro.options`): candidates whose admissible
    cost bound exceeds the ``top_k``-th best prediction so far are
    never lowered or scored.  The winner and the re-measured top-K are
    bit-identical either way; only ``evaluated`` and the stage
    counters change.  ``keep_scores`` returns the scores in predicted
    order.

    Candidates quarantined by supervision (see DESIGN.md "Failure model
    & recovery") are excluded from ranking; tuning only fails if
    *every* candidate was quarantined.

    ``validate`` selects differential validation (``None`` inherits the
    run's options, see :func:`repro.engine.resolve_validate`):
    ``"winner"`` validates the selected winner against the NumPy
    reference before returning (falling through to the next finalist on
    failure), ``"all"`` validates every measured candidate.  On a
    fault-free space validation never changes the winner -- it is a
    check, not a perturbation.
    """
    _check_workers(workers)
    return _tune(
        compute,
        space,
        "model",
        measure=max(1, top_k) if run_best else 0,
        coeffs=coeffs,
        config=config,
        options=options,
        prefetch=prefetch,
        feeds=feeds,
        keep_scores=keep_scores,
        top_k=top_k,
        memoize=memoize,
        prune=prune,
        validate=validate,
    )
