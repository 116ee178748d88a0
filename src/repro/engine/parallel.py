"""Supervised, order-stable batch evaluation.

Candidates are scored in-process, one at a time, in input order.  There
is no process pool: on a 2-vCPU host one made every tuner slower, since
the scoring step is too cheap to pay for pickling the lowered IR.

Failure model (see DESIGN.md "Failure model & recovery"): an evaluator
exception -- including an injected crash or virtual-clock hang -- never
aborts the batch.  The failing candidate is retried up to
:data:`MAX_RETRIES` times; a candidate that still fails is quarantined
and reported as a structured
:class:`~repro.engine.evaluators.FailedEvaluation` carrying the
exception chain.  Every decision (retry, quarantine) is an explicit
:class:`~repro.engine.metrics.EngineEvent`.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Tuple

from ..faults import FaultyEvaluator, InjectedCrash, InjectedHang
from ..options import current
from ..scheduler.enumerate import Candidate
from .evaluators import (
    Evaluation,
    Evaluator,
    FailedEvaluation,
    MemoizingEvaluator,
)
from .metrics import EngineMetrics

#: failed attempts one candidate gets after its first before it is
#: quarantined.
MAX_RETRIES = 2


def _classify(exc: BaseException) -> str:
    """Failure site of one supervision-visible exception."""
    if isinstance(exc, (InjectedHang, TimeoutError)):
        return "hang"
    if isinstance(exc, InjectedCrash):
        return "crash"
    return "exception"


def _supervise(
    index: int,
    candidate: Candidate,
    score: Callable[[Candidate, int], Evaluation],
    metrics: EngineMetrics,
) -> Evaluation:
    """Score one candidate with ``score(candidate, attempt)``, retrying
    then quarantining on failure."""
    attempts = 0
    while True:
        try:
            return score(candidate, attempts)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            site = _classify(exc)
            attempts += 1
            if attempts <= MAX_RETRIES:
                metrics.retries += 1
                metrics.record_event(
                    "retry",
                    f"{site} on candidate {index} "
                    f"(attempt {attempts}): {exc!r}",
                )
                continue
            failure = FailedEvaluation.from_exception(
                exc, site=site, attempts=attempts
            )
            metrics.quarantined += 1
            metrics.record_event(
                "quarantine", f"candidate {index}: {failure.describe()}"
            )
            return failure


def evaluate_batch(
    candidates: Iterable[Candidate],
    evaluator: Evaluator,
    *,
    metrics: Optional[EngineMetrics] = None,
) -> List[Evaluation]:
    """Score every candidate; ``results[i]`` belongs to ``candidates[i]``.

    A :class:`MemoizingEvaluator` is split around the scoring loop: all
    hits are answered first, then misses are evaluated with the inner
    evaluator and written back (failures never are), and the memo is
    flushed once for the whole batch.

    Evaluation is *supervised* (see the module docstring): a raising
    evaluator yields a :class:`FailedEvaluation` at that candidate's
    position after retries, never an aborted batch.  When a
    :mod:`repro.faults` plan is active the inner evaluator is wrapped to
    inject the planned faults.
    """
    cands = list(candidates)
    memo = evaluator if isinstance(evaluator, MemoizingEvaluator) else None
    inner = memo.inner if memo is not None else evaluator
    plan = current().faults
    if plan is not None:
        score = FaultyEvaluator(inner, plan).evaluate
    else:
        def score(candidate: Candidate, attempt: int) -> Evaluation:
            return inner.evaluate(candidate)

    results: List[Optional[Evaluation]] = [None] * len(cands)
    todo: List[Tuple[int, Candidate]] = []
    for i, cand in enumerate(cands):
        hit = memo.lookup(cand) if memo is not None else None
        if hit is not None:
            results[i] = hit
        else:
            todo.append((i, cand))
    if metrics is not None and memo is not None:
        metrics.memo_hits += len(cands) - len(todo)

    # supervision always records somewhere; callers that care pass
    # their own metrics and get the events/counters back.
    m = metrics if metrics is not None else EngineMetrics()
    t0 = time.perf_counter()
    if todo:
        for i, cand in todo:
            results[i] = _supervise(i, cand, score, m)
            if memo is not None:
                memo.remember(cand, results[i])  # skips failures
        if memo is not None:
            memo.flush()  # persist new scores at the batch boundary
    if metrics is not None:
        metrics.stage_for(inner.kind).add(
            time.perf_counter() - t0, count=len(todo)
        )
    return results  # type: ignore[return-value]
