"""Branch-and-bound candidate search.

The profile of a full-space tuning run is dominated by per-candidate
IR work: at a 512^3 GEMM's 8192-strategy space, bounding the whole
space costs ~0.02 s, while lowering + optimizing + predicting cost
>11 s.  Every candidate whose *admissible* pre-IR bound
(:mod:`repro.engine.bounds`) already exceeds the k-th best score found
so far can skip all three stages without changing the outcome: the
bound never exceeds the true score, so a pruned candidate can neither
win nor enter the top-K.

The driver is best-bound-first: the whole space is bounded up front
(the bound terms are computed once per skeleton and per kernel variant
and broadcast over the decision product), stably sorted by bound, and
processed in batches from the most promising end; only the strategies
a batch takes are ever built.  Batches follow a growing schedule
(:data:`PRUNE_SCHEDULE`): a small first batch finds a near-optimal
incumbent without lowering strategies the bound would have pruned once
it existed, and later batches grow while the space keeps proving
hard.  Because bounds are sorted, the first bound above the incumbent
threshold proves *every* remaining strategy prunable -- the search
stops in one step instead of trickling through the tail.

Determinism guarantees (tested in ``tests/engine/test_search.py``):

* results are returned in enumeration order, so the caller's stable
  sort breaks score ties exactly as the exhaustive walk does;
* the schedule is a constant (not derived from the host), and the
  size of a batch depends only on how many batches the search has
  taken, so the set of evaluated candidates -- and therefore every
  counter and the winner -- is identical on every machine and on
  every rerun;
* the pruning threshold is strict (``bound * BOUND_SAFETY >
  threshold``), so candidates tying the k-th best score are always
  evaluated and the returned top-K matches the exhaustive one
  bit-for-bit.

Resilience (see DESIGN.md "Failure model & recovery"):

* a candidate whose evaluation was quarantined comes back as a
  :class:`~repro.engine.evaluators.FailedEvaluation`; it is reported
  in the results (so callers can audit it) but never enters the
  incumbent heap, so it cannot distort the pruning threshold;
* an interrupted sweep resumes by running again over the same
  persistent eval store (``--eval-cache``): the search is
  deterministic, so the rerun takes the same batches, and a memoizing
  evaluator answers every score banked before the interrupt from the
  store (``evaluate_batch`` flushes it at each batch boundary).  The
  rerun still realizes every candidate it takes, and an evaluator
  without a memo (the analytic ranker) scores them again
  (``tests/engine/test_checkpoint.py``).

``TuneOptions.prune`` (:mod:`repro.options`) is the run-wide knob
behind the CLI's ``--no-prune`` escape hatch.  With
pruning off the search degrades to exactly the pre-bound behaviour:
realize every candidate in enumeration order, score them in one batch.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from ..options import current
from ..scheduler.enumerate import Candidate
from .bounds import BOUND_SAFETY
from .evaluators import Evaluation, Evaluator
from .parallel import evaluate_batch
from .pipeline import CandidatePipeline

__all__ = ["PRUNE_SCHEDULE", "search_candidates"]

#: strategies realized + scored per branch-and-bound step: the n-th
#: batch of a search takes ``PRUNE_SCHEDULE[n]`` strategies, and the
#: last entry repeats.  A constant on purpose: deriving it from the
#: host would make the set of evaluated candidates depend on the
#: machine the search runs on.
PRUNE_SCHEDULE = (8, 16, 32, 64)


def _exhaustive(
    pipeline: CandidatePipeline,
    evaluator: Evaluator,
    limit: Optional[int],
) -> List[Tuple[Candidate, Evaluation]]:
    """The prune-off path: realize everything, score in one batch."""
    cands = list(pipeline.candidates(limit=limit))
    if not cands:
        return []
    evals = evaluate_batch(cands, evaluator, metrics=pipeline.metrics)
    return list(zip(cands, evals))


def search_candidates(
    pipeline: CandidatePipeline,
    evaluator: Evaluator,
    *,
    top_k: int = 1,
    prune: Optional[bool] = None,
    batch_size: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[Tuple[Candidate, Evaluation]]:
    """Score the legal candidates of ``pipeline``'s space.

    Returns ``(candidate, evaluation)`` pairs in enumeration order.
    With pruning the list covers every candidate that could possibly
    rank among the ``top_k`` best (plus whatever else was scored before
    the bound threshold tightened); without, it covers the entire legal
    space.  Either way, stably sorting the result by
    ``evaluation.cycles`` yields an identical winner and top-K.

    ``limit`` (first N legal candidates, a blackbox-tuner notion whose
    meaning depends on enumeration order) forces the exhaustive path.
    ``batch_size`` replaces :data:`PRUNE_SCHEDULE` with constant
    batches of that size.
    """
    if prune is None:
        prune = current().prune
    if not prune or limit is not None:
        return _exhaustive(pipeline, evaluator, limit)

    space_bound = pipeline.bound_space()
    # a stable sort keeps enumeration order among equal bounds
    order = np.argsort(space_bound, kind="stable").tolist()
    bounds = space_bound.tolist()

    metrics = pipeline.metrics
    keep = max(1, int(top_k))
    schedule = (max(1, int(batch_size)),) if batch_size else PRUNE_SCHEDULE

    worst_k: List[float] = []  # max-heap (negated) of the k best scores
    threshold = float("inf")
    scored: List[Tuple[int, Candidate, Evaluation]] = []
    pos = 0
    done = 0  # batches taken so far: the position in the schedule

    while pos < len(order):
        if bounds[order[pos]] * BOUND_SAFETY > threshold:
            # bounds are sorted: everything from here on is prunable.
            tail = len(order) - pos
            metrics.bound_pruned += tail
            metrics.record_prune_batch(considered=tail, pruned=tail, lowered=0)
            break
        # Truncate the batch at the first bound above the threshold:
        # bounds are sorted, so the next loop iteration's head check
        # prunes everything from the cut onwards in one step.
        batch = schedule[min(done, len(schedule) - 1)]
        done += 1
        end = min(pos + batch, len(order))
        cut = pos + 1
        while (
            cut < end
            and bounds[order[cut]] * BOUND_SAFETY <= threshold
        ):
            cut += 1
        take = order[pos:cut]
        pos = cut

        spm_before = metrics.spm_pruned
        realized: List[Tuple[int, Candidate]] = []
        for idx in take:
            candidate = pipeline.realize(
                pipeline.strategy_at(idx), prefilter=True
            )
            if candidate is not None:
                realized.append((idx, candidate))
        metrics.record_prune_batch(
            considered=len(take),
            pruned=0,
            lowered=len(take) - (metrics.spm_pruned - spm_before),
        )
        if not realized:
            continue

        evals = evaluate_batch(
            [c for _, c in realized], evaluator, metrics=metrics
        )
        for (idx, candidate), evaluation in zip(realized, evals):
            scored.append((idx, candidate, evaluation))
            if evaluation.failed:
                continue  # quarantined: must not distort the incumbent
            cycles = evaluation.cycles
            if len(worst_k) < keep:
                heapq.heappush(worst_k, -cycles)
            elif cycles < -worst_k[0]:
                heapq.heapreplace(worst_k, -cycles)
        if len(worst_k) == keep:
            threshold = -worst_k[0]

    scored.sort(key=lambda item: item[0])
    return [(candidate, evaluation) for _, candidate, evaluation in scored]
