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
  recorded, so the set of evaluated candidates -- and therefore every
  counter and the winner -- is identical on every machine and across
  an interrupt and resume;
* the pruning threshold is strict (``bound * BOUND_SAFETY >
  threshold``), so candidates tying the k-th best score are always
  evaluated and the returned top-K matches the exhaustive one
  bit-for-bit.

Resilience (see DESIGN.md "Failure model & recovery"):

* a candidate whose evaluation was quarantined comes back as a
  :class:`~repro.engine.evaluators.FailedEvaluation`; it is reported
  in the results (so callers can audit it) but never enters the
  incumbent heap, so it cannot distort the pruning threshold;
* with a checkpoint path (explicit argument, or the process-wide
  ``--checkpoint`` directory), the driver atomically saves its state
  -- incumbent heap, evaluated-position cursor, scored outcomes, prune
  counters -- at every batch boundary; ``resume`` restores an
  interrupted sweep and finishes it with a bit-identical final result
  (``tests/engine/test_checkpoint.py``).

``TuneOptions.prune`` (:mod:`repro.options`) is the run-wide knob
behind the CLI's ``--no-prune`` escape hatch.  With
pruning off the search degrades to exactly the pre-bound behaviour:
realize every candidate in enumeration order, score them in one batch.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from ..machine.config import config_signature
from ..options import current
from ..scheduler.enumerate import Candidate
from .bounds import BOUND_SAFETY
from .checkpoint import SearchCheckpoint, search_digest
from .evaluators import Evaluation, Evaluator, compute_signature
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


def _resolve_checkpoint(
    checkpoint: Union[None, str, Path],
    resume: Optional[bool],
    digest: str,
) -> Tuple[Optional[Path], bool]:
    """Explicit path beats the run-wide directory policy."""
    if checkpoint is not None:
        return Path(checkpoint), bool(resume)
    policy = current().checkpoint
    if policy is None:
        return None, False
    return (
        policy.path_for(digest),
        policy.resume if resume is None else bool(resume),
    )


def _restore(
    state: SearchCheckpoint,
    pipeline: CandidatePipeline,
    evaluator: Evaluator,
    size: int,
) -> Optional[List[Tuple[int, Candidate, Evaluation]]]:
    """Re-materialize the scored candidates of a checkpoint.

    Lowering is deterministic, so realizing a previously-scored
    strategy again yields the same kernel; the stored evaluation is
    attached without re-scoring.  ``None`` (reject the checkpoint) if
    any stored index no longer realizes -- that means the checkpoint
    does not belong to this space after all.
    """
    scored: List[Tuple[int, Candidate, Evaluation]] = []
    config = getattr(evaluator, "config", None)
    if config is None:
        config = getattr(getattr(evaluator, "inner", None), "config", None)
    for idx, raw in state.scored:
        if not 0 <= idx < size:
            return None
        candidate = pipeline.realize(pipeline.strategy_at(idx), prefilter=True)
        if candidate is None:
            return None
        scored.append(
            (idx, candidate, SearchCheckpoint.unpack_eval(raw, config))
        )
    return scored


def search_candidates(
    pipeline: CandidatePipeline,
    evaluator: Evaluator,
    *,
    top_k: int = 1,
    prune: Optional[bool] = None,
    batch_size: Optional[int] = None,
    limit: Optional[int] = None,
    checkpoint: Union[None, str, Path] = None,
    resume: Optional[bool] = None,
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

    ``checkpoint`` names a JSON sidecar updated atomically at every
    batch boundary; with ``resume`` the driver restores a matching
    checkpoint and continues instead of restarting (checkpointing
    applies to the branch-and-bound path -- the exhaustive path is a
    single batch with nothing to resume).
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

    digest = search_digest(
        compute_signature(pipeline.compute),
        len(order),
        keep,
        schedule,
        evaluator,
        (
            pipeline.options,
            pipeline.prefetch,
            config_signature(pipeline.config),
        ),
    )
    ckpt_path, do_resume = _resolve_checkpoint(checkpoint, resume, digest)

    worst_k: List[float] = []  # max-heap (negated) of the k best scores
    threshold = float("inf")
    scored: List[Tuple[int, Candidate, Evaluation]] = []
    pos = 0
    # counter baselines: the checkpoint stores this search's own
    # counters, not whatever the caller accumulated before it.
    bp0, sp0, q0 = metrics.bound_pruned, metrics.spm_pruned, metrics.quarantined
    pb0 = len(metrics.prune_batches)

    if ckpt_path is not None and do_resume:
        state = SearchCheckpoint.load(ckpt_path, expect_space=digest)
        if state is not None:
            restored = _restore(state, pipeline, evaluator, len(order))
            if restored is None:
                metrics.record_event(
                    "checkpoint-reject",
                    f"{ckpt_path}: scored indices do not realize; "
                    f"starting fresh",
                )
            else:
                scored = restored
                pos = state.pos
                worst_k = list(state.worst_k)
                if len(worst_k) == keep:
                    threshold = -worst_k[0]
                metrics.bound_pruned += state.bound_pruned
                metrics.spm_pruned += state.spm_pruned
                metrics.quarantined += state.quarantined
                metrics.prune_batches.extend(state.prune_batches)
                metrics.record_event(
                    "checkpoint-resume",
                    f"{ckpt_path}: resumed at position {pos}/{len(order)} "
                    f"with {len(scored)} scored",
                )

    def _save(complete: bool) -> None:
        if ckpt_path is None:
            return
        SearchCheckpoint(
            space=digest,
            pos=pos,
            worst_k=list(worst_k),
            scored=[
                (idx, SearchCheckpoint.pack_eval(e))
                for idx, _, e in scored
            ],
            bound_pruned=metrics.bound_pruned - bp0,
            spm_pruned=metrics.spm_pruned - sp0,
            quarantined=metrics.quarantined - q0,
            prune_batches=list(metrics.prune_batches[pb0:]),
            complete=complete,
        ).save(ckpt_path)

    while pos < len(order):
        if bounds[order[pos]] * BOUND_SAFETY > threshold:
            # bounds are sorted: everything from here on is prunable.
            tail = len(order) - pos
            metrics.bound_pruned += tail
            metrics.record_prune_batch(considered=tail, pruned=tail, lowered=0)
            pos = len(order)
            break
        # the batch index is the number of batches this search has
        # recorded, so a resumed search picks the schedule up where the
        # checkpoint's prune_batches left it.  Truncate the batch at the
        # first bound above the threshold: bounds are sorted, so the
        # next loop iteration's head check prunes everything from the
        # cut onwards in one step.
        done = len(metrics.prune_batches) - pb0
        batch = schedule[min(done, len(schedule) - 1)]
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
            _save(complete=False)
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
        _save(complete=False)

    _save(complete=True)
    scored.sort(key=lambda item: item[0])
    return [(candidate, evaluation) for _, candidate, evaluation in scored]
