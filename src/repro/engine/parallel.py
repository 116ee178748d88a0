"""Supervised, order-stable parallel batch evaluation.

Candidate evaluations are independent, so a batch can fan out over a
:class:`~concurrent.futures.ProcessPoolExecutor` (chunked, to amortize
per-task pickling of kernel IR).  Results are always returned in input
order and are bit-identical to a serial run -- the simulator is
deterministic and workers only differ in *where* a candidate is scored,
never in *how*.

Failure model (see DESIGN.md "Failure model & recovery"):

* **Supervision, not silent fallback.**  A worker crash, an evaluator
  exception, a hang (wall-clock chunk timeout or an injected
  virtual-clock one) never aborts the batch and never silently re-runs
  everything serially.  The failing chunk is retried up to
  ``SupervisionPolicy.max_retries`` times, then *bisected* so the
  poison candidate is isolated; a candidate that still fails alone is
  quarantined and reported as a structured
  :class:`~repro.engine.evaluators.FailedEvaluation` carrying the
  exception chain.  Every decision (retry, bisect, quarantine, pool
  rebuild) is an explicit :class:`~repro.engine.metrics.EngineEvent`.
* **Exact attribution.**  A broken pool or a timeout cannot name the
  guilty chunk (every in-flight future fails together), so the first
  such failure switches the batch into *isolation mode*: chunks are
  re-dispatched one at a time, where a failure is exactly
  attributable.  Ordinary exceptions are always future-specific and
  never need isolation.
* **Serial degradation is loud.**  Only pool *creation* failures and
  pickling errors fall back to the (still supervised) serial path, and
  doing so warns once per cause and counts ``degraded_batches``.

``set_default_workers`` is the process-wide knob the CLI's
``--workers`` flag sets; call sites that pass ``workers=None`` inherit
it, so parallelism reaches every tuner without threading a parameter
through the whole harness.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..faults import (
    FaultyEvaluator,
    InjectedCrash,
    InjectedHang,
    active_fault_plan,
    set_current_attempt,
)
from ..scheduler.enumerate import Candidate
from .evaluators import (
    Evaluation,
    Evaluator,
    FailedEvaluation,
    MemoizingEvaluator,
)
from .metrics import EngineMetrics

_DEFAULT_WORKERS = 1


def set_default_workers(workers: int) -> None:
    """Set the process-wide default worker count (used by ``--workers``)."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = max(1, int(workers))


def default_workers() -> int:
    return _DEFAULT_WORKERS


def resolve_workers(workers: Optional[int]) -> int:
    return _DEFAULT_WORKERS if workers is None else max(1, int(workers))


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the batch supervisor reacts to failing evaluations.

    ``chunk_timeout`` is wall-clock seconds allowed per dispatched
    chunk (``None`` disables the timeout; injected virtual-clock hangs
    are handled regardless).  ``max_retries`` is how many failed
    attempts one chunk (or, serially, one candidate) gets before the
    supervisor escalates: a multi-candidate chunk is bisected to
    isolate the poison, a single candidate is quarantined as a
    :class:`~repro.engine.evaluators.FailedEvaluation`.
    """

    chunk_timeout: Optional[float] = None
    max_retries: int = 2


_DEFAULT_POLICY = SupervisionPolicy()


def set_default_policy(policy: Optional[SupervisionPolicy]) -> None:
    """Set the process-wide supervision policy (``None`` restores the
    built-in defaults)."""
    global _DEFAULT_POLICY
    _DEFAULT_POLICY = policy if policy is not None else SupervisionPolicy()


def resolve_policy(policy: Optional[SupervisionPolicy]) -> SupervisionPolicy:
    return _DEFAULT_POLICY if policy is None else policy


# The evaluator is shipped to each worker once (pool initializer), not
# per task; tasks then carry only (index, candidate) chunks.
_WORKER_EVALUATOR: Optional[Evaluator] = None


def _init_worker(evaluator: Evaluator) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator


def _evaluate_chunk(
    chunk: Sequence[Tuple[int, Candidate]], attempt: int = 0
) -> List[Tuple[int, Evaluation]]:
    assert _WORKER_EVALUATOR is not None
    set_current_attempt(attempt)
    try:
        return [(i, _WORKER_EVALUATOR.evaluate(c)) for i, c in chunk]
    except InjectedCrash:
        # simulate a hard worker death: the parent observes a
        # BrokenProcessPool exactly as for a real segfault/OOM kill.
        os._exit(93)
    finally:
        set_current_attempt(0)


@dataclass
class _Chunk:
    """One dispatch unit: (index, candidate) pairs plus its failed
    attempt count (carried across retries and into fault draws)."""

    items: Tuple[Tuple[int, Candidate], ...]
    attempts: int = 0


def _classify(exc: BaseException) -> str:
    """Failure site of one supervision-visible exception."""
    if isinstance(exc, (InjectedHang, FuturesTimeout, TimeoutError)):
        return "hang"
    if isinstance(exc, (InjectedCrash, BrokenProcessPool)):
        return "crash"
    return "exception"


def _is_dispatch_degradation(exc: BaseException) -> bool:
    """Failures of the *dispatch machinery* (not of a candidate):
    unpicklable tasks or a platform without usable multiprocessing.
    These degrade the batch to serial instead of burning retries."""
    if isinstance(exc, (pickle.PicklingError, ImportError)):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(
        exc
    ).lower()


_DEGRADE_WARNED: set = set()


def reset_degradation_warnings() -> None:
    """Re-arm the once-per-cause degradation warning (test hook)."""
    _DEGRADE_WARNED.clear()


def _warn_degraded(cause: BaseException, metrics: EngineMetrics) -> None:
    """Loudly degrade one batch to the serial path (satellite of the
    old silent ``except: return None``)."""
    metrics.degraded_batches += 1
    metrics.record_event(
        "degraded", f"parallel dispatch unavailable: {cause!r}"
    )
    marker = type(cause).__name__
    if marker not in _DEGRADE_WARNED:
        _DEGRADE_WARNED.add(marker)
        warnings.warn(
            f"parallel candidate evaluation degraded to serial: "
            f"{type(cause).__name__}: {cause} (reported once per cause; "
            f"the batch still completes in-process)",
            RuntimeWarning,
            stacklevel=3,
        )


class _SerialFallback(Exception):
    """Internal: unwind the pool dispatch and re-run the batch serially."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when workers are stuck: terminate the
    processes first, then release the executor's bookkeeping."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except OSError:  # pragma: no cover - already dead
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter teardown races
        pass


def _make_pool(workers: int, evaluator: Evaluator) -> ProcessPoolExecutor:
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(evaluator,),
    )


def _handle_chunk_failure(
    chunk: _Chunk,
    exc: BaseException,
    policy: SupervisionPolicy,
    metrics: EngineMetrics,
    pending: "deque[_Chunk]",
    out: List[Tuple[int, Evaluation]],
) -> None:
    """Retry, bisect or quarantine one failed chunk (exact attribution
    already established by the caller)."""
    site = _classify(exc)
    attempts = chunk.attempts + 1
    indices = [i for i, _ in chunk.items]
    if attempts <= policy.max_retries:
        metrics.retries += 1
        metrics.record_event(
            "retry",
            f"{site} on chunk {indices} (attempt {attempts}): {exc!r}",
        )
        pending.append(_Chunk(chunk.items, attempts))
    elif len(chunk.items) > 1:
        mid = len(chunk.items) // 2
        metrics.record_event(
            "bisect",
            f"{site} persists on chunk {indices}; splitting "
            f"{indices[:mid]} / {indices[mid:]}",
        )
        pending.append(_Chunk(chunk.items[:mid], 0))
        pending.append(_Chunk(chunk.items[mid:], 0))
    else:
        index, _ = chunk.items[0]
        failure = FailedEvaluation.from_exception(
            exc, site=site, attempts=attempts
        )
        metrics.quarantined += 1
        metrics.record_event(
            "quarantine", f"candidate {index}: {failure.describe()}"
        )
        out.append((index, failure))


def _run_parallel(
    todo: Sequence[Tuple[int, Candidate]],
    evaluator: Evaluator,
    workers: int,
    chunk_size: Optional[int],
    policy: SupervisionPolicy,
    metrics: EngineMetrics,
) -> Optional[List[Tuple[int, Evaluation]]]:
    """Supervised pool dispatch; ``None`` means "degrade to serial"
    (pool creation or pickling failure -- already warned and counted).
    """
    nw = min(workers, len(todo))
    # one chunk per worker: candidate costs within a batch are
    # near-uniform (same compute, same pipeline), so finer-grained
    # chunks only multiply pickling traffic without better balance.
    size = chunk_size or max(1, math.ceil(len(todo) / nw))
    pending: "deque[_Chunk]" = deque(
        _Chunk(tuple(todo[i : i + size]))
        for i in range(0, len(todo), size)
    )
    out: List[Tuple[int, Evaluation]] = []
    pool: Optional[ProcessPoolExecutor] = None
    # isolation mode: after a pool-wide failure (broken pool, timeout)
    # attribution is ambiguous, so dispatch one chunk at a time until
    # the batch drains.
    isolate = False
    try:
        while pending:
            if pool is None:
                try:
                    pool = _make_pool(nw, evaluator)
                except (OSError, ImportError, ValueError) as exc:
                    _warn_degraded(exc, metrics)
                    return None
            if isolate:
                batch = [pending.popleft()]
            else:
                batch = list(pending)
                pending.clear()
            futures = [
                (pool.submit(_evaluate_chunk, c.items, c.attempts), c)
                for c in batch
            ]
            for j, (fut, chunk) in enumerate(futures):
                try:
                    out.extend(fut.result(timeout=policy.chunk_timeout))
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    if _is_dispatch_degradation(exc):
                        raise _SerialFallback(exc) from exc
                    pool_wide = isinstance(
                        exc, (BrokenProcessPool, FuturesTimeout, TimeoutError)
                    ) and not isinstance(exc, InjectedHang)
                    if not pool_wide:
                        # future-specific failure: the pool is healthy
                        # and attribution is exact.
                        _handle_chunk_failure(
                            chunk, exc, policy, metrics, pending, out
                        )
                        continue
                    # pool-wide failure: kill the pool, salvage the
                    # finished futures, requeue everything else and
                    # switch to isolation mode.  Attempts are only
                    # charged when the chunk failed *alone*, so an
                    # innocent bystander is never bisected or
                    # quarantined by a neighbour's crash.
                    _kill_pool(pool)
                    pool = None
                    metrics.record_event(
                        "pool-rebuild",
                        f"{_classify(exc)} broke the worker pool "
                        f"({exc!r}); re-dispatching in isolation",
                    )
                    if isolate:
                        _handle_chunk_failure(
                            chunk, exc, policy, metrics, pending, out
                        )
                    else:
                        pending.append(chunk)
                    for fut2, chunk2 in futures[j + 1 :]:
                        if (
                            fut2.done()
                            and not fut2.cancelled()
                            and fut2.exception() is None
                        ):
                            out.extend(fut2.result())
                        else:
                            fut2.cancel()
                            pending.append(chunk2)
                    isolate = True
                    break
    except _SerialFallback as fallback:
        _warn_degraded(fallback.cause, metrics)
        return None
    finally:
        if pool is not None:
            pool.shutdown()
    return out


def _run_serial(
    todo: Sequence[Tuple[int, Candidate]],
    evaluator: Evaluator,
    policy: SupervisionPolicy,
    metrics: EngineMetrics,
) -> List[Tuple[int, Evaluation]]:
    """The in-process path, under the same supervision policy: failing
    candidates are retried then quarantined, never allowed to abort
    the batch."""
    out: List[Tuple[int, Evaluation]] = []
    try:
        for index, candidate in todo:
            attempts = 0
            while True:
                set_current_attempt(attempts)
                try:
                    out.append((index, evaluator.evaluate(candidate)))
                    break
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    site = _classify(exc)
                    attempts += 1
                    if attempts <= policy.max_retries:
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
                        "quarantine",
                        f"candidate {index}: {failure.describe()}",
                    )
                    out.append((index, failure))
                    break
    finally:
        set_current_attempt(0)
    return out


def evaluate_batch(
    candidates: Iterable[Candidate],
    evaluator: Evaluator,
    *,
    workers: Optional[int] = None,
    metrics: Optional[EngineMetrics] = None,
    chunk_size: Optional[int] = None,
    policy: Optional[SupervisionPolicy] = None,
) -> List[Evaluation]:
    """Score every candidate; ``results[i]`` belongs to ``candidates[i]``.

    A :class:`MemoizingEvaluator` is split around the dispatch: hits are
    answered in-process before any fan-out, misses are evaluated (in
    parallel when ``workers > 1``) with the inner evaluator and written
    back to the memo afterwards, so the memo stays coherent in the
    parent even though workers cannot share it.

    Evaluation is *supervised* (see the module docstring): a crashing
    worker, a raising evaluator or a hang yields a
    :class:`FailedEvaluation` at that candidate's position after
    retries and bisection, never an aborted or silently-serialized
    batch.  When a :mod:`repro.faults` plan is active the dispatched
    evaluator is wrapped to inject the planned faults.
    """
    cands = list(candidates)
    n = resolve_workers(workers)
    sup = resolve_policy(policy)
    memo = evaluator if isinstance(evaluator, MemoizingEvaluator) else None
    inner = memo.inner if memo is not None else evaluator
    plan = active_fault_plan()
    dispatch = (
        FaultyEvaluator(inner, plan) if plan is not None else inner
    )

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
        done = None
        if n > 1 and len(todo) > 1:
            done = _run_parallel(todo, dispatch, n, chunk_size, sup, m)
        if done is None:
            done = _run_serial(todo, dispatch, sup, m)
        for i, evaluation in done:
            results[i] = evaluation
            if memo is not None and not evaluation.failed:
                memo.remember(cands[i], evaluation)
        if memo is not None:
            memo.flush()  # persist new scores at the batch boundary
    if metrics is not None:
        metrics.stage_for(inner.kind).add(
            time.perf_counter() - t0, count=len(todo)
        )
        metrics.workers = max(metrics.workers, n)
    return results  # type: ignore[return-value]
