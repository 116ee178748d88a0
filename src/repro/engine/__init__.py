"""The candidate-evaluation engine.

Single owner of candidate preparation (enumerate -> optimize -> lower)
and evaluation (cost model or simulated execution, optionally
memoized).  Both autotuners, the operator runners and the runtime
library route through this package; see DESIGN.md Sec. 2 ("Evaluation
engine").

The branch-and-bound layer (:mod:`~repro.engine.bounds` +
:mod:`~repro.engine.search`) sits between the two halves: strategies
are given an admissible pre-IR cost bound and only the ones that could
still beat the incumbent are lowered and scored; the rest are pruned
without ever existing as IR.

Evaluation is supervised (:mod:`~repro.engine.parallel`): failing
candidates are retried and then quarantined as
:class:`FailedEvaluation` records instead of aborting the sweep.  An
interrupted sweep resumes by running again over the same persistent
eval store (:mod:`~repro.engine.evalcache`), which answers every score
banked before the interrupt.  See DESIGN.md "Failure model & recovery".
"""

from .bounds import (
    BOUND_SAFETY,
    StrategyBound,
    definitely_infeasible,
    space_bounds,
    strategy_bound,
)
from .evalcache import PersistentEvalStore
from .evaluators import (
    AnalyticEvaluator,
    Evaluation,
    Evaluator,
    FailedEvaluation,
    MemoizingEvaluator,
    SimulatorEvaluator,
    clear_feeds_cache,
    clear_shared_memo,
    compute_signature,
    strategy_key,
    synthetic_feeds,
)
from .metrics import EngineEvent, EngineMetrics, PruneBatch, StageStats
from .parallel import evaluate_batch
from .pipeline import CandidatePipeline, clip_strategy, compile_strategy
from .search import search_candidates
from .validate import (
    VALIDATE_MODES,
    ValidatingEvaluator,
    ValidationReport,
    compare_tensors,
    reference_outputs,
    resolve_validate,
    tolerance_for,
    validate_candidate,
    validate_kernel,
    validation_digest,
)

__all__ = [
    "AnalyticEvaluator",
    "BOUND_SAFETY",
    "CandidatePipeline",
    "EngineEvent",
    "EngineMetrics",
    "Evaluation",
    "Evaluator",
    "FailedEvaluation",
    "MemoizingEvaluator",
    "PersistentEvalStore",
    "PruneBatch",
    "SimulatorEvaluator",
    "StageStats",
    "StrategyBound",
    "VALIDATE_MODES",
    "ValidatingEvaluator",
    "ValidationReport",
    "compare_tensors",
    "clear_feeds_cache",
    "clear_shared_memo",
    "clip_strategy",
    "compile_strategy",
    "compute_signature",
    "definitely_infeasible",
    "evaluate_batch",
    "reference_outputs",
    "resolve_validate",
    "search_candidates",
    "space_bounds",
    "strategy_key",
    "strategy_bound",
    "synthetic_feeds",
    "tolerance_for",
    "validate_candidate",
    "validate_kernel",
    "validation_digest",
]
