"""Per-stage instrumentation of the evaluation engine.

Tab. 3's headline (model-based tuning beats black-box by 350-450x) is
entirely a statement about where candidate-evaluation time goes, so the
engine accounts for every stage it owns: enumeration (strategy walk +
lowering, including pruned strategies), optimization (DMA inference +
prefetch), prediction (cost-model evaluation) and execution (simulated
runs).  A single :class:`EngineMetrics` instance is threaded through a
tuning run and surfaces in :class:`~repro.autotuner.result.TuningResult`
and the harness tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass
class StageStats:
    """Invocation count and wall time of one engine stage."""

    count: int = 0
    seconds: float = 0.0

    def add(self, seconds: float, count: int = 1) -> None:
        self.count += count
        self.seconds += seconds

    def merge(self, other: "StageStats") -> None:
        self.count += other.count
        self.seconds += other.seconds

    def describe(self) -> str:
        return f"{self.count} ({self.seconds:.3f}s)"


@dataclass
class PruneBatch:
    """Outcome of one branch-and-bound batch (a progress trace of the
    search: early batches lower everything, late batches almost
    nothing)."""

    considered: int
    pruned: int
    lowered: int


@dataclass
class EngineEvent:
    """One explicit resilience event (retry, quarantine, failed
    validation) -- the audit trail that replaces silent fallback."""

    kind: str
    detail: str


#: events kept per EngineMetrics instance; chaos runs can emit many
#: thousands, and the trace only needs to show the shape of a run.
MAX_EVENTS = 256


@dataclass
class EngineMetrics:
    """Stage-by-stage accounting of one (or several merged) tuning runs.

    ``enumeration.count`` counts *declared* strategies (legal + pruned)
    and its time is the pure space walk (under branch-and-bound: building
    the strategies the search takes); ``bounds`` is the whole-space
    lower-bound computation of the branch-and-bound search, counted once
    per declared strategy; ``lowering``
    is the pass pipeline that turns each strategy into raw IR
    (previously folded into enumeration, mis-charging replay compiles);
    ``optimization``/``prediction``/``execution`` count candidates that
    actually went through the respective stage.  ``memo_hits`` counts
    evaluations answered from the shared memo instead of a stage;
    ``ukernel_memo_hits`` counts micro-kernel cycle lookups answered
    from the micro-kernel table.  ``bound_pruned`` counts strategies
    skipped because their bound exceeded the incumbent, ``spm_pruned``
    those skipped by the SPM-infeasibility prefilter (a subset of
    ``EnumerationStats.pruned``).  ``passes`` breaks lowering +
    optimization down per named IR pass.

    The resilience counters account for the supervised evaluation
    path: ``retries`` counts re-evaluated candidates, and
    ``quarantined`` counts candidates that exhausted their retries and
    were reported as
    :class:`~repro.engine.evaluators.FailedEvaluation` instead of
    aborting the sweep.  ``events`` is the explicit audit trail of
    every such decision (capped at :data:`MAX_EVENTS`;
    ``events_dropped`` counts the overflow).
    """

    enumeration: StageStats = field(default_factory=StageStats)
    bounds: StageStats = field(default_factory=StageStats)
    lowering: StageStats = field(default_factory=StageStats)
    optimization: StageStats = field(default_factory=StageStats)
    prediction: StageStats = field(default_factory=StageStats)
    execution: StageStats = field(default_factory=StageStats)
    validation: StageStats = field(default_factory=StageStats)
    validation_failures: int = 0
    memo_hits: int = 0
    ukernel_memo_hits: int = 0
    bound_pruned: int = 0
    spm_pruned: int = 0
    retries: int = 0
    quarantined: int = 0
    events_dropped: int = 0
    prune_batches: List[PruneBatch] = field(default_factory=list)
    events: List[EngineEvent] = field(default_factory=list)
    passes: Dict[str, StageStats] = field(default_factory=dict)

    def stage_for(self, kind: str) -> StageStats:
        """The stage an evaluator of the given kind reports into."""
        return self.prediction if kind == "analytic" else self.execution

    def record_pass(self, name: str, seconds: float) -> None:
        """Credit one execution of a named IR pass."""
        self.passes.setdefault(name, StageStats()).add(seconds)

    def record_prune_batch(
        self, considered: int, pruned: int, lowered: int
    ) -> None:
        """Log one batch of the branch-and-bound search."""
        self.prune_batches.append(PruneBatch(considered, pruned, lowered))

    def record_event(self, kind: str, detail: str) -> None:
        """Append one resilience event to the audit trail."""
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        self.events.append(EngineEvent(kind, detail))

    def event_counts(self) -> Dict[str, int]:
        """Events aggregated by kind (for table notes and artifacts)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def merge(self, other: "EngineMetrics") -> None:
        self.enumeration.merge(other.enumeration)
        self.bounds.merge(other.bounds)
        self.lowering.merge(other.lowering)
        self.optimization.merge(other.optimization)
        self.prediction.merge(other.prediction)
        self.execution.merge(other.execution)
        self.validation.merge(other.validation)
        self.validation_failures += other.validation_failures
        self.memo_hits += other.memo_hits
        self.ukernel_memo_hits += other.ukernel_memo_hits
        self.bound_pruned += other.bound_pruned
        self.spm_pruned += other.spm_pruned
        self.retries += other.retries
        self.quarantined += other.quarantined
        self.prune_batches.extend(other.prune_batches)
        keep = MAX_EVENTS - len(self.events)
        self.events.extend(other.events[:keep])
        self.events_dropped += (
            other.events_dropped + max(0, len(other.events) - keep)
        )
        for name, stats in other.passes.items():
            self.passes.setdefault(name, StageStats()).merge(stats)

    @classmethod
    def merged(cls, many: Iterable["EngineMetrics"]) -> "EngineMetrics":
        out = cls()
        for m in many:
            out.merge(m)
        return out

    def describe(self) -> str:
        parts = [f"enum {self.enumeration.describe()}"]
        if self.bounds.count:
            parts.append(f"bounds {self.bounds.describe()}")
        parts += [
            f"lower {self.lowering.describe()}",
            f"opt {self.optimization.describe()}",
            f"predict {self.prediction.describe()}",
            f"execute {self.execution.describe()}",
        ]
        if self.validation.count or self.validation_failures:
            note = f"validate {self.validation.describe()}"
            if self.validation_failures:
                note += f" ({self.validation_failures} failed)"
            parts.append(note)
        if self.bound_pruned or self.spm_pruned:
            considered = sum(b.considered for b in self.prune_batches)
            note = f"pruned {self.bound_pruned}/{considered}"
            if self.spm_pruned:
                note += f" (+{self.spm_pruned} spm)"
            if self.prune_batches:
                note += f" in {len(self.prune_batches)} batches"
            parts.append(note)
        if self.memo_hits:
            parts.append(f"memo {self.memo_hits}")
        if self.ukernel_memo_hits:
            parts.append(f"ukernel-memo {self.ukernel_memo_hits}")
        if self.retries:
            parts.append(f"retries {self.retries}")
        if self.quarantined:
            parts.append(f"quarantined {self.quarantined}")
        return " | ".join(parts)

    def describe_events(self) -> str:
        """The resilience audit trail, aggregated by kind."""
        counts = self.event_counts()
        if not counts:
            return "(no resilience events)"
        text = " | ".join(
            f"{kind} {count}" for kind, count in sorted(counts.items())
        )
        if self.events_dropped:
            text += f" | (+{self.events_dropped} dropped)"
        return text

    def describe_passes(self) -> str:
        """Per-pass breakdown of the lowering/optimization pipelines."""
        if not self.passes:
            return "(no passes recorded)"
        return " | ".join(
            f"{name} {stats.describe()}"
            for name, stats in self.passes.items()
        )
