"""Tabular rendering of experiment results.

Every experiment driver returns rows of plain dataclasses; this module
turns them into aligned text tables with the paper's expected value
printed beside the measured one, so a bench run reads as a direct
paper-vs-reproduction comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..engine.metrics import EngineMetrics


@dataclass
class Table:
    """A rendered experiment table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(c)), *(len(r[i]) for r in cells)) if cells else len(str(c))
            for i, c in enumerate(self.columns)
        ]
        sep = "-+-".join("-" * w for w in widths)
        out = [self.title, "=" * len(self.title)]
        out.append(" | ".join(str(c).ljust(w) for c, w in zip(self.columns, widths)))
        out.append(sep)
        for row in cells:
            out.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            out.append(f"  * {note}")
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def stage_note(
    metrics: Optional[EngineMetrics], label: str = "engine"
) -> Optional[str]:
    """One table-note line of per-stage engine accounting: counts and
    wall time for enumeration, bounds, lowering, optimization,
    prediction and execution, plus the branch-and-bound prune counters
    (``pruned B/C (+S spm)``) and memo hits when non-zero (the
    where-does-tuning-time-go breakdown behind Tab. 3)."""
    if metrics is None:
        return None
    return f"{label}: {metrics.describe()}"


def resilience_note(
    metrics: Optional[EngineMetrics], label: str = "resilience"
) -> Optional[str]:
    """One table-note line of the supervised-evaluation audit trail:
    retries, quarantines and the per-kind event counts.  ``None`` when
    the run saw no resilience events at all, so fault-free tables stay
    byte-identical."""
    if metrics is None:
        return None
    if not (
        metrics.retries
        or metrics.quarantined
        or metrics.events
        or metrics.events_dropped
    ):
        return None
    return f"{label}: {metrics.describe_events()}"


def sanitizer_note(
    metrics: Optional[EngineMetrics], label: str = "safety"
) -> Optional[str]:
    """One table-note line of the execution-safety audit: differential
    validations performed (and how many failed) plus sanitizer events.
    ``None`` when the run neither validated nor sanitized anything, so
    tables from an unchecked run stay byte-identical."""
    if metrics is None:
        return None
    counts = metrics.event_counts()
    flagged = counts.get("sanitizer", 0) + counts.get("validation", 0)
    if not (metrics.validation.count or metrics.validation_failures or flagged):
        return None
    parts = [f"validated {metrics.validation.count}"]
    if metrics.validation_failures:
        parts.append(f"{metrics.validation_failures} failed")
    if counts.get("sanitizer"):
        parts.append(f"{counts['sanitizer']} sanitizer event(s)")
    return f"{label}: " + ", ".join(parts)


def speedup_summary(speedups: Iterable[float]) -> Dict[str, float]:
    """The Tab. 1/2 style aggregate: counts and average gains/losses."""
    ups = list(speedups)
    faster = [s for s in ups if s > 1.0]
    slower = [s for s in ups if s < 1.0]
    return {
        "cases": len(ups),
        "faster": len(faster),
        "slower": len(slower),
        "avg_gain": (sum(faster) / len(faster) - 1.0) if faster else 0.0,
        "avg_loss": (1.0 - sum(slower) / len(slower)) if slower else 0.0,
        "best": max(ups) if ups else 0.0,
        "geomean": _geomean(ups),
    }


def _geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    acc = 1.0
    for v in values:
        acc *= v
    return acc ** (1.0 / len(values))
