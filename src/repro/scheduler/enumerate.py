"""Schedule-space candidates: the Scheduler of Fig. 3.

A :class:`Candidate` is one legal strategy of a
:class:`~repro.dsl.schedule.ScheduleSpace` with its kernel IR.  The
space is walked by :class:`~repro.engine.pipeline.CandidatePipeline`:
illegal strategies (bad loop order, SPM overflow, no legal primitive)
are pruned silently -- they are part of the declared space but not of
the *valid* schedule space the autotuner ranks -- and counted in its
:class:`EnumerationStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dsl.compute import ComputeDef
from ..dsl.schedule import ScheduleStrategy
from ..ir.nodes import KernelNode


@dataclass
class Candidate:
    """One legal schedule strategy with its raw (unoptimized) kernel IR."""

    strategy: ScheduleStrategy
    kernel: KernelNode
    compute: ComputeDef

    def describe(self) -> str:
        return self.strategy.describe()


@dataclass
class EnumerationStats:
    """Bookkeeping the tuning-time experiments report (Tab. 3)."""

    declared: int = 0
    legal: int = 0
    pruned: int = 0
