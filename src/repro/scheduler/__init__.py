"""Scheduler: schedule-space traversal and strategy lowering (Sec. 4.3)."""

from .enumerate import Candidate, EnumerationStats
from .lower import LoweringOptions, axis_of_dim, legal, lower_strategy

__all__ = [
    "Candidate",
    "EnumerationStats",
    "LoweringOptions",
    "legal",
    "lower_strategy",
    "axis_of_dim",
]
