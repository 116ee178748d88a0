"""Scheduler: schedule-space traversal and strategy lowering (Sec. 4.3)."""

from .enumerate import Candidate, EnumerationStats
from .lower import (
    LoweringOptions,
    axis_of_dim,
    lower_strategy,
    reference_lower_strategy,
)
from .transforms import (
    SplitResult,
    fuse_extents,
    fuse_shared_input_gemms,
    perfect_nest_depth,
    reorder_axes,
    split_extent,
)

__all__ = [
    "Candidate",
    "EnumerationStats",
    "LoweringOptions",
    "lower_strategy",
    "reference_lower_strategy",
    "axis_of_dim",
    "SplitResult",
    "split_extent",
    "reorder_axes",
    "fuse_extents",
    "fuse_shared_input_gemms",
    "perfect_nest_depth",
]
