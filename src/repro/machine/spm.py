"""Scratch-pad memory (SPM) planning.

Each CPE owns 64 KB of software-managed SPM.  Real SW26010 kernels plan
their scratch-pad statically: every buffer gets a fixed offset and the
kernel is rejected at build time if the plan overflows.  swATOP's code
generator does the same ("allocates all buffers into a single coalesced
region", Sec. 4.7) and its scheduler uses the plan to prune candidates
whose tiles do not fit.

The plan is per-CPE: a buffer that holds one 8x8-distributed tile of
size ``total`` costs ``total/64`` bytes on each CPE.  Double-buffered
buffers (software prefetching, Sec. 4.5.2) cost twice their size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import SpmCapacityError
from .config import MachineConfig, default_config


@dataclass(frozen=True)
class SpmBuffer:
    """One planned scratch-pad buffer.

    ``bytes_per_cpe`` is the footprint of a *single* copy on one CPE;
    ``double_buffered`` doubles the reserved space.
    """

    name: str
    bytes_per_cpe: int
    double_buffered: bool = False
    offset: int = -1  # assigned by the planner

    @property
    def reserved_bytes(self) -> int:
        return self.bytes_per_cpe * (2 if self.double_buffered else 1)


@dataclass
class SpmPlan:
    """A complete static SPM layout for one kernel."""

    buffers: Dict[str, SpmBuffer] = field(default_factory=dict)
    total_bytes: int = 0
    capacity: int = 64 * 1024

    def buffer_at(self, byte_offset: int) -> Optional[str]:
        """Name of the buffer whose reserved region contains
        ``byte_offset``, or ``None`` for a gap / past-the-end offset.
        The sanitizer uses this to name the victim of an SPM overflow."""
        for name, buf in self.buffers.items():
            if buf.offset <= byte_offset < buf.offset + buf.reserved_bytes:
                return name
        return None

    def __contains__(self, name: str) -> bool:
        return name in self.buffers

    @property
    def utilization(self) -> float:
        return self.total_bytes / self.capacity if self.capacity else 0.0


class SpmAllocator:
    """Static first-fit (bump) planner for the per-CPE scratch pad.

    Buffers are aligned to the vector width so vector loads never
    straddle; exceeding the 64 KB capacity raises
    :class:`SpmCapacityError`, which the scheduler treats as "candidate
    invalid" rather than as a failure.
    """

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or default_config()

    def plan(self, buffers: Iterable[SpmBuffer]) -> SpmPlan:
        cfg = self.config
        align = cfg.vector_bytes
        offset = 0
        planned: Dict[str, SpmBuffer] = {}
        for buf in buffers:
            if buf.name in planned:
                raise SpmCapacityError(f"duplicate SPM buffer {buf.name!r}")
            if buf.bytes_per_cpe <= 0:
                raise SpmCapacityError(
                    f"SPM buffer {buf.name!r} has non-positive size"
                )
            offset = -(-offset // align) * align
            planned[buf.name] = SpmBuffer(
                name=buf.name,
                bytes_per_cpe=buf.bytes_per_cpe,
                double_buffered=buf.double_buffered,
                offset=offset,
            )
            offset += planned[buf.name].reserved_bytes
        if offset > cfg.spm_bytes:
            raise SpmCapacityError(
                f"SPM plan needs {offset} B/CPE but only "
                f"{cfg.spm_bytes} B available "
                f"(buffers: {', '.join(planned)})"
            )
        return SpmPlan(buffers=planned, total_bytes=offset, capacity=cfg.spm_bytes)

    def fits(self, buffers: Iterable[SpmBuffer]) -> bool:
        """True when the buffers can be planned without overflow."""
        try:
            self.plan(buffers)
            return True
        except SpmCapacityError:
            return False


def tile_bytes_per_cpe(
    tile_elems: int,
    config: Optional[MachineConfig] = None,
    *,
    distributed: bool = True,
) -> int:
    """SPM cost of a tile of ``tile_elems`` elements.

    ``distributed=True`` models the swATOP convention that GEMM operand
    tiles are split 8x8 across the cluster (each CPE holds 1/64); a
    replicated buffer (e.g. a small transform matrix) costs its full
    size on every CPE.  The per-CPE share is rounded *up* -- boundary
    CPEs hold the padded remainder.
    """
    cfg = config or default_config()
    nbytes = tile_elems * cfg.dtype_bytes
    if distributed:
        return -(-nbytes // cfg.cpes_per_cg)
    return nbytes


def partition_extent(extent: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``extent`` into ``parts`` contiguous (start, length) chunks,
    distributing the remainder over the leading chunks (the standard
    8-way row/column partition of cluster GEMM).  Trailing chunks may be
    empty when ``extent < parts``."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, rem = divmod(extent, parts)
    chunks: List[Tuple[int, int]] = []
    start = 0
    for p in range(parts):
        length = base + (1 if p < rem else 0)
        chunks.append((start, length))
        start += length
    return chunks
