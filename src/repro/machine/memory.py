"""Byte-addressed main memory of one core group.

The SW26010 is cache-free on the CPE side: every main-memory access goes
through the DMA engine (or the slow gld/gst path) in units of 128-byte
DRAM *transactions*.  To model transaction waste faithfully the memory
model is address-accurate: tensors are allocated at real byte offsets in
one flat ``numpy`` byte array, and DMA transfers are costed at those
offsets.  Functional reads/writes are plain NumPy views -- no copies
beyond what the simulated DMA itself performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import MainMemoryError
from .config import MachineConfig, default_config


@dataclass(frozen=True)
class Buffer:
    """A main-memory allocation: a named, typed, shaped window.

    ``addr`` is the byte address of element ``[0, 0, ...]``; the layout
    is row-major over ``shape`` (layout *transformations* are expressed
    by allocating a differently-shaped buffer and storing transposed
    data, exactly like real code does).
    """

    name: str
    addr: int
    shape: Tuple[int, ...]
    dtype: np.dtype

    @property
    def itemsize(self) -> int:
        return int(np.dtype(self.dtype).itemsize)

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.itemsize

    @property
    def strides_elems(self) -> Tuple[int, ...]:
        """Row-major strides in *elements*."""
        strides = []
        acc = 1
        for extent in reversed(self.shape):
            strides.append(acc)
            acc *= extent
        return tuple(reversed(strides))


class MainMemory:
    """Flat byte-addressed memory with a bump allocator.

    Allocations are aligned to ``config.mem_align`` (128 B) by default,
    matching how xMath/swDNN allocate tensors; tests also exercise
    deliberately *misaligned* allocations because transaction waste at
    unaligned boundaries is part of the DMA cost model.
    """

    def __init__(
        self,
        capacity_bytes: int = 1 << 30,
        config: Optional[MachineConfig] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise MainMemoryError("memory capacity must be positive")
        self.config = config or default_config()
        self.capacity = int(capacity_bytes)
        self._storage = np.zeros(self.capacity, dtype=np.uint8)
        self._next = 0
        self._buffers: Dict[str, Buffer] = {}

    # --- allocation ----------------------------------------------------
    def alloc(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype=np.float32,
        *,
        align: Optional[int] = None,
    ) -> Buffer:
        """Allocate a row-major tensor and return its :class:`Buffer`."""
        if name in self._buffers:
            raise MainMemoryError(f"buffer {name!r} already allocated")
        if any(int(s) <= 0 for s in shape):
            raise MainMemoryError(f"non-positive extent in shape {shape}")
        alignment = self.config.mem_align if align is None else int(align)
        if alignment <= 0:
            raise MainMemoryError("alignment must be positive")
        addr = -(-self._next // alignment) * alignment
        buf = Buffer(name, addr, tuple(int(s) for s in shape), np.dtype(dtype))
        if addr + buf.nbytes > self.capacity:
            raise MainMemoryError(
                f"out of simulated memory allocating {name!r} "
                f"({buf.nbytes} B at {addr}, capacity {self.capacity} B)"
            )
        self._next = addr + buf.nbytes
        self._buffers[name] = buf
        return buf

    def buffer(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise MainMemoryError(f"unknown buffer {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    # --- functional access ----------------------------------------------
    def view(self, buf: Buffer) -> np.ndarray:
        """Writable NumPy view of the whole buffer (no copy)."""
        raw = self._storage[buf.addr : buf.addr + buf.nbytes]
        return raw.view(buf.dtype).reshape(buf.shape)

    def write(self, buf: Buffer, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=buf.dtype)
        if tuple(data.shape) != buf.shape:
            raise MainMemoryError(
                f"shape mismatch writing {buf.name!r}: "
                f"{data.shape} != {buf.shape}"
            )
        self.view(buf)[...] = data

    def read(self, buf: Buffer) -> np.ndarray:
        """Copy of the buffer contents (callers must not alias storage)."""
        return self.view(buf).copy()


def transaction_bytes(addr: int, nbytes: int, txn: int) -> Tuple[int, int]:
    """DRAM traffic actually paid for a contiguous access.

    Returns ``(paid_bytes, waste_bytes)``: the access is rounded out to
    whole ``txn``-byte transactions; the difference is the boundary
    waste the swATOP cost model (Eq. 1) accounts for.
    """
    if nbytes <= 0:
        return 0, 0
    if txn <= 0:
        raise MainMemoryError("transaction size must be positive")
    first = (addr // txn) * txn
    last = -(-(addr + nbytes) // txn) * txn
    paid = last - first
    return paid, paid - nbytes
