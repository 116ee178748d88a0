"""DMA arithmetic of one core group: Eq. (1) of Sec. 4.6.

CPEs move data between main memory and their SPM through asynchronous
DMA in either *continuous* or *strided* mode (Sec. 4.1).  A CG-level
tile transfer is a run of contiguous blocks of ``block_bytes`` each,
starting ``block_bytes + stride_bytes`` apart; DMA inference
(Sec. 4.5.1) serves each block by the cluster's 8 columns, CPE
``(rid, cid)`` transferring its 1/8 column slice as its own descriptor
block -- the paper's column-tile example has ``block = M/8`` elements
and ``stride = 7M/8``.

Memory is read in 128-byte DRAM transactions and a touched transaction
is paid in full, so every per-CPE slice is rounded out to whole
transactions: a badly aligned or finely strided access pays real
*waste* bytes.  Both scores use this one arithmetic: the cost model
charges it with the first block transaction-aligned
(:func:`paid_bytes`), the simulator at the real start address of every
block (:func:`paid_bytes_at`); the difference is one source of the
model-vs-reality gap measured in Fig. 9.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

import numpy as np

from .config import MachineConfig
from .spm import partition_extent

if TYPE_CHECKING:
    from ..ir.nodes import DmaGeometry

#: transfer directions
MEM_TO_SPM = "mem_to_spm"
SPM_TO_MEM = "spm_to_mem"


def _column_slices(
    geo: DmaGeometry, cfg: MachineConfig
) -> List[Tuple[int, int]]:
    """``(offset, length)`` in bytes of the per-CPE slices of one block.

    Each CG-level block is served by the cluster's columns: CPE (rid,
    cid) transfers its 1/8 column slice as its own descriptor block.
    """
    eb = cfg.dtype_bytes
    block_elems = max(1, geo.block_bytes // eb)
    return [
        (c0 * eb, cl * eb)
        for c0, cl in partition_extent(block_elems, cfg.cluster_cols)
        if cl > 0
    ]


def _slice_rounding(
    geo: DmaGeometry, cfg: MachineConfig
) -> Tuple[int, int, Counter]:
    """What the paid bytes of one block depend on: the bytes its
    slices span, the number of interior slice boundaries, and how many
    of those boundaries fall at each offset modulo the transaction.

    The slices are contiguous, so a block pays each transaction it
    spans once, plus once more for every interior boundary that does
    not fall on a transaction boundary (the transaction it cuts is
    fetched by both neighbours).
    """
    txn = cfg.dram_transaction_bytes
    slices = _column_slices(geo, cfg)
    span = sum(length for _, length in slices)
    cuts = Counter(c_off % txn for c_off, _ in slices[1:])
    return span, len(slices) - 1, cuts


def drift_period(geo: DmaGeometry, cfg: MachineConfig) -> int:
    """Blocks after which the start offsets of consecutive blocks,
    modulo the DRAM transaction, repeat: ``lcm(step, txn) / step``."""
    txn = cfg.dram_transaction_bytes
    step = geo.block_bytes + geo.stride_bytes
    g = math.gcd(step % txn if step % txn else txn, txn)
    return txn // g


def paid_bytes_at(
    geo: DmaGeometry, addrs: np.ndarray, cfg: MachineConfig
) -> int:
    """The transaction-rounded bytes of blocks of ``geo`` starting at
    the byte addresses ``addrs`` (any order, any spacing): every
    per-CPE column slice of every block rounded out to whole
    transactions."""
    txn = cfg.dram_transaction_bytes
    span, interior, cuts = _slice_rounding(geo, cfg)
    aligned = np.zeros(txn, dtype=np.int64)
    for offset, count in cuts.items():
        aligned[offset] = count
    addrs = np.asarray(addrs, dtype=np.int64)
    spanned = (addrs + span - 1) // txn - addrs // txn + 1
    return txn * int(np.sum(spanned + interior - aligned[-addrs % txn]))


def paid_bytes(
    geo: DmaGeometry,
    starts: Iterable[int],
    blocks: int,
    cfg: MachineConfig,
) -> List[int]:
    """The transaction-rounded bytes -- Eq. (1)'s traffic including its
    waste term -- of ``blocks`` consecutive blocks of ``geo``, once per
    first-block offset in ``starts`` (bytes past a DRAM transaction
    boundary).

    The closed form of :func:`paid_bytes_at` for evenly spaced blocks:
    block ``i`` starts ``i * (block + stride)`` bytes after the first,
    so a start offset walks a cycle of :func:`drift_period` offsets.
    Each cycle's block costs are computed once, and a run of blocks
    along it is whole cycles plus one prefix-sum difference.  Exact for
    every ``blocks``.
    """
    txn = cfg.dram_transaction_bytes
    step = geo.block_bytes + geo.stride_bytes
    period = drift_period(geo, cfg)
    whole, rest = divmod(blocks, period)
    span, interior, cuts = _slice_rounding(geo, cfg)

    def block_cost(base: int) -> int:
        spanned = (base + span - 1) // txn + 1
        return txn * (spanned + interior - cuts[-base % txn])

    if period == 1:  # every block starts at the same offset
        return [blocks * block_cost(start % txn) for start in starts]
    # cycle anchor -> (position of each offset on the cycle, prefix sums
    # of the block costs along it, walked twice)
    cycles: Dict[int, Tuple[Dict[int, int], List[int]]] = {}
    out = []
    for start in starts:
        start %= txn
        anchor = start % (txn // period)
        cycle = cycles.get(anchor)
        if cycle is None:
            offsets = [(anchor + i * step) % txn for i in range(period)]
            costs = [block_cost(base) for base in offsets]
            cycle = cycles[anchor] = (
                {base: i for i, base in enumerate(offsets)},
                list(itertools.accumulate(costs + costs, initial=0)),
            )
        position, prefix = cycle
        k = position[start]
        out.append(whole * prefix[period] + prefix[k + rest] - prefix[k])
    return out


def transfer_cycles(
    geo: DmaGeometry, paid: int, cfg: MachineConfig
) -> float:
    """Eq. (1) for one CG-level transfer paying ``paid`` bytes: the
    start-up latency, one issue slot per descriptor, and the paid
    traffic at peak bandwidth."""
    return (
        cfg.dma_latency_cycles
        + cfg.dma_issue_cycles * max(1, geo.n_descriptors)
        + paid / cfg.dram_bytes_per_cycle
    )
