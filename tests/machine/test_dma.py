"""Tests for the shared DMA arithmetic: the per-CPE column slices DMA
inference derives from a CG-level tile access (Sec. 4.5.1), and Eq. (1)
charged on the transaction-rounded traffic of those slices at their
real addresses."""

import numpy as np
import pytest

from repro.errors import IrError
from repro.ir.expr import AffineExpr
from repro.ir.nodes import DmaGeometry, TileAccess
from repro.machine.config import default_config
from repro.machine.dma import paid_bytes, paid_bytes_at, transfer_cycles
from repro.machine.spm import partition_extent
from repro.optimizer.dma_inference import flatten_access, geometry_of

CFG = default_config()
EB = CFG.dtype_bytes


def evenly_spaced(n_blocks, block, stride, start=0, descs=1):
    """Geometry, paid bytes and Eq. (1) cycles of ``n_blocks`` blocks
    of ``block`` bytes, ``stride`` bytes apart, from byte ``start``."""
    geo = DmaGeometry(n_blocks, block, stride, descs)
    addrs = start + np.arange(n_blocks) * (block + stride)
    paid = paid_bytes_at(geo, addrs, CFG)
    return geo, paid, transfer_cycles(geo, paid, CFG)


def access(lengths, offsets=None):
    offsets = offsets or (0,) * len(lengths)
    return TileAccess(
        "T", tuple((AffineExpr(o), n) for o, n in zip(offsets, lengths))
    )


def cpe_slices(shape, lengths, offsets):
    """Element addresses of every per-CPE column slice of a tile
    access: the chunk start of each block plus its 1/8 column share."""
    flat = flatten_access(lengths, shape)
    base = int(np.ravel_multi_index(offsets, shape))
    return [
        (cid, base + int(start) + c0, cl)
        for start in flat.chunk_offsets()
        for cid, (c0, cl) in enumerate(
            partition_extent(flat.chunk_elems, CFG.cluster_cols)
        )
        if cl
    ]


class TestTiming:
    def test_empty_batch_is_free(self):
        """No blocks, no traffic, in either form of the arithmetic."""
        geo = DmaGeometry(0, 512, 64, 1)
        assert paid_bytes_at(geo, [], CFG) == 0
        assert paid_bytes(geo, [0, 36, 64], 0, CFG) == [0, 0, 0]

    def test_latency_plus_bandwidth(self):
        """An aligned contiguous transfer whose slices are whole
        transactions pays exactly its payload."""
        _, paid, cycles = evenly_spaced(1, 128 * 64, 0)
        assert paid == 128 * 64
        assert cycles == pytest.approx(
            CFG.dma_latency_cycles
            + CFG.dma_issue_cycles
            + paid / CFG.dram_bytes_per_cycle
        )

    def test_unaligned_access_pays_waste(self):
        _, aligned, aligned_cycles = evenly_spaced(1, 4096, 0, start=0)
        _, shifted, shifted_cycles = evenly_spaced(1, 4096, 0, start=64)
        assert aligned == 4096
        assert shifted > aligned
        assert shifted_cycles > aligned_cycles

    def test_fine_strides_waste_heavily(self):
        """8-byte blocks are two 4-byte CPE slices inside one 128 B
        transaction, which both CPEs fetch: 32x the payload."""
        _, paid, _ = evenly_spaced(128, 8, 504)
        assert paid == 128 * 2 * 128

    def test_batch_shares_startup_latency(self):
        """A CG-level transfer pays one start-up latency however many
        descriptors it issues, plus one issue slot per descriptor."""
        _, _, single = evenly_spaced(64, 4096, 4096, descs=1)
        _, _, batch = evenly_spaced(64, 4096, 4096, descs=64)
        assert batch - single == pytest.approx(63 * CFG.dma_issue_cycles)
        assert batch < 2 * single

    def test_achieved_bandwidth_below_peak(self):
        """The latency term keeps achieved bandwidth below peak; a
        64-row tile load of 1 KiB rows lands in the ~2/3-of-peak regime
        the paper's 22.6-vs-34 GB/s numbers reflect."""
        _, paid, cycles = evenly_spaced(64, 1024, 1024)
        assert paid == 64 * 1024
        achieved = paid / CFG.cycles_to_seconds(cycles)
        assert 0.4 * CFG.dram_peak_bw < achieved < CFG.dram_peak_bw


class TestCgTileExpansion:
    def test_full_coverage_partition(self):
        """The per-CPE slices of every block exactly tile the CG
        access: disjoint and complete (the Sec. 4.5.1 offset
        arithmetic), for single- and multi-level strided tiles."""
        cases = [
            ((64, 256), (32, 64), (8, 16)),
            ((6, 10, 12), (3, 4, 12), (2, 5, 0)),
            ((5, 7, 9, 11), (2, 3, 4, 5), (1, 2, 3, 4)),
        ]
        for shape, lengths, offsets in cases:
            touched = []
            for _, addr, length in cpe_slices(shape, lengths, offsets):
                touched.extend(range(addr, addr + length))
            index = np.arange(int(np.prod(shape))).reshape(shape)
            region = tuple(slice(o, o + n) for o, n in zip(offsets, lengths))
            assert len(touched) == len(set(touched)), "overlapping slices"
            assert sorted(touched) == sorted(index[region].ravel().tolist())

    def test_paper_example_geometry(self):
        """Sec. 4.5.1: each column of a column-major A tile of M rows
        is split over the 8 cluster columns, so a CPE moves blocks of
        M/8 elements from ``g*(N/8)*ld + s*M/8``, where ``s`` is its
        slice of a column, ``g`` its group of N/8 columns and ``ld``
        the leading dimension; consecutive blocks of one CPE lie
        ``ld - M/8`` apart (the paper's ``7M/8`` at ``ld = M``).  Our
        row-major storage of shape (N, ld) holds A transposed."""
        M, N, ld = 64, 128, 256
        geo = geometry_of(access((N, M)), (N, ld), CFG)
        assert geo.block_bytes == M * EB
        assert geo.stride_bytes == (ld - M) * EB
        slices = cpe_slices((N, ld), (N, M), (0, 0))
        assert {length for _, _, length in slices} == {M // 8}
        groups = partition_extent(N, CFG.cluster_rows)
        for s, g in ((3, 5), (0, 0), (7, 7)):
            mine = [addr for cid, addr, _ in slices if cid == s]
            assert mine[groups[g][0]] == g * (N // 8) * ld + s * (M // 8)
            gaps = {b - a - M // 8 for a, b in zip(mine, mine[1:])}
            assert gaps == {ld - M // 8}

    def test_small_extents_skip_empty_cpes(self):
        """A 4-element block keeps only 4 of the 8 cluster columns
        busy: each of those 4 CPEs fetches the transaction its slice
        sits in, and no empty slice pays."""
        geo = geometry_of(access((4, 4)), (4, 32), CFG)
        slices = cpe_slices((4, 32), (4, 4), (0, 0))
        assert len(slices) == 16
        paid = paid_bytes_at(geo, np.arange(4) * 32 * EB, CFG)
        assert paid == 4 * (1 + 3) * CFG.dram_transaction_bytes

    def test_block_wider_than_stride_rejected(self):
        with pytest.raises(IrError):
            geometry_of(access((8, 64)), (8, 32), CFG)
