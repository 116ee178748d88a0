"""Tests for the byte-addressed main-memory model."""

import numpy as np
import pytest

from repro.errors import MainMemoryError
from repro.machine.config import default_config
from repro.machine.memory import Buffer, MainMemory, transaction_bytes


class TestAllocation:
    def test_alloc_returns_aligned_address(self):
        mem = MainMemory(1 << 20)
        buf = mem.alloc("a", (3, 5))
        assert buf.addr % default_config().mem_align == 0
        assert buf.shape == (3, 5)
        assert buf.nbytes == 3 * 5 * 4

    def test_successive_allocs_do_not_overlap(self):
        mem = MainMemory(1 << 20)
        a = mem.alloc("a", (100,))
        b = mem.alloc("b", (100,))
        assert b.addr >= a.addr + a.nbytes

    def test_custom_alignment(self):
        mem = MainMemory(1 << 20)
        mem.alloc("pad", (3,), align=4)  # push cursor off 128
        b = mem.alloc("b", (4,), align=4)
        assert b.addr % 4 == 0

    def test_duplicate_name_rejected(self):
        mem = MainMemory(1 << 20)
        mem.alloc("a", (4,))
        with pytest.raises(MainMemoryError):
            mem.alloc("a", (4,))

    def test_zero_extent_rejected(self):
        mem = MainMemory(1 << 20)
        with pytest.raises(MainMemoryError):
            mem.alloc("a", (0, 4))

    def test_out_of_capacity(self):
        mem = MainMemory(1024)
        with pytest.raises(MainMemoryError):
            mem.alloc("big", (1024,))  # 4 KiB > 1 KiB

    def test_lookup(self):
        mem = MainMemory(1 << 20)
        buf = mem.alloc("x", (2, 2))
        assert mem.buffer("x") is buf
        assert "x" in mem
        with pytest.raises(MainMemoryError):
            mem.buffer("y")


class TestFunctionalAccess:
    def test_write_read_roundtrip(self):
        mem = MainMemory(1 << 20)
        buf = mem.alloc("a", (4, 6))
        data = np.arange(24, dtype=np.float32).reshape(4, 6)
        mem.write(buf, data)
        np.testing.assert_array_equal(mem.read(buf), data)

    def test_view_is_zero_copy(self):
        mem = MainMemory(1 << 20)
        buf = mem.alloc("a", (8,))
        view = mem.view(buf)
        view[3] = 42.0
        assert mem.read(buf)[3] == 42.0

    def test_shape_mismatch_rejected(self):
        mem = MainMemory(1 << 20)
        buf = mem.alloc("a", (4,))
        with pytest.raises(MainMemoryError):
            mem.write(buf, np.zeros((5,), np.float32))


class TestBufferAddressing:
    def test_strides(self):
        buf = Buffer("a", 0, (2, 3, 5), np.dtype(np.float32))
        assert buf.strides_elems == (15, 5, 1)


class TestTransactionModel:
    def test_aligned_exact(self):
        paid, waste = transaction_bytes(0, 256, 128)
        assert paid == 256 and waste == 0

    def test_unaligned_start(self):
        paid, waste = transaction_bytes(64, 128, 128)
        assert paid == 256 and waste == 128

    def test_tiny_access_pays_full_transaction(self):
        paid, waste = transaction_bytes(4, 1, 128)
        assert paid == 128 and waste == 127

    def test_zero_size(self):
        assert transaction_bytes(4, 0, 128) == (0, 0)

    def test_waste_never_negative_and_bounded(self):
        for addr in range(0, 300, 7):
            for n in range(1, 300, 11):
                paid, waste = transaction_bytes(addr, n, 128)
                assert paid >= n
                assert 0 <= waste < 2 * 128
