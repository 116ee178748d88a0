"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.expr import AffineExpr
from repro.machine.memory import transaction_bytes
from repro.machine.spm import partition_extent
from repro.optimizer.boundary import pad_tensor, pad_up, unpad_tensor
from repro.optimizer.dma_inference import flatten_access

from ..scheduler.test_transforms import m_leaves

small_ints = st.integers(min_value=1, max_value=512)


class TestPartitionProperties:
    @given(extent=st.integers(1, 4096), parts=st.integers(1, 64))
    def test_partition_is_exact_cover(self, extent, parts):
        chunks = partition_extent(extent, parts)
        assert len(chunks) == parts
        pos = 0
        for start, length in chunks:
            assert start == pos
            assert length >= 0
            pos += length
        assert pos == extent

    @given(extent=st.integers(1, 4096), parts=st.integers(1, 64))
    def test_partition_is_balanced(self, extent, parts):
        lengths = [l for _, l in partition_extent(extent, parts)]
        assert max(lengths) - min(lengths) <= 1


class TestSplitProperties:
    """The lowering splits an axis into full tiles plus one tail."""

    @given(extent=small_ints, factor=small_ints)
    def test_split_conserves_iterations(self, extent, factor):
        factor = min(factor, extent)
        lengths, _ = m_leaves(extent, factor)
        assert lengths == sorted({factor, extent % factor} - {0})

    @given(outer=st.integers(1, 64), inner=st.integers(1, 64))
    def test_fuse_then_split_roundtrip(self, outer, inner):
        assert m_leaves(outer * inner, inner)[0] == [inner]


class TestTransactionProperties:
    @given(addr=st.integers(0, 1 << 20), nbytes=st.integers(0, 1 << 16))
    def test_paid_covers_payload(self, addr, nbytes):
        paid, waste = transaction_bytes(addr, nbytes, 128)
        assert paid >= nbytes
        assert waste == paid - nbytes
        assert paid % 128 == 0

    @given(addr=st.integers(0, 1 << 20), nbytes=st.integers(1, 1 << 16))
    def test_aligned_access_is_optimal(self, addr, nbytes):
        aligned_addr = (addr // 128) * 128
        aligned_bytes = -(-nbytes // 128) * 128
        paid, _ = transaction_bytes(aligned_addr, aligned_bytes, 128)
        assert paid == aligned_bytes


class TestAffineProperties:
    @given(
        c1=st.integers(-100, 100),
        c2=st.integers(-100, 100),
        x=st.integers(-50, 50),
        y=st.integers(-50, 50),
    )
    def test_addition_homomorphism(self, c1, c2, x, y):
        e1 = AffineExpr.var("i") * c1 + 3
        e2 = AffineExpr.var("j") * c2 - 7
        env = {"i": x, "j": y}
        assert (e1 + e2).evaluate(env) == e1.evaluate(env) + e2.evaluate(env)

    @given(scale=st.integers(-20, 20), x=st.integers(-50, 50))
    def test_scaling_homomorphism(self, scale, x):
        e = AffineExpr.var("i") + 5
        assert (e * scale).evaluate({"i": x}) == scale * e.evaluate({"i": x})

    @given(x=st.integers(0, 100), sub=st.integers(0, 100))
    def test_substitution_equals_evaluation(self, x, sub):
        e = AffineExpr.var("i") * 3 + AffineExpr.var("j")
        partial = e.substitute({"i": sub})
        assert partial.evaluate({"j": x}) == e.evaluate({"i": sub, "j": x})


class TestFlattenProperties:
    @given(
        shape=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_flatten_conserves_elements(self, shape, data):
        lengths = tuple(
            data.draw(st.integers(1, s), label=f"len{i}")
            for i, s in enumerate(shape)
        )
        flat = flatten_access(lengths, tuple(shape))
        assert flat.elems == int(np.prod(lengths))

    @given(
        shape=st.lists(st.integers(1, 10), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_chunk_offsets_are_disjoint(self, shape, data):
        lengths = tuple(
            data.draw(st.integers(1, s), label=f"len{i}")
            for i, s in enumerate(shape)
        )
        flat = flatten_access(lengths, tuple(shape))
        offs = flat.chunk_offsets()
        assert len(set(offs.tolist())) == len(offs)
        # chunks never overlap: consecutive sorted offsets differ by at
        # least the chunk size
        s = np.sort(offs)
        if len(s) > 1:
            assert int(np.min(np.diff(s))) >= flat.chunk_elems


class TestPaddingProperties:
    @given(extent=st.integers(1, 10_000), multiple=st.integers(1, 512))
    def test_pad_up_properties(self, extent, multiple):
        p = pad_up(extent, multiple)
        assert p >= extent
        assert p % multiple == 0
        assert p - extent < multiple

    @given(
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
        pr=st.integers(0, 8),
        pc=st.integers(0, 8),
    )
    def test_pad_unpad_roundtrip(self, rows, cols, pr, pc):
        rng = np.random.default_rng(0)
        x = rng.random((rows, cols)).astype(np.float32)
        p = pad_tensor(x, (rows + pr, cols + pc))
        np.testing.assert_array_equal(unpad_tensor(p, (rows, cols)), x)
        # padding adds only zeros (float32 summation order may differ)
        np.testing.assert_allclose(
            np.abs(p).sum(dtype=np.float64), np.abs(x).sum(dtype=np.float64)
        )
