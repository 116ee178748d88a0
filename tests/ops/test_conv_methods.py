"""Tests for the three tensorized convolution decompositions."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.ops import conv_explicit, conv_implicit, conv_winograd, select_method
from repro.ops.conv_common import ConvParams
from repro.ops.direct import conv2d_reference
from repro.ops.im2col import im2col, im2col_cost
from repro.ops.selector import applicable_methods


def small_params(**kw):
    defaults = dict(batch=2, ni=8, no=16, ri=8, ci=8, kr=3, kc=3, pad=1)
    defaults.update(kw)
    return ConvParams(**defaults)


class TestApplicability:
    def test_implicit_needs_channels(self):
        assert conv_implicit.applicable(small_params())
        assert not conv_implicit.applicable(small_params(ni=3))
        assert not conv_implicit.applicable(small_params(stride=2))

    def test_winograd_needs_3x3_unit_stride(self):
        assert conv_winograd.applicable(small_params())
        assert not conv_winograd.applicable(small_params(kr=5, kc=5, pad=2))
        assert not conv_winograd.applicable(small_params(stride=2))

    def test_explicit_broadest(self):
        assert conv_explicit.applicable(small_params(ni=3))
        assert not conv_explicit.applicable(small_params(stride=2))

    def test_selector(self):
        assert select_method(small_params()) == "winograd"
        assert select_method(small_params(kr=1, kc=1, pad=0)) == "implicit"
        assert select_method(small_params(ni=3, kr=1, kc=1, pad=0)) == "explicit"
        assert applicable_methods(small_params(ni=3)) == ["winograd", "explicit"]

    def test_selector_no_method(self):
        with pytest.raises(WorkloadError):
            select_method(small_params(stride=2))


class TestImplicitSeed:
    def test_compute_shapes(self):
        p = small_params()
        cd = conv_implicit.make_compute(p)
        cd.validate()
        assert cd.tensor_shape("input") == (2, 8, 10, 10)  # padded + shift
        assert cd.tensor_shape("out") == p.output_shape

    def test_space_nonempty_and_bounded(self):
        p = small_params(ni=64, no=64, ri=16, ci=16)
        sp = conv_implicit.make_space(p, quick=True)
        assert 0 < sp.size() < 20_000

    def test_not_applicable_raises(self):
        with pytest.raises(WorkloadError):
            conv_implicit.make_compute(small_params(ni=3))


class TestIm2col:
    def test_col_shape(self):
        p = small_params()
        x = np.zeros((p.batch, p.ni, p.ri, p.ci), np.float32)
        assert im2col(x, p, "kn").shape == (8 * 9, 2 * 8 * 8)
        assert im2col(x, p, "nk").shape == (2 * 8 * 8, 8 * 9)
        with pytest.raises(WorkloadError):
            im2col(x, p, "zz")

    def test_expansion_reproduces_conv(self):
        """W_mat @ col == direct convolution."""
        p = small_params()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(p.input_shape).astype(np.float32)
        w = rng.standard_normal(p.weight_shape).astype(np.float32)
        col = im2col(x, p, "kn")
        w_mat = conv_explicit.weight_matrix(w, p)
        out = conv_explicit.output_from_matrix(w_mat @ col, p)
        np.testing.assert_allclose(
            out, conv2d_reference(x, w, p), rtol=1e-4, atol=1e-4
        )

    def test_layouts_transpose(self):
        p = small_params()
        x = np.random.default_rng(1).random(p.input_shape).astype(np.float32)
        np.testing.assert_array_equal(im2col(x, p, "nk"), im2col(x, p, "kn").T)

    def test_cost_layout_sensitivity(self):
        """Element-granular NK gathering costs more than KN streaming."""
        p = small_params(ni=32, no=32, ri=16, ci=16)
        kn = im2col_cost(p, "kn")
        nk = im2col_cost(p, "nk")
        assert nk.cycles > kn.cycles
        assert kn.bytes_written == nk.bytes_written

    def test_cost_scales_with_size(self):
        small = im2col_cost(small_params())
        big = im2col_cost(small_params(ri=16, ci=16, batch=8))
        assert big.cycles > small.cycles


class TestWinogradFunctional:
    def test_reference_matches_direct(self):
        p = small_params()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(p.input_shape).astype(np.float32)
        w = rng.standard_normal(p.weight_shape).astype(np.float32)
        np.testing.assert_allclose(
            conv_winograd.winograd_reference(x, w, p),
            conv2d_reference(x, w, p),
            rtol=1e-3,
            atol=1e-3,
        )

    def test_odd_output_sizes_cropped(self):
        """Ro not divisible by 2: tiles pad, output crops exactly."""
        p = small_params(ri=7, ci=9)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(p.input_shape).astype(np.float32)
        w = rng.standard_normal(p.weight_shape).astype(np.float32)
        np.testing.assert_allclose(
            conv_winograd.winograd_reference(x, w, p),
            conv2d_reference(x, w, p),
            rtol=1e-3,
            atol=1e-3,
        )

    def test_transform_matrices_identity_property(self):
        """F(2,3) exactness on a single tile: A^T[(Gg)*(B^T d)]A equals
        direct correlation of the 4x4 tile with the 3x3 filter."""
        rng = np.random.default_rng(5)
        d = rng.standard_normal((4, 4)).astype(np.float32)
        g = rng.standard_normal((3, 3)).astype(np.float32)
        u = conv_winograd.G @ g @ conv_winograd.G.T
        v = conv_winograd.BT @ d @ conv_winograd.BT.T
        y = conv_winograd.AT @ (u * v) @ conv_winograd.AT.T
        direct = np.array(
            [
                [(d[i : i + 3, j : j + 3] * g).sum() for j in range(2)]
                for i in range(2)
            ]
        )
        np.testing.assert_allclose(y, direct, rtol=1e-4, atol=1e-4)

    def test_tile_counts(self):
        p = small_params()  # ro = co = 8
        tr, tc, tot = conv_winograd.tile_counts(p)
        assert (tr, tc) == (4, 4)
        assert tot == p.batch * 16

    def test_gemm_batch_is_sixteen(self):
        p = small_params()
        cd = conv_winograd.make_compute(p)
        assert cd.axes["T"].extent == 16

    def test_transform_reports_positive(self):
        p = small_params(ni=32, no=32, ri=16, ci=16)
        for rep in (
            conv_winograd.input_transform_report(p),
            conv_winograd.filter_transform_report(p),
            conv_winograd.output_transform_report(p),
        ):
            assert rep.cycles > 0
            assert rep.bytes_moved > 0


class TestExplicitHelpers:
    def test_gemm_dims(self):
        p = small_params()
        d = conv_explicit.gemm_dims(p)
        assert d == {"m": 16, "n": 2 * 8 * 8, "k": 8 * 9}

    def test_space_includes_col_layout(self):
        p = small_params(ni=32, no=32, ri=16, ci=16)
        sp = conv_explicit.make_space(p, quick=True)
        assert "layout:B" in sp.decision_keys

    def test_col_layout_of(self):
        p = small_params(ni=32, no=32, ri=16, ci=16)
        sp = conv_explicit.make_space(p, quick=True)
        s = sp.strategy(**{"layout:B": (1, 0)})
        assert conv_explicit.col_layout_of(s) == "nk"
        assert conv_explicit.col_layout_of(sp.strategy()) == "kn"

    def test_expand_report(self):
        p = small_params()
        rep = conv_explicit.expand_report(p, "kn")
        assert rep.cycles > 0 and rep.dma_cycles == rep.cycles
