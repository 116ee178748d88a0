"""Error-path tests for the executor: every malformed kernel must fail
loudly, never compute garbage silently."""

from dataclasses import replace

import numpy as np
import pytest

from repro.codegen.executor import CompiledKernel, _ExecState
from repro.dsl import ScheduleSpace
from repro.errors import CodegenError, SanitizerError
from repro.ir import (
    AffineExpr,
    AllocSpmNode,
    DmaCgNode,
    DmaGeometry,
    ForNode,
    GemmOpNode,
    KernelNode,
    SeqNode,
    TileAccess,
)
from repro.ir.visitors import transform
from repro.machine.dma import MEM_TO_SPM
from repro.primitives.microkernel import ALL_VARIANTS
from repro.scheduler import Candidate, lower_strategy
from repro.codegen import compile_candidate

from ..scheduler.test_lower import gemm_cd


def compiled(M=64, N=64, K=64):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [32]); sp.split("N", [32]); sp.split("K", [32])
    strat = sp.strategy()
    return cd, compile_candidate(Candidate(strat, lower_strategy(cd, strat), cd))


def _feeds(M=64, N=64, K=64, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "A": rng.standard_normal((M, K)).astype(np.float32),
        "B": rng.standard_normal((K, N)).astype(np.float32),
    }


class TestFeedValidation:
    def test_unknown_tensor_in_dma_rejected_at_build(self):
        cd, ck = compiled()
        bad = DmaCgNode(
            access=TileAccess("Ghost", ((AffineExpr(0), 4),)),
            spm="spm_a",
            direction=MEM_TO_SPM,
            geometry=DmaGeometry(1, 16, 0, 1),
        )
        kernel = KernelNode(
            "bad",
            allocs=[AllocSpmNode("spm_a", (4,))],
            body=SeqNode([bad]),
        )
        with pytest.raises(CodegenError):
            CompiledKernel(kernel, cd)

    def test_out_of_bounds_access_rejected_at_run(self):
        """An access whose evaluated offset escapes the tensor must be
        caught by the executor's bounds check."""
        cd, ck = compiled()
        from repro.ir import find_all
        from repro.ir.visitors import transform
        from repro.ir.nodes import Node

        def corrupt(n):
            if isinstance(n, DmaCgNode) and n.access.buffer == "A":
                dims = ((AffineExpr(1000), 32), n.access.dims[1])
                return DmaCgNode(
                    TileAccess("A", dims), n.spm, n.direction,
                    n.reply, n.geometry, n.phase_var,
                )
            return None

        bad_kernel = transform(ck.kernel, corrupt)
        bad = CompiledKernel(bad_kernel, cd)
        rng = np.random.default_rng(0)
        feeds = {
            "A": rng.standard_normal((64, 64)).astype(np.float32),
            "B": rng.standard_normal((64, 64)).astype(np.float32),
        }
        with pytest.raises(CodegenError):
            bad.run(feeds)

    def test_gemm_view_overflow_rejected(self):
        cd, ck = compiled()
        from repro.ir.visitors import transform

        def inflate(n):
            if isinstance(n, GemmOpNode):
                return GemmOpNode(
                    m=n.m * 8, n=n.n, k=n.k,
                    a_spm=n.a_spm, b_spm=n.b_spm, c_spm=n.c_spm,
                    a_map=n.a_map, b_map=n.b_map, c_map=n.c_map,
                    variant=n.variant, accumulate=n.accumulate,
                    a_lens=(n.a_lens[0] * 8, *n.a_lens[1:]),
                    b_lens=n.b_lens, c_lens=n.c_lens,
                )
            return None

        bad_kernel = transform(ck.kernel, inflate)
        bad = CompiledKernel(bad_kernel, cd)
        rng = np.random.default_rng(1)
        feeds = {
            "A": rng.standard_normal((64, 64)).astype(np.float32),
            "B": rng.standard_normal((64, 64)).astype(np.float32),
        }
        with pytest.raises(CodegenError):
            bad.run(feeds)

    def test_gemm_dim_mismatch_rejected(self):
        cd, ck = compiled()
        from repro.ir.visitors import transform

        def skew(n):
            if isinstance(n, GemmOpNode):
                return GemmOpNode(
                    m=n.m, n=n.n, k=n.k + 1,  # declared K no longer matches
                    a_spm=n.a_spm, b_spm=n.b_spm, c_spm=n.c_spm,
                    a_map=n.a_map, b_map=n.b_map, c_map=n.c_map,
                    variant=n.variant, accumulate=n.accumulate,
                    a_lens=n.a_lens, b_lens=n.b_lens, c_lens=n.c_lens,
                )
            return None

        bad = CompiledKernel(transform(ck.kernel, skew), cd)
        rng = np.random.default_rng(2)
        feeds = {
            "A": rng.standard_normal((64, 64)).astype(np.float32),
            "B": rng.standard_normal((64, 64)).astype(np.float32),
        }
        with pytest.raises(CodegenError):
            bad.run(feeds)


class TestMachineSanitizer:
    """Sanitized runs turn silent machine-level corruption into
    structured errors naming the IR node, the buffer and the bytes."""

    def test_oob_dma_names_node_buffer_and_bytes(self):
        """A DMA whose geometry escapes its bound main-memory window is
        a structured ``mem-oob``, not a stray numpy IndexError."""
        cd, ck = compiled()

        def corrupt(n):
            if isinstance(n, DmaCgNode) and n.access.buffer == "A":
                dims = ((AffineExpr(1000), 32), n.access.dims[1])
                return DmaCgNode(
                    TileAccess("A", dims), n.spm, n.direction,
                    n.reply, n.geometry, n.phase_var,
                )
            return None

        bad = CompiledKernel(transform(ck.kernel, corrupt), cd, sanitize=True)
        with pytest.raises(SanitizerError) as exc:
            bad.run(_feeds())
        err = exc.value
        assert err.check == "mem-oob"
        assert err.buffer == "A"
        assert "dma[A->spm:" in err.node
        assert err.byte_range is not None and err.byte_range[1] > err.byte_range[0]
        # still a CodegenError: pre-sanitizer error-handling keeps working
        assert isinstance(err, CodegenError)

    def test_double_buffer_phase_race_detected(self):
        """A synchronous DMA buried in a nested loop of a pipelined
        body touches the phase the stream prefetch is still filling --
        the verifier cannot see through the nested loop, the sanitizer
        catches it at execution."""
        cd, ck = compiled(K=96)  # stream extent 3: iteration 1 races
        done = []

        def inject(n):
            if isinstance(n, ForNode) and n.pipelined and not done:
                done.append(n)
                from repro.optimizer.prefetch import direct_stream_dmas

                dma = direct_stream_dmas(n)[0]
                wrapped = ForNode("san_race", 1, SeqNode([replace(dma)]))
                return ForNode(
                    n.var, n.extent, SeqNode([wrapped, n.body]),
                    pipelined=True,
                )
            return None

        bad = CompiledKernel(transform(ck.kernel, inject), cd, sanitize=True)
        with pytest.raises(SanitizerError) as exc:
            bad.run(_feeds(K=96))
        err = exc.value
        assert err.check == "phase-race"
        assert err.buffer == "spm_a"
        assert "dma[A->spm:spm_a]" in err.node

    def test_unfed_spm_read_detected(self):
        """Dropping a stream DMA leaves the GEMM reading SPM bytes
        nothing ever wrote: ``uninit-read`` naming the operand buffer."""
        cd, ck = compiled()

        def drop(n):
            if (
                isinstance(n, DmaCgNode)
                and n.access.buffer == "A"
                and n.direction == MEM_TO_SPM
            ):
                return SeqNode([])
            return None

        bad = CompiledKernel(transform(ck.kernel, drop), cd, sanitize=True)
        with pytest.raises(SanitizerError) as exc:
            bad.run(_feeds())
        err = exc.value
        assert err.check == "uninit-read"
        assert err.buffer == "spm_a"
        assert err.node.startswith("gemm[")
        assert err.byte_range is not None

    def test_sanitizer_off_by_default_and_costless(self):
        """Without opt-in the executor holds no sanitizer at all:
        results identical, ``sanitizer_checks`` unset."""
        from repro.options import TuneOptions, use

        with use(sanitize=TuneOptions.from_env({}).sanitize):
            cd, ck = compiled()
        feeds = _feeds()
        plain = ck.run(feeds)
        assert plain.sanitizer_checks is None
        san = CompiledKernel(ck.kernel, cd, sanitize=True).run(feeds)
        assert san.sanitizer_checks and san.sanitizer_checks > 0
        np.testing.assert_array_equal(plain.outputs["C"], san.outputs["C"])


class TestTimeOnlyErrorParity:
    """The data-free path keeps every check of the functional one: for
    each malformed input or kernel, ``time_only`` raises the same
    ``CodegenError`` as ``run``."""

    @staticmethod
    def assert_same_error(ck, feeds):
        with pytest.raises(CodegenError) as slow:
            ck.run(feeds)
        with pytest.raises(CodegenError) as fast:
            ck.time_only(feeds)
        assert type(fast.value) is type(slow.value)
        assert str(fast.value) == str(slow.value)

    @staticmethod
    def unsanitized(kernel_transform=None):
        cd, ck = compiled()
        kernel = ck.kernel
        if kernel_transform is not None:
            kernel = transform(kernel, kernel_transform)
        return CompiledKernel(kernel, cd, sanitize=False)

    def test_missing_feed(self):
        feeds = _feeds()
        del feeds["B"]
        self.assert_same_error(self.unsanitized(), feeds)

    def test_wrong_feed_shape(self):
        feeds = _feeds()
        feeds["A"] = feeds["A"][:, :63]
        self.assert_same_error(self.unsanitized(), feeds)

    def test_dma_access_out_of_range(self):
        def corrupt(n):
            if isinstance(n, DmaCgNode) and n.access.buffer == "A":
                dims = ((AffineExpr(1000), 32), n.access.dims[1])
                return DmaCgNode(
                    TileAccess("A", dims), n.spm, n.direction,
                    n.reply, n.geometry, n.phase_var,
                )
            return None

        self.assert_same_error(self.unsanitized(corrupt), _feeds())

    def test_gemm_view_exceeds_spm_allocation(self):
        def inflate(n):
            if isinstance(n, GemmOpNode):
                return replace(n, m=n.m * 8, a_lens=(n.a_lens[0] * 8, *n.a_lens[1:]))
            return None

        self.assert_same_error(self.unsanitized(inflate), _feeds())

    def test_gemm_dims_mismatch(self):
        def skew(n):
            if isinstance(n, GemmOpNode):
                return replace(n, k=n.k + 1)
            return None

        self.assert_same_error(self.unsanitized(skew), _feeds())
