"""The benchmark's workloads: what each one runs and how it is checked.

Every workload is a fixed list of *strata*.  A stratum is one operator
the benchmark asks for, in one or two variants -- mostly the same
operator with its M and N roles or its rows and columns swapped; the
seed picks the variant of each stratum, the order in which each pass
visits them, and every input tensor.  The variants were chosen because
they cost the tuner about the same, so a run's figures move little
with the seed while each seed still gives its own inputs and its own
simulated cycles.

Correctness is checked against NumPy references written here, never
against the program's own references, and the simulated cycles of each
operator must repeat exactly on every pass of a run.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autotuner import tune_blackbox, tune_with_model
from repro.autotuner.calibrate import default_coeffs
from repro.codegen import CompiledKernel
from repro.dsl.compute import ROLE_OUTPUT
from repro.engine import clear_feeds_cache, clear_shared_memo
from repro.ops import ConvParams, conv_implicit
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space
from repro.primitives.microkernel import clear_schedule_memo
from repro.runtime import AtopLibrary


class CheckFailure(Exception):
    """An operator returned a wrong result."""


# --- independent references --------------------------------------------------
def gemm_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.astype(np.float64) @ b.astype(np.float64)


def conv_ref(
    x: np.ndarray, w: np.ndarray, *, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Cross-correlation of NCHW ``x`` with OIHW ``w`` in float64."""
    xp = np.pad(
        x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad))
    )
    kr, kc = w.shape[2:]
    win = sliding_window_view(xp, (kr, kc), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    return np.einsum("bihwrs,oirs->bohw", win, w.astype(np.float64))


def expect_close(out: Optional[np.ndarray], ref: np.ndarray, what: str) -> None:
    if out is None or out.shape != ref.shape:
        got = None if out is None else out.shape
        raise CheckFailure(f"{what}: output shape {got}, expected {ref.shape}")
    scale = max(1.0, float(np.abs(ref).max()))
    err = float(np.abs(out.astype(np.float64) - ref).max())
    if not err <= 1e-4 * scale:
        raise CheckFailure(f"{what}: max abs error {err:.3g} (scale {scale:.3g})")


# --- operations ----------------------------------------------------------------
@dataclass
class Outcome:
    cycles: float
    check: Callable[[], None]  # the correctness check, run outside timing
    pruned_share: Optional[float] = None


@dataclass
class Op:
    key: str
    flops: float
    #: makes the op's inputs (untimed) and returns the timed call
    prepare: Callable[[], Callable[[], Outcome]]


def _seeded_feeds(compute, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        name: rng.standard_normal(compute.tensor_shape(name)).astype(np.float32)
        for name, spec in compute.tensors.items()
        if spec.role != ROLE_OUTPUT
    }


def _pruned_share(result) -> Optional[float]:
    metrics = result.metrics
    considered = sum(b.considered for b in metrics.prune_batches)
    return metrics.bound_pruned / considered if considered else 0.0


def _winner_check(result, compute, feeds, reference: Callable[[], np.ndarray]):
    """Re-run the returned kernel: it must reproduce the reported cycles
    and compute the reference result on the seeded inputs."""
    def check() -> None:
        run = CompiledKernel(result.best.candidate.kernel, compute).run(feeds)
        if run.report.cycles != result.best.measured_cycles:
            raise CheckFailure(
                f"{compute.name}: winner re-runs in {run.report.cycles} "
                f"cycles, tuner reported {result.best.measured_cycles}"
            )
        (out,) = [run.outputs[n] for n, s in compute.tensors.items()
                  if s.role == ROLE_OUTPUT]
        expect_close(out, reference(), compute.name)
    return check


# --- workloads -------------------------------------------------------------------
class Workload:
    name = ""

    def setup(self, rng: np.random.Generator) -> List[Op]:
        """Set-up work plus the operations of one pass."""
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed reset between operations."""

    def verify_state(self) -> None:
        """Checks of the workload's own state after the last pass."""


class _TunerWorkload(Workload):
    """Cold-start tuning of one operator per op, as a user tuning a new
    shape pays it: the process-level memos are emptied before each op,
    the cost-model calibration (set-up) is kept."""

    strata: Sequence[Tuple] = ()

    def before_op(self) -> None:
        clear_shared_memo()
        clear_feeds_cache()
        clear_schedule_memo()
        gc.collect()

    def setup(self, rng: np.random.Generator) -> List[Op]:
        default_coeffs()
        return [self.make_op(alts[rng.integers(len(alts))], rng)
                for alts in self.strata]

    def make_op(self, shape, rng: np.random.Generator) -> Op:
        raise NotImplementedError


class ModelGemm(_TunerWorkload):
    """Model-based tuner on full GEMM spaces: enumeration, bounds,
    lowering, optimizer passes, verification, cost model, and one
    simulated winner.  The shapes are from the branch-and-bound sweep,
    where pruning removes most of the space."""

    name = "model-gemm"
    strata = (
        ((256, 384, 128), (384, 256, 128)),
        ((128, 128, 640),),
        ((256, 256, 256),),
    )

    def make_op(self, shape, rng):
        m, n, k = shape
        feeds = _seeded_feeds(gemm_compute(m, n, k), rng)

        def run() -> Outcome:
            compute = gemm_compute(m, n, k)
            result = tune_with_model(
                compute, gemm_space(compute), feeds=feeds, workers=1
            )
            return Outcome(
                result.best.measured_cycles,
                _winner_check(result, compute, feeds,
                              lambda: gemm_ref(feeds["A"], feeds["B"])),
                _pruned_share(result),
            )
        return Op(f"gemm {m}x{n}x{k}", 2.0 * m * n * k, lambda: run)


class BlackboxGemm(_TunerWorkload):
    """Black-box tuner simulating the first candidates of each GEMM
    space: kernel compilation, DMA and micro-kernel costing and
    functional data movement, with no bounds and no cost model.  The
    first candidates have the smallest tiles, hence the most simulated
    loop iterations per candidate."""

    name = "blackbox-gemm"
    #: (m, n, k, candidates simulated)
    strata = (
        ((160, 256, 128, 6), (256, 160, 128, 6)),
        ((96, 320, 128, 8), (320, 96, 128, 8)),
        ((128, 192, 96, 10), (192, 128, 96, 10)),
        # the first slices of these two spaces cost about the same but
        # their winners differ in efficiency, so the seed moves the
        # simulated figure too (M/N swaps above leave it unchanged)
        ((160, 224, 128, 6), (128, 160, 160, 8)),
    )

    def make_op(self, shape, rng):
        m, n, k, limit = shape
        feeds = _seeded_feeds(gemm_compute(m, n, k), rng)

        def run() -> Outcome:
            compute = gemm_compute(m, n, k)
            result = tune_blackbox(
                compute, gemm_space(compute), feeds=feeds, limit=limit,
                workers=1,
            )
            return Outcome(
                result.best.measured_cycles,
                _winner_check(result, compute, feeds,
                              lambda: gemm_ref(feeds["A"], feeds["B"])),
            )
        return Op(f"gemm {m}x{n}x{k} first {limit}", 2.0 * m * n * k,
                  lambda: run)


class ModelConv(_TunerWorkload):
    """Model-based tuner on implicit-conv layers as in Tab. 3, where
    lowering and optimization dominate and bound pruning is weak."""

    name = "model-conv"
    #: (batch, ni, no, rows, cols) with 3x3 kernels and padding 1
    strata = (
        ((16, 128, 256, 4, 6), (16, 128, 256, 6, 4)),
        ((16, 256, 128, 4, 5), (16, 256, 128, 5, 4)),
        ((32, 256, 256, 4, 5), (32, 256, 256, 5, 4)),
    )

    def make_op(self, shape, rng):
        b, ni, no, ri, ci = shape
        params = ConvParams(batch=b, ni=ni, no=no, ri=ri, ci=ci, pad=1)
        compute = conv_implicit.make_compute(params)
        feeds = _seeded_feeds(compute, rng)

        def run() -> Outcome:
            compute = conv_implicit.make_compute(params)
            space = conv_implicit.make_space(params, quick=True)
            result = tune_with_model(compute, space, feeds=feeds, workers=1)
            return Outcome(
                result.best.measured_cycles,
                _winner_check(result, compute, feeds,
                              lambda: conv_ref(feeds["input"], feeds["weight"])),
                _pruned_share(result),
            )
        return Op(f"conv {params.describe()}", params.flops, lambda: run)


class Library(Workload):
    """Warm :class:`AtopLibrary` serving cached kernels: each call
    re-lowers the cached strategy, simulates it on the four core groups
    and assembles the output; no search runs."""

    name = "library"
    #: conv strata: (batch, ni, no, rows, cols, kernel, pad, stride); the
    #: auto-selected methods are winograd, implicit, explicit, strided.
    conv_strata = (
        ((4, 32, 32, 8, 10, 3, 1, 1), (4, 32, 32, 10, 8, 3, 1, 1)),
        ((8, 64, 64, 6, 8, 1, 0, 1), (8, 64, 64, 8, 6, 1, 0, 1)),
        ((4, 4, 16, 8, 10, 5, 2, 1), (4, 4, 16, 10, 8, 5, 2, 1)),
        ((4, 16, 32, 8, 8, 3, 1, 2),),
    )
    gemm_strata = (((96, 160, 128), (160, 96, 128)),)

    def setup(self, rng):
        """Set-up is the offline-compile step: one tuning call per key
        fills the kernel cache; the timed calls are all cache hits."""
        self.lib = AtopLibrary()
        ops = []
        for alts in self.conv_strata:
            b, ni, no, ri, ci, kk, pad, stride = alts[rng.integers(len(alts))]
            params = ConvParams(batch=b, ni=ni, no=no, ri=ri, ci=ci,
                                kr=kk, kc=kk, pad=pad, stride=stride)
            ops.append(self._conv_op(params, rng))
        for alts in self.gemm_strata:
            m, n, k = alts[rng.integers(len(alts))]
            ops.append(self._gemm_op(m, n, k, rng))
        for op in ops:
            op.prepare()()
        self.tuned = self.lib.stats.tuned
        return ops

    def _conv_op(self, params: ConvParams, rng) -> Op:
        def prepare():
            x = rng.standard_normal(params.input_shape).astype(np.float32)
            w = rng.standard_normal(params.weight_shape).astype(np.float32)

            def run() -> Outcome:
                out = self.lib.conv2d(x, w, params)
                return Outcome(out.cycles, lambda: expect_close(
                    out.output,
                    conv_ref(x, w, stride=params.stride, pad=params.pad),
                    f"conv {params.describe()}",
                ))
            return run
        return Op(f"conv {params.describe()}", params.flops, prepare)

    def _gemm_op(self, m: int, n: int, k: int, rng) -> Op:
        def prepare():
            a = rng.standard_normal((m, k)).astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)

            def run() -> Outcome:
                out = self.lib.gemm(a, b)
                return Outcome(out.cycles, lambda: expect_close(
                    out.output, gemm_ref(a, b), f"gemm {m}x{n}x{k}"
                ))
            return run
        return Op(f"gemm {m}x{n}x{k}", 2.0 * m * n * k, prepare)

    def verify_state(self) -> None:
        """Every timed call must have been a cache hit served by a
        kernel, never a re-tune or a reference fallback."""
        stats = self.lib.stats
        if stats.tuned != self.tuned or stats.fallbacks or stats.quarantined:
            raise CheckFailure(f"library left the cache-hit path: {stats}")


WORKLOADS = {w.name: w for w in (ModelGemm, BlackboxGemm, ModelConv, Library)}
