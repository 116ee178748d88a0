"""Operator-level runner: tune/fix a schedule, shard across the chip,
execute on the simulator, assemble outputs and chip-level reports.

This is the layer the experiments drive.  Responsibilities:

* spatial/batch **sharding** over the four core groups (each CG streams
  its shard from its own memory controller; chip makespan = slowest
  shard);
* **tuning once per shard shape** and re-lowering the winning strategy
  (with clipped tiles) onto remainder shards;
* running the multi-stage methods (im2col + GEMM; Winograd transforms
  + batched GEMM) with per-stage reports merged serially;
* dispatching to the manual baselines (swDNN / xMath) through the same
  interfaces so comparisons share every piece of machinery except the
  schedule choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autotuner import TuningResult, tune_with_model
from ..baselines import swdnn, xmath
from ..codegen.executor import CompiledKernel
from ..dsl.compute import ComputeDef
from ..dsl.schedule import ScheduleStrategy
# candidate preparation/compilation is owned by the engine; the names
# stay importable from here for existing callers
from ..engine import clip_strategy, compile_strategy
from ..errors import WorkloadError
from ..machine.config import MachineConfig, default_config
from ..machine.spm import partition_extent
from ..machine.trace import SimReport
from ..ops import conv_explicit, conv_implicit, conv_winograd
from ..ops.conv_common import ConvParams, pad_input
from ..ops.gemm import make_compute as gemm_compute
from ..ops.gemm import make_space as gemm_space

__all__ = [
    "CONV_RUNNERS",
    "OperatorRun",
    "clip_strategy",
    "compile_strategy",
    "run_conv_explicit",
    "run_conv_implicit",
    "run_conv_strided",
    "run_conv_winograd",
    "run_gemm",
    "shard_conv",
]


@dataclass
class OperatorRun:
    """Result of one operator execution on the chip."""

    report: SimReport
    output: Optional[np.ndarray] = None
    tuning: Optional[TuningResult] = None
    #: strategies actually used per phase of a strided decomposition
    #: (None for single-phase runs) -- what the library's strided cache
    #: persists.
    phase_strategies: Optional[List[ScheduleStrategy]] = None
    #: set when this run is a graceful fallback from a quarantined
    #: kernel (sanitizer / validation failure) -- the structured reason.
    fallback_reason: Optional[str] = None

    @property
    def cycles(self) -> float:
        return self.report.cycles


def _tune(compute: ComputeDef, space, config: MachineConfig) -> TuningResult:
    # measure the top-2 predictions and keep the faster one -- the
    # paper's "pick best (or top k)" refinement; two extra simulated
    # runs per operator buy back most residual model error
    return tune_with_model(compute, space, config=config, run_best=True, top_k=2)


def _tune_lead(
    shards: Sequence[ConvShard], op, quick: bool, config: MachineConfig, **variant
) -> TuningResult:
    """Tune the conv method module ``op`` on the shard with the most
    work; every shard runs the winner (clipped to its extents)."""
    lead = max(shards, key=lambda s: s.params.flops).params
    compute = op.make_compute(lead, **variant)
    return _tune(compute, op.make_space(lead, quick=quick, **variant), config)


# ---------------------------------------------------------------------------
# sharding helpers
# ---------------------------------------------------------------------------
def _aligned_partition(extent: int, parts: int, align: int) -> List[Tuple[int, int]]:
    """Contiguous partition with every boundary a multiple of ``align``
    (Winograd tile rows must not split a 2-row output tile)."""
    units = math.ceil(extent / align)
    out = []
    for start_u, len_u in partition_extent(units, parts):
        start = start_u * align
        length = min(len_u * align, max(0, extent - start))
        out.append((start, length))
    return out


@dataclass(frozen=True)
class ConvShard:
    params: ConvParams      # pad already folded in (pad == 0)
    batch: Tuple[int, int]  # (start, length) in the batch dim
    rows: Tuple[int, int]   # (start, length) in the *output-row* dim


def shard_conv(
    params: ConvParams,
    config: Optional[MachineConfig] = None,
    *,
    row_align: int = 1,
) -> List[ConvShard]:
    """Split a conv across core groups: by batch when it covers the
    CGs, otherwise by output rows (the inference case)."""
    cfg = config or default_config()
    base = replace(params, ri=params.padded_ri, ci=params.padded_ci, pad=0)
    shards: List[ConvShard] = []
    if params.batch >= cfg.num_cgs:
        for start, length in partition_extent(params.batch, cfg.num_cgs):
            if length == 0:
                continue
            shards.append(
                ConvShard(
                    params=replace(base, batch=length),
                    batch=(start, length),
                    rows=(0, params.ro),
                )
            )
        return shards
    for start, length in _aligned_partition(params.ro, cfg.num_cgs, row_align):
        if length <= 0:
            continue
        shards.append(
            ConvShard(
                params=replace(
                    base, ri=length + params.kr - 1, batch=params.batch
                ),
                batch=(0, params.batch),
                rows=(start, length),
            )
        )
    return shards


def _shard_input(
    xp: np.ndarray, shard: ConvShard, params: ConvParams
) -> np.ndarray:
    b0, bl = shard.batch
    r0, rl = shard.rows
    return np.ascontiguousarray(
        xp[b0 : b0 + bl, :, r0 : r0 + rl + params.kr - 1, :]
    )


#: compiled kernels of one strategy, by shard compute (see
#: :func:`_shard_kernel`)
KernelStore = Dict[str, CompiledKernel]


def _shard_kernel(
    kernels: KernelStore,
    key: str,
    make_compute: Callable[[], ComputeDef],
    strategy: ScheduleStrategy,
    config: MachineConfig,
) -> CompiledKernel:
    """The kernel of ``strategy`` for the shard compute named ``key``,
    compiled on first use.  Shards of one shape share a kernel; a store
    the caller passes in keeps them for its later calls, and must only
    ever see the one strategy."""
    ck = kernels.get(key)
    if ck is None:
        ck = kernels[key] = compile_strategy(make_compute(), strategy, config)
    return ck


# ---------------------------------------------------------------------------
# GEMM
# ---------------------------------------------------------------------------
def run_gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    library: str = "swatop",
    quick: bool = True,
    config: Optional[MachineConfig] = None,
    strategy: Optional[ScheduleStrategy] = None,
    kernels: Optional[KernelStore] = None,
) -> OperatorRun:
    """``C = A @ B`` on one core group (GEMM routines, like xMath's, are
    per-CG; multi-CG GEMM is a caller-level shard over M).

    ``strategy`` replays a pre-tuned strategy instead of tuning; the
    tuned winner's kernel, or the replayed one, lands in ``kernels``."""
    cfg = config or default_config()
    a = np.asarray(a, np.float32)
    b = np.asarray(b, np.float32)
    if library == "xmath":
        res = xmath.xmath_gemm(a, b, config=cfg)
        return OperatorRun(report=res.report, output=res.output)
    if library != "swatop":
        raise WorkloadError(f"unknown GEMM library {library!r}")
    m, k = a.shape
    n = b.shape[1]
    compute = gemm_compute(m, n, k)
    kernels = {} if kernels is None else kernels
    shape = f"{m}x{n}x{k}"
    tuning: Optional[TuningResult] = None
    if strategy is None:
        space = gemm_space(compute, quick=quick)
        tuning = _tune(compute, space, cfg)
        strategy = tuning.best.candidate.strategy
        # the winner is lowered already
        kernels[shape] = CompiledKernel(tuning.best.candidate.kernel, compute, cfg)
    ck = _shard_kernel(kernels, shape, lambda: compute, strategy, cfg)
    res = ck.run({"A": a, "B": b})
    return OperatorRun(report=res.report, output=res.outputs["C"], tuning=tuning)


# ---------------------------------------------------------------------------
# implicit convolution
# ---------------------------------------------------------------------------
def run_conv_implicit(
    params: ConvParams,
    x: np.ndarray,
    w: np.ndarray,
    *,
    library: str = "swatop",
    quick: bool = True,
    config: Optional[MachineConfig] = None,
    collect_output: bool = True,
    strategy: Optional[ScheduleStrategy] = None,
    kernels: Optional[KernelStore] = None,
) -> OperatorRun:
    cfg = config or default_config()
    xp = pad_input(np.asarray(x, np.float32), params)
    w = np.asarray(w, np.float32)
    shards = shard_conv(params, cfg)
    kernels = {} if kernels is None else kernels

    tuning: Optional[TuningResult] = None
    if library == "swatop":
        if strategy is None:
            tuning = _tune_lead(shards, conv_implicit, quick, cfg)
            strategy = tuning.best.candidate.strategy
    elif library == "swdnn":
        if not swdnn.supported(params):
            raise WorkloadError(
                f"swDNN has no implicit-conv kernel for {params.describe()}"
            )
        lead = max(shards, key=lambda s: s.params.flops)
        strategy = swdnn.fixed_strategy(lead.params, cfg, check_support=False)
    else:
        raise WorkloadError(f"unknown implicit-conv library {library!r}")

    out = np.zeros(params.output_shape, np.float32) if collect_output else None
    reports: List[SimReport] = []
    for shard in shards:
        ck = _shard_kernel(
            kernels, shard.params.describe(),
            lambda: conv_implicit.make_compute(shard.params), strategy, cfg,
        )
        res = ck.run({"input": _shard_input(xp, shard, params), "weight": w})
        reports.append(res.report)
        if out is not None:
            b0, bl = shard.batch
            r0, rl = shard.rows
            out[b0 : b0 + bl, :, r0 : r0 + rl, :] = res.outputs["out"]
    report = SimReport.merge_parallel(reports, detail=f"conv_implicit[{library}]")
    return OperatorRun(report=report, output=out, tuning=tuning)


# ---------------------------------------------------------------------------
# explicit convolution
# ---------------------------------------------------------------------------
def run_conv_explicit(
    params: ConvParams,
    x: np.ndarray,
    w: np.ndarray,
    *,
    library: str = "swatop",
    quick: bool = True,
    config: Optional[MachineConfig] = None,
    collect_output: bool = True,
    strategy: Optional[ScheduleStrategy] = None,
    kernels: Optional[KernelStore] = None,
) -> OperatorRun:
    cfg = config or default_config()
    xp = pad_input(np.asarray(x, np.float32), params)
    w_mat_full = conv_explicit.weight_matrix(np.asarray(w, np.float32), params)
    shards = shard_conv(params, cfg)
    kernels = {} if kernels is None else kernels

    tuning: Optional[TuningResult] = None
    if library == "swatop":
        if strategy is None:
            tuning = _tune_lead(shards, conv_explicit, quick, cfg)
            strategy = tuning.best.candidate.strategy
    elif library != "manual":
        raise WorkloadError(f"unknown explicit-conv library {library!r}")

    out = np.zeros(params.output_shape, np.float32) if collect_output else None
    reports: List[SimReport] = []
    for shard in shards:
        sp = shard.params
        xs = _shard_input(xp, shard, params)
        if library == "swatop":
            layout = conv_explicit.col_layout_of(strategy)
            col = conv_explicit.im2col(xs, sp, "kn")  # logical (K, N) feed
            expand = conv_explicit.expand_report(sp, layout, cfg)
            ck = _shard_kernel(
                kernels, sp.describe(),
                lambda: conv_explicit.make_compute(sp), strategy, cfg,
            )
            res = ck.run({"A": w_mat_full, "B": col})
            stage = conv_explicit.ExplicitStages(expand, res.report)
            reports.append(stage.total)
            result_mat = res.outputs["C"]
        else:
            col = conv_explicit.im2col(xs, sp, "kn")
            expand = conv_explicit.expand_report(sp, "kn", cfg)
            g = xmath.xmath_gemm(w_mat_full, col, config=cfg)
            reports.append(
                SimReport.merge_serial([expand, g.report], detail="explicit[manual]")
            )
            result_mat = g.output
        if out is not None:
            folded = conv_explicit.output_from_matrix(result_mat, sp)
            b0, bl = shard.batch
            r0, rl = shard.rows
            out[b0 : b0 + bl, :, r0 : r0 + rl, :] = folded
    report = SimReport.merge_parallel(reports, detail=f"conv_explicit[{library}]")
    return OperatorRun(report=report, output=out, tuning=tuning)


# ---------------------------------------------------------------------------
# Winograd convolution
# ---------------------------------------------------------------------------
def run_conv_winograd(
    params: ConvParams,
    x: np.ndarray,
    w: np.ndarray,
    *,
    library: str = "swatop",
    quick: bool = True,
    config: Optional[MachineConfig] = None,
    collect_output: bool = True,
    strategy: Optional[ScheduleStrategy] = None,
    variant: str = "f22",
    kernels: Optional[KernelStore] = None,
) -> OperatorRun:
    """Winograd convolution.

    ``variant`` selects the minimal-filtering instantiation: ``"f22"``
    (the paper's 16-GEMM F(2x2,3x3)), ``"f44"`` (36-GEMM F(4x4,3x3),
    4x multiply reduction), or ``"auto"`` -- tune both and keep the
    faster, the per-shape primitive selection swATOP advertises.
    """
    cfg = config or default_config()
    kernels = {} if kernels is None else kernels
    if not conv_winograd.applicable(params):
        raise WorkloadError(f"winograd not applicable to {params.describe()}")
    if variant == "auto":
        if library != "swatop":
            raise WorkloadError("variant='auto' is a swATOP feature")
        runs = [
            run_conv_winograd(
                params, x, w, library=library, quick=quick, config=cfg,
                collect_output=collect_output, variant=name, kernels=kernels,
            )
            for name in ("f22", "f44")
        ]
        return min(runs, key=lambda r: r.cycles)
    wv = conv_winograd.get_variant(variant)

    xp = pad_input(np.asarray(x, np.float32), params)
    w = np.asarray(w, np.float32)
    u = conv_winograd.filter_transform(w, params, wv)  # (t, t, No, Ni)
    u_mat = np.ascontiguousarray(
        u.reshape(wv.num_gemms, params.no, params.ni)
    )
    shards = shard_conv(params, cfg, row_align=wv.out_tile)

    tuning: Optional[TuningResult] = None
    if library == "swatop":
        if strategy is None:
            tuning = _tune_lead(shards, conv_winograd, quick, cfg, variant=wv)
            strategy = tuning.best.candidate.strategy
    elif library != "manual":
        raise WorkloadError(f"unknown winograd library {library!r}")

    out = np.zeros(params.output_shape, np.float32) if collect_output else None
    reports: List[SimReport] = []
    for shard in shards:
        sp = shard.params
        xs = _shard_input(xp, shard, params)
        v = conv_winograd.input_transform(xs, sp, wv)  # (t, t, Ni, P)
        _, _, p = conv_winograd.tile_counts(sp, wv)
        v_mat = np.ascontiguousarray(
            v.reshape(wv.num_gemms, params.ni, p)
        )
        stage_reports = [
            conv_winograd.filter_transform_report(sp, cfg, wv),
            conv_winograd.input_transform_report(sp, cfg, wv),
        ]
        if library == "swatop":
            ck = _shard_kernel(
                kernels, f"{sp.describe()}:{wv.name}",
                lambda: conv_winograd.make_compute(sp, wv), strategy, cfg,
            )
            res = ck.run({"U": u_mat, "V": v_mat})
            stage_reports.append(res.report)
            m_mat = res.outputs["M"]
        else:
            gem_reports = []
            m_mat = np.empty(
                (wv.num_gemms, params.no, p), np.float32
            )
            for t in range(wv.num_gemms):
                g = xmath.xmath_gemm(u_mat[t], v_mat[t], config=cfg)
                gem_reports.append(g.report)
                m_mat[t] = g.output
            stage_reports.append(
                SimReport.merge_serial(gem_reports, detail="winograd[manual] gemms")
            )
        stage_reports.append(conv_winograd.output_transform_report(sp, cfg, wv))
        reports.append(
            SimReport.merge_serial(stage_reports, detail="winograd shard")
        )
        if out is not None:
            y = conv_winograd.output_transform(
                m_mat.reshape(wv.tile, wv.tile, params.no, p), sp, wv
            )
            b0, bl = shard.batch
            r0, rl = shard.rows
            out[b0 : b0 + bl, :, r0 : r0 + rl, :] = y[:, :, :rl, :]
    report = SimReport.merge_parallel(
        reports, detail=f"conv_winograd[{library},{wv.name}]"
    )
    return OperatorRun(report=report, output=out, tuning=tuning)


#: dispatch used by the experiments
CONV_RUNNERS: Dict[str, Callable[..., OperatorRun]] = {
    "implicit": run_conv_implicit,
    "explicit": run_conv_explicit,
    "winograd": run_conv_winograd,
}


# ---------------------------------------------------------------------------
# strided convolution via phase decomposition
# ---------------------------------------------------------------------------
def run_conv_strided(
    params: ConvParams,
    x: np.ndarray,
    w: np.ndarray,
    *,
    library: str = "swatop",
    method: str = "implicit",
    quick: bool = True,
    config: Optional[MachineConfig] = None,
    strategies: Optional[Sequence[ScheduleStrategy]] = None,
    kernels: Optional[Sequence[KernelStore]] = None,
) -> OperatorRun:
    """Strided convolution: phase-decompose into unit-stride convs
    (see :mod:`repro.ops.strided`), run each through the tuned
    pipeline, and sum.  Phases execute back to back on the chip, so
    reports merge serially.

    ``strategies`` injects one pre-tuned strategy per phase (the
    library's cached-replay path); the strategies actually used are
    returned on ``OperatorRun.phase_strategies`` either way.
    ``kernels`` passes one kernel store per phase to its runner.
    """
    from ..ops import strided

    cfg = config or default_config()
    if params.stride == 1:
        raise WorkloadError("run_conv_strided needs stride > 1")
    if method not in ("implicit", "explicit"):
        raise WorkloadError(f"strided decomposition over {method!r} unsupported")
    runner = CONV_RUNNERS[method]
    phases = strided.decompose(params)
    if strategies is not None and len(strategies) != len(phases):
        raise WorkloadError(
            f"{len(strategies)} injected strategies for {len(phases)} phases"
        )
    if kernels is not None and len(kernels) != len(phases):
        raise WorkloadError(
            f"{len(kernels)} kernel stores for {len(phases)} phases"
        )
    out = np.zeros(params.output_shape, np.float32)
    reports: List[SimReport] = []
    tuning: Optional[TuningResult] = None
    used: List[Optional[ScheduleStrategy]] = []
    for i, phase in enumerate(phases):
        xs = strided.phase_input(x, params, phase)
        ws = strided.phase_weight(w, params, phase)
        injected = strategies[i] if strategies is not None else None
        run = runner(
            phase.params, xs, ws, library=library, quick=quick,
            config=cfg, collect_output=True, strategy=injected,
            kernels=kernels[i] if kernels is not None else None,
        )
        out += run.output
        reports.append(run.report)
        if injected is not None:
            used.append(injected)
        elif run.tuning is not None:
            used.append(run.tuning.best.candidate.strategy)
        else:
            used.append(None)
        if tuning is None:
            tuning = run.tuning
    return OperatorRun(
        report=SimReport.merge_serial(reports, detail=f"conv_strided[{method}]"),
        output=out,
        tuning=tuning,
        phase_strategies=(
            list(used) if all(s is not None for s in used) else None
        ),
    )
