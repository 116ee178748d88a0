"""The 4x4 register-blocked GEMM micro-kernel (Appendix 9).

Rather than hard-coding the paper's "16 vmad in 16 cycles", this module
*derives* the per-k-step cycle cost of each kernel variant by building
its software-pipelined instruction sequence and scheduling it on the
dual-issue pipeline model.  The register-blocking scheme:

* 16 vector registers hold a 4-vector x 4-scalar block of C
  (16 x 4 C elements for vec-M, 4 x 16 for vec-N);
* per k-step, the operand supplying the *vectorized* dimension
  contributes 4 vectors (one ``vlddr``/``vlddc`` each when that
  dimension is contiguous in its SPM layout; a slow scalar
  load-and-pack path otherwise), and the other operand contributes 4
  scalars via ``vldder``/``vlddec`` (extend + broadcast);
* the loads for step ``k+1`` are interleaved among step ``k``'s vmads
  with a rotated register set, exactly like the hand-written assembly,
  so a well-laid-out variant sustains one vmad per cycle.

Eight variants (Appendix 9): A stored column- or row-major x B stored
column- or row-major x vectorization along M or N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PipelineError
from ..machine import vector as V
from ..machine.config import PIPE_P0, PIPE_P1, MachineConfig, config_signature, default_config
from ..machine.pipeline import Instr

#: layout tags: which dimension is contiguous (leading) in SPM.
ROW_MAJOR = "row_major"  # innermost = second index (K for A(M,K), N for B(K,N))
COL_MAJOR = "col_major"  # innermost = first index  (M for A,      K for B)

#: register blocking geometry (Appendix 9).
BLOCK_VECS = 4    # vector registers along the vectorized dim
BLOCK_SCALARS = 4  # scalar slots along the other dim


@dataclass(frozen=True)
class KernelVariant:
    """One of the eight hand-written kernel flavours."""

    a_layout: str  # ROW_MAJOR or COL_MAJOR storage of A (M x K) in SPM
    b_layout: str  # ROW_MAJOR or COL_MAJOR storage of B (K x N) in SPM
    vec_dim: str   # "M" or "N"

    def __post_init__(self) -> None:
        if self.a_layout not in (ROW_MAJOR, COL_MAJOR):
            raise PipelineError(f"bad A layout {self.a_layout!r}")
        if self.b_layout not in (ROW_MAJOR, COL_MAJOR):
            raise PipelineError(f"bad B layout {self.b_layout!r}")
        if self.vec_dim not in ("M", "N"):
            raise PipelineError(f"vec_dim must be 'M' or 'N', got {self.vec_dim!r}")

    @property
    def name(self) -> str:
        a = "ac" if self.a_layout == COL_MAJOR else "ar"
        b = "bc" if self.b_layout == COL_MAJOR else "br"
        return f"{a}_{b}_vec{self.vec_dim.lower()}"

    # --- contiguity of the dimensions each operand must serve ------------
    @property
    def vec_operand_contiguous(self) -> bool:
        """Is the vectorized dimension contiguous in its source operand?

        vec-M reads M-vectors from A: contiguous iff A is column-major.
        vec-N reads N-vectors from B: contiguous iff B is row-major.
        """
        if self.vec_dim == "M":
            return self.a_layout == COL_MAJOR
        return self.b_layout == ROW_MAJOR

    @property
    def scalar_operand_adjacent(self) -> bool:
        """Are the 4 scalar-dim elements (fixed k) adjacent in memory?

        vec-M takes scalars along N from B: adjacent iff B row-major.
        vec-N takes scalars along M from A: adjacent iff A column-major.
        """
        if self.vec_dim == "M":
            return self.b_layout == ROW_MAJOR
        return self.a_layout == COL_MAJOR


ALL_VARIANTS: Tuple[KernelVariant, ...] = tuple(
    KernelVariant(a, b, v)
    for a in (COL_MAJOR, ROW_MAJOR)
    for b in (COL_MAJOR, ROW_MAJOR)
    for v in ("M", "N")
)


def _k_step_instrs(variant: KernelVariant, phase: str, other: str) -> List[Instr]:
    """Instruction sequence for one k-step using register set ``phase``
    while prefetching the next step's operands into set ``other``.

    The vectorized operand broadcasts on the row bus when it is A
    (vec-M) and on the column bus when it is B (vec-N); the scalar
    operand uses the opposite bus -- the Fig. 12 exchange.
    """
    vec_axis = "row" if variant.vec_dim == "M" else "col"
    sca_axis = "col" if variant.vec_dim == "M" else "row"

    loads: List[Instr] = []
    if variant.vec_operand_contiguous:
        loads += [
            V.load_bcast_vector(f"va{i}_{other}", "vp", vec_axis)
            for i in range(BLOCK_VECS)
        ]
    else:
        # slow path: gather 4 elements per vector with scalar loads and
        # pack; the packed vector still crosses the bus (one put).
        for i in range(BLOCK_VECS):
            loads += [
                Instr.make("ldd", f"t{i}_{j}_{other}", "vp") for j in range(4)
            ]
            loads.append(
                Instr.make(
                    "iop",
                    f"va{i}_{other}",
                    *[f"t{i}_{j}_{other}" for j in range(4)],
                )
            )
    loads += [
        V.load_bcast_scalar(f"sb{j}_{other}", "sp", sca_axis)
        for j in range(BLOCK_SCALARS)
    ]
    if not variant.scalar_operand_adjacent:
        # extra address arithmetic for strided scalar picks
        loads += [Instr.make("iop", f"addr{j}_{other}") for j in range(BLOCK_SCALARS)]

    mads = [
        V.vmad(f"c{i}_{j}", f"va{i}_{phase}", f"sb{j}_{phase}")
        for i in range(BLOCK_VECS)
        for j in range(BLOCK_SCALARS)
    ]
    # interleave: sprinkle the prefetch loads through the vmad stream so
    # P1 work hides under P0 work, as the hand scheduler does.
    out: List[Instr] = []
    li, mi = 0, 0
    stride = max(1, len(mads) // max(1, len(loads)))
    while mi < len(mads) or li < len(loads):
        for _ in range(stride):
            if mi < len(mads):
                out.append(mads[mi])
                mi += 1
        if li < len(loads):
            out.append(loads[li])
            li += 1
    out += V.loop_control("kcnt")
    return out


# ---------------------------------------------------------------------------
# the micro-kernel table
# ---------------------------------------------------------------------------
# Every calibration sample, simulated GEMM leaf and space bound asks
# for these cycles, so all eight variants' (k_step, init, drain) are
# derived at once into one table per ``config_signature`` (the config
# object hashes without its latency and pipe tables).  The derivation
# is ``schedule`` without its records, once per sequence: the greedy
# in-order 3-copy k-step schedule is a prefix of the 5-copy one, and
# the drain's store sequence is the same for every variant.

#: (k_step, init, drain) cycles of one variant.
Row = Tuple[float, int, int]

_TABLES: Dict[tuple, Dict[KernelVariant, Row]] = {}


@dataclass
class ScheduleMemoStats:
    """Hit/miss accounting of the micro-kernel table: a miss derives
    one machine's table, a hit is an accessor call it answered."""

    hits: int = 0
    misses: int = 0


_MEMO_STATS = ScheduleMemoStats()


def schedule_memo_stats() -> ScheduleMemoStats:
    """A snapshot of the table's hit/miss counters."""
    return ScheduleMemoStats(_MEMO_STATS.hits, _MEMO_STATS.misses)


def clear_schedule_memo() -> None:
    _TABLES.clear()
    _MEMO_STATS.hits = 0
    _MEMO_STATS.misses = 0


def _issue_cycles(
    instrs: Sequence[Instr], cfg: MachineConfig, initial_ready: Optional[Dict[str, int]] = None
) -> List[int]:
    """Issue cycle of each instruction, by the rules of
    :func:`~repro.machine.pipeline.schedule`: RAW readiness, one issue
    per pipe per cycle, in-order issue.  A ``PIPE_ANY`` op takes the
    pipe that issues it soonest; ties go to P0.
    """
    latency, pipes = cfg.latencies, cfg.pipes
    ready = dict(initial_ready or {})
    get = ready.get
    cycle, p0, p1 = 0, -1, -1
    out: List[int] = []
    try:
        for ins in instrs:
            t = cycle
            for src in ins.srcs:
                r = get(src, 0)
                if r > t:
                    t = r
            pipe = pipes[ins.op]
            # PIPE_ANY: P0 issues at max(t, p0 + 1), P1 at max(t, p1 + 1)
            if pipe == PIPE_P0 or (pipe != PIPE_P1 and (t > p0 or p0 <= p1)):
                if t <= p0:
                    t = p0 + 1
                p0 = t
            else:
                if t <= p1:
                    t = p1 + 1
                p1 = t
            cycle = t
            if ins.dst is not None:
                ready[ins.dst] = t + latency[ins.op]
            out.append(t)
    except KeyError as exc:
        raise PipelineError(f"unknown instruction class {exc.args[0]!r}") from None
    return out


def _derive_table(cfg: MachineConfig) -> Dict[KernelVariant, Row]:
    c_block = [f"c{i}_{j}" for i in range(BLOCK_VECS) for j in range(BLOCK_SCALARS)]
    # the last vmads are still in flight when the stores begin: the
    # accumulators are ready one full vmad latency in
    stores = [V.store_vector(c, "cp") for c in c_block]
    ready = {c: cfg.latencies["vmad"] for c in c_block}
    drain = _issue_cycles(stores, cfg, ready)[-1] + 1
    c_loads = [V.load_vector(c, "cp") for c in c_block]
    table: Dict[KernelVariant, Row] = {}
    for variant in ALL_VARIANTS:
        odd = _k_step_instrs(variant, "o", "e")
        body = _k_step_instrs(variant, "e", "o") + odd
        cycles = _issue_cycles(body * 5, cfg)
        k_step = int(round((cycles[-1] - cycles[3 * len(body) - 1]) / 2)) / 2.0
        # load the C block, then prime the first k-step's operands (the
        # loads of a step that prefetches into set "e")
        init = c_loads + [ins for ins in odd if ins.op != "vmad"]
        table[variant] = (k_step, _issue_cycles(init, cfg)[-1] + 1, drain)
    return table


def _row(variant: KernelVariant, config: Optional[MachineConfig]) -> Row:
    cfg = config or default_config()
    sig = config_signature(cfg)
    table = _TABLES.get(sig)
    if table is None:
        _MEMO_STATS.misses += 1
        table = _TABLES[sig] = _derive_table(cfg)
    else:
        _MEMO_STATS.hits += 1
    return table[variant]


def cycles_per_k_step(
    variant: KernelVariant, config: Optional[MachineConfig] = None
) -> float:
    """Steady-state cycles of one k-step of the inner loop: half the
    two-phase (rotated register) body's cost, as ``steady_state_cycles``
    measures it.  A hazard-free variant comes out at 16 cycles/step
    (one per vmad), matching Appendix 9."""
    return _row(variant, config)[0]


def block_init_cycles(
    variant: KernelVariant, config: Optional[MachineConfig] = None
) -> int:
    """Cycles to load the 16-vector C block and prime the first k-step's
    operands before the steady-state loop starts."""
    return _row(variant, config)[1]


def block_drain_cycles(
    variant: KernelVariant, config: Optional[MachineConfig] = None
) -> int:
    """Cycles to store the C block back to SPM after the last k-step,
    with the accumulators ready only one vmad latency in (the same for
    every variant)."""
    return _row(variant, config)[2]
