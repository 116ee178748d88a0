"""Machine description of the SW26010 many-core processor.

All architectural constants of the simulated target live here, in one
immutable dataclass, so that every layer (primitives, cost model,
executor) reads the *same* machine description.  The defaults reproduce
the SW26010 as described in Sec. 2 of the swATOP paper and in the
benchmarking literature it cites (Xu et al., IPDPSW'17):

* 4 core groups (CGs); each CG = 1 MPE + 8x8 CPE cluster + 1 memory
  controller, peak 3.06 TFLOPS chip-wide;
* 64 KB software-managed scratch pad memory (SPM) per CPE;
* DMA engine for main-memory <-> SPM transfers (~22.6 GB/s achieved);
  generated kernels move data by DMA only, so the slow global
  load/store path (1.48 GB/s) is not modelled;
* DRAM accessed in 128-byte transactions -- a transaction is paid in
  full even if one byte is touched (Sec. 4.6);
* 8x8 mesh register communication between CPEs (row/column broadcast);
* two in-order issue pipelines per CPE: P0 (floating point & vector)
  and P1 (memory); both issue scalar integer ops;
* 256-bit vectors = 4 x float32 lanes in our single-precision setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Mapping

#: Instruction classes understood by the dual-issue pipeline model.
#: "p0" = arithmetic pipe, "p1" = memory pipe, "any" = either pipe.
PIPE_P0 = "p0"
PIPE_P1 = "p1"
PIPE_ANY = "any"


def _default_latencies() -> Mapping[str, int]:
    """Result latency (cycles until a dependent instruction may issue).

    The values follow the SW26010 micro-architecture descriptions used
    by swDNN/xMath: fused vector multiply-add has a long (7-cycle)
    latency, which is exactly why the 4x4 register-blocking scheme is
    needed to keep the pipe hazard-free (Appendix 9).
    """
    return {
        "vmad": 7,    # 256-bit fused multiply-accumulate
        "vadd": 4,
        "vmul": 4,
        "vldd": 4,    # vector load from SPM
        "vstd": 1,    # store: result "ready" immediately for issue purposes
        "vlddr": 5,   # vector load + row broadcast (register comm)
        "vlddc": 5,   # vector load + column broadcast
        "vldder": 6,  # scalar load + extend + row broadcast
        "vlddec": 6,  # scalar load + extend + column broadcast
        "ldd": 3,     # scalar load from SPM
        "std": 1,
        "iop": 1,     # scalar integer op (address arithmetic, branches)
        "getr": 4,    # receive from row bus
        "getc": 4,    # receive from column bus
        "putr": 1,    # send to row bus
        "putc": 1,
    }


def _default_pipes() -> Mapping[str, str]:
    """Which pipeline each instruction class issues on."""
    return {
        "vmad": PIPE_P0,
        "vadd": PIPE_P0,
        "vmul": PIPE_P0,
        "vldd": PIPE_P1,
        "vstd": PIPE_P1,
        "vlddr": PIPE_P1,
        "vlddc": PIPE_P1,
        "vldder": PIPE_P1,
        "vlddec": PIPE_P1,
        "ldd": PIPE_P1,
        "std": PIPE_P1,
        "iop": PIPE_ANY,
        "getr": PIPE_P1,
        "getc": PIPE_P1,
        "putr": PIPE_P1,
        "putc": PIPE_P1,
    }


@dataclass(frozen=True)
class MachineConfig:
    """Immutable architectural description of the simulated SW26010."""

    # --- topology -----------------------------------------------------
    num_cgs: int = 4
    cluster_rows: int = 8
    cluster_cols: int = 8

    # --- clocks & compute ---------------------------------------------
    clock_hz: float = 1.5e9
    #: float32 lanes in a 256-bit vector register.
    vector_lanes: int = 4
    #: vmad = mul+add on `vector_lanes` lanes.
    flops_per_vmad: int = 8

    # --- memory hierarchy ----------------------------------------------
    spm_bytes: int = 64 * 1024
    #: per-CG theoretical peak DRAM bandwidth (chip: 4 x 34 = 136 GB/s).
    dram_peak_bw: float = 34.0e9
    #: DRAM transaction granularity: a touched transaction is paid in full.
    dram_transaction_bytes: int = 128
    #: fixed DMA start-up overhead per descriptor batch, in cycles.
    dma_latency_cycles: int = 1650
    #: per-descriptor issue overhead on the CPE side, in cycles.
    dma_issue_cycles: int = 25
    #: alignment of main-memory allocations, bytes.
    mem_align: int = 128

    # --- register communication -----------------------------------------
    #: cycles lost when the communication pattern (row<->col, producer
    #: set) changes between two bursts (Sec. 4.6: "latency to switch
    #: register communication pattern").
    regcomm_switch_cycles: int = 12

    # --- kernel-call overheads (structural constants of the hand-written
    # --- assembly kernels; see primitives.gemm_kernel) -------------------
    kernel_call_cycles: int = 420
    loop_overhead_cycles: int = 9

    # --- dtype ----------------------------------------------------------
    dtype_bytes: int = 4  # float32

    # --- pipeline model ---------------------------------------------------
    # (excluded from equality/hash so configs stay usable as cache keys;
    # the tables are only ever replaced wholesale in tests)
    latencies: Mapping[str, int] = field(
        default_factory=_default_latencies, compare=False
    )
    pipes: Mapping[str, str] = field(default_factory=_default_pipes, compare=False)

    # ------------------------------------------------------------------
    @property
    def cpes_per_cg(self) -> int:
        return self.cluster_rows * self.cluster_cols

    @property
    def vector_bytes(self) -> int:
        return self.vector_lanes * self.dtype_bytes

    @property
    def cg_peak_flops(self) -> float:
        """Peak single-precision FLOP/s of one core group."""
        return self.cpes_per_cg * self.flops_per_vmad * self.clock_hz

    @property
    def chip_peak_flops(self) -> float:
        return self.num_cgs * self.cg_peak_flops

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Per-CG DRAM bandwidth expressed in bytes per CPE-clock cycle."""
        return self.dram_peak_bw / self.clock_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        return seconds * self.clock_hz

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced (for what-if
        studies and tests)."""
        return replace(self, **kwargs)


def config_signature(config: MachineConfig) -> tuple:
    """Full hashable identity of a machine description.

    Dataclass equality/hash deliberately exclude the ``latencies`` and
    ``pipes`` tables (so configs stay cheap dict keys), which makes the
    *config object itself* unsafe as a cache key: two configs differing
    only in a latency table hash alike and silently share cached cost
    results.  Every cache whose value depends on instruction timing
    (micro-kernel schedules, Eq. (2) calibration fits, evaluation
    memos) must key on this signature instead.

    The tuple is built once per instance and stored on it: the config
    is frozen and its tables are only ever replaced wholesale (through
    :meth:`MachineConfig.with_overrides`, which makes a new instance),
    so the stored signature cannot go stale.  It travels with the
    instance through pickling.
    """
    cached = config.__dict__.get("_signature")
    if cached is not None:
        return cached
    sig = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Mapping):
            sig.append((f.name, tuple(sorted(value.items()))))
        else:
            sig.append((f.name, value))
    cached = tuple(sig)
    object.__setattr__(config, "_signature", cached)
    return cached


#: The default machine description used throughout the library.
SW26010 = MachineConfig()


def default_config() -> MachineConfig:
    """Return the canonical SW26010 machine description."""
    return SW26010
