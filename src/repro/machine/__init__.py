"""Simulated SW26010 many-core processor (the substrate).

The hardware the paper measures on is inaccessible; this subpackage is
the deterministic, transaction- and pipeline-accurate stand-in (see
DESIGN.md Sec. 1 for the substitution argument): the machine
parameters, address-accurate main memory, the DMA arithmetic both the
simulator and the cost model charge, SPM planning, the dual-issue
pipeline scheduler, the vector ISA, the sanitizer and the trace.  The
executor (:mod:`repro.codegen.executor`) drives it one core group at a
time.
"""

from .config import SW26010, MachineConfig, default_config
from .dma import MEM_TO_SPM, SPM_TO_MEM
from .memory import Buffer, MainMemory, transaction_bytes
from .pipeline import Instr, ScheduleResult, schedule, steady_state_cycles
from .sanitizer import MachineSanitizer
from .spm import SpmAllocator, SpmBuffer, SpmPlan, partition_extent, tile_bytes_per_cpe
from .trace import SimReport, Trace, TraceEvent
from .trace_export import render_timeline, to_chrome_trace

__all__ = [
    "SW26010",
    "MachineConfig",
    "default_config",
    "MainMemory",
    "Buffer",
    "transaction_bytes",
    "SpmAllocator",
    "SpmBuffer",
    "SpmPlan",
    "partition_extent",
    "tile_bytes_per_cpe",
    "Instr",
    "ScheduleResult",
    "schedule",
    "steady_state_cycles",
    "MachineSanitizer",
    "MEM_TO_SPM",
    "SPM_TO_MEM",
    "SimReport",
    "Trace",
    "TraceEvent",
    "to_chrome_trace",
    "render_timeline",
]
