"""Assembly-kernel emission for the eight GEMM micro-kernels.

The paper's appendix: "We have adopted a template-based method to
generate eight different optimized assembly kernels."  This module is
that template: it renders each :class:`KernelVariant`'s software-
pipelined inner loop as SW26010 assembly text, annotated with the issue
slot (cycle, pipeline) each instruction gets from the dual-issue
scheduler -- the artifact a kernel engineer would inspect to confirm
the 16-vmad/16-cycle steady state.

The emitted text is genuine output of the same
:func:`repro.machine.pipeline.schedule` model that prices the kernels,
so the listing and the cost model cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..machine.config import MachineConfig, default_config
from ..machine.pipeline import Instr, IssueRecord, schedule
from .microkernel import (
    ALL_VARIANTS,
    BLOCK_SCALARS,
    BLOCK_VECS,
    KernelVariant,
    _k_step_instrs,
    cycles_per_k_step,
)

#: abstract ops -> SW-flavoured mnemonics
_MNEMONIC = {
    "vmad": "vmad",
    "vldd": "vldd",
    "vstd": "vstd",
    "vlddr": "vlddr",
    "vlddc": "vlddc",
    "vldder": "vldder",
    "vlddec": "vlddec",
    "ldd": "ldd",
    "std": "std",
    "iop": "addl",
    "getr": "getr",
    "getc": "getc",
    "putr": "putr",
    "putc": "putc",
}


def _operand(instr: Instr) -> str:
    parts = []
    if instr.dst is not None:
        parts.append(f"${instr.dst}")
    parts.extend(f"${s}" for s in instr.srcs if s != instr.dst)
    return ", ".join(parts)


def emit_inner_loop(
    variant: KernelVariant,
    config: Optional[MachineConfig] = None,
) -> str:
    """Render one steady-state iteration pair (the two-phase rotated-
    register body) of a variant's inner loop as annotated assembly."""
    cfg = config or default_config()
    body = _k_step_instrs(variant, "e", "o") + _k_step_instrs(variant, "o", "e")
    result = schedule(body, cfg)
    per_k = cycles_per_k_step(variant, cfg)

    lines: List[str] = []
    lines.append(f"/* spm_gemm_{variant.name}: software-pipelined inner loop")
    lines.append(f" * A {variant.a_layout}, B {variant.b_layout}, "
                 f"vectorized along {variant.vec_dim}")
    lines.append(f" * register blocking: {BLOCK_VECS} vectors x "
                 f"{BLOCK_SCALARS} scalars of C")
    lines.append(f" * steady state: {per_k:.1f} cycles per k-step "
                 f"({result.cycles} cycles / 2 steps, "
                 f"{result.stalls()} bubbles) */")
    lines.append(f".Lk_loop_{variant.name}:")
    by_cycle: Dict[int, List[IssueRecord]] = {}
    for rec in result.records:
        by_cycle.setdefault(rec.cycle, []).append(rec)
    for cycle in sorted(by_cycle):
        for rec in by_cycle[cycle]:
            mnem = _MNEMONIC.get(rec.instr.op, rec.instr.op)
            text = f"        {mnem:8s}{_operand(rec.instr)}"
            lines.append(f"{text:52s}# c{cycle:<4d}{rec.pipe.upper()}")
    lines.append(f"        bne     $kcnt, .Lk_loop_{variant.name}")
    return "\n".join(lines) + "\n"


def emit_all_kernels(config: Optional[MachineConfig] = None) -> str:
    """The full eight-kernel template expansion, one listing each."""
    cfg = config or default_config()
    parts = [
        "/* swATOP-repro: template-generated GEMM micro-kernels "
        "(Appendix 9). */",
        "",
    ]
    for variant in ALL_VARIANTS:
        parts.append(emit_inner_loop(variant, cfg))
    return "\n".join(parts)

