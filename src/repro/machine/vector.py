"""SW26010 vector ISA helpers.

The SW instruction set extensions the swATOP kernels rely on
(Appendix 9) are modelled as two things:

* *instruction builders* producing :class:`~.pipeline.Instr` sequences
  for the pipeline scheduler (timing), and
* *functional* NumPy equivalents (semantics), used in tests to check
  that the modelled instructions compute what their names promise.

Two load flavours matter for kernel-variant selection:

* ``vlddr``/``vlddc`` -- load **four contiguous** floats from SPM as one
  vector and broadcast it along the row/column bus.  Requires the
  accessed dimension to be contiguous (leading) in the SPM layout.
* ``vldder``/``vlddec`` -- load **one** float, extend it into a vector of
  four copies, and broadcast.  Works for any layout but moves 4x less
  payload per issue slot, so layouts that force it lose throughput.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import PipelineError
from .pipeline import Instr

VECTOR_LANES = 4


# --------------------------------------------------------------------------
# instruction builders
# --------------------------------------------------------------------------
def load_vector(dst: str, src_ptr: str) -> Instr:
    """Plain vector load from SPM (``vldd``)."""
    return Instr.make("vldd", dst, src_ptr)


def store_vector(src: str, dst_ptr: str) -> Instr:
    """Vector store to SPM (``vstd``)."""
    return Instr.make("vstd", None, src, dst_ptr)


def load_bcast_vector(dst: str, src_ptr: str, axis: str) -> Instr:
    """``vlddr``/``vlddc``: contiguous 4-float load + row/col broadcast."""
    if axis == "row":
        return Instr.make("vlddr", dst, src_ptr)
    if axis == "col":
        return Instr.make("vlddc", dst, src_ptr)
    raise PipelineError(f"broadcast axis must be 'row' or 'col', got {axis!r}")


def load_bcast_scalar(dst: str, src_ptr: str, axis: str) -> Instr:
    """``vldder``/``vlddec``: single-float load + extend + broadcast."""
    if axis == "row":
        return Instr.make("vldder", dst, src_ptr)
    if axis == "col":
        return Instr.make("vlddec", dst, src_ptr)
    raise PipelineError(f"broadcast axis must be 'row' or 'col', got {axis!r}")


def vmad(acc: str, a: str, b: str) -> Instr:
    """Fused vector multiply-add: ``acc += a * b`` (reads acc too)."""
    return Instr.make("vmad", acc, a, b, acc)


def loop_control(counter: str) -> List[Instr]:
    """Decrement-and-branch pair closing a loop."""
    return [Instr.make("iop", counter, counter), Instr.make("iop", None, counter)]


# --------------------------------------------------------------------------
# functional semantics (for tests)
# --------------------------------------------------------------------------
def f_vmad(acc: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Functional ``vmad``: elementwise fused multiply-add on 4 lanes."""
    acc = np.asarray(acc, dtype=np.float32)
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    for v in (acc, a, b):
        if v.shape != (VECTOR_LANES,):
            raise PipelineError(f"vmad operand shape {v.shape} != ({VECTOR_LANES},)")
    return acc + a * b


def f_extend(x: float) -> np.ndarray:
    """Functional scalar extend: one float replicated over 4 lanes."""
    return np.full(VECTOR_LANES, np.float32(x), dtype=np.float32)


def f_load_vector(spm: np.ndarray, offset: int) -> np.ndarray:
    """Functional contiguous 4-float load from a flat SPM array."""
    if offset < 0 or offset + VECTOR_LANES > spm.size:
        raise PipelineError(
            f"vector load [{offset}, {offset + VECTOR_LANES}) outside SPM "
            f"of {spm.size} elements"
        )
    return np.asarray(spm[offset : offset + VECTOR_LANES], dtype=np.float32).copy()


def vectorizable(extent: int, lanes: int = VECTOR_LANES) -> bool:
    """Whether a dimension of the given extent can be fully vectorized
    without boundary handling."""
    return extent % lanes == 0


def vector_chunks(extent: int, lanes: int = VECTOR_LANES) -> int:
    """Number of vector registers needed to cover ``extent`` elements
    (boundary chunk included)."""
    return -(-extent // lanes)
