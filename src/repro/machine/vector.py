"""SW26010 vector ISA helpers.

The SW instruction set extensions the swATOP kernels rely on
(Appendix 9) are modelled as *instruction builders* producing
:class:`~.pipeline.Instr` sequences for the pipeline scheduler
(timing); the executor computes their results with NumPy.

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

from ..errors import PipelineError
from .pipeline import Instr


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

