"""Exception hierarchy for the swATOP reproduction.

Every layer of the stack raises a subclass of :class:`ReproError` so that
callers (tuners, harnesses) can distinguish "this candidate is illegal"
from genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class MachineError(ReproError):
    """Violation of a hardware constraint in the simulated SW26010."""


class SpmCapacityError(MachineError):
    """A kernel's scratch-pad plan exceeds the 64 KB per-CPE SPM."""


class MainMemoryError(MachineError):
    """Main-memory allocation or out-of-bounds access failure."""


class PipelineError(MachineError):
    """Malformed instruction sequence given to the pipeline scheduler."""


class DslError(ReproError):
    """Invalid DSL construction (bad axis, tensor, or schedule space)."""


class IrError(ReproError):
    """Structurally invalid IR or illegal IR mutation."""


class PassVerificationError(IrError):
    """The IR verifier found a structural invariant violated after a
    pass ran.

    ``pass_name`` names the offending pass, ``violations`` lists every
    broken invariant the verifier saw -- a pass produced IR the rest of
    the pipeline cannot trust, which is a bug in the pass (or in a
    hand-built kernel), never a prunable candidate condition.
    """

    def __init__(self, pass_name: str, violations):
        self.pass_name = pass_name
        self.violations = list(violations)
        detail = "; ".join(self.violations)
        super().__init__(
            f"IR verifier failed after pass {pass_name!r}: {detail}"
        )


class ScheduleError(ReproError):
    """A schedule strategy is invalid for the given compute seed."""


class IllegalCandidateError(ScheduleError):
    """Candidate violates a primitive legality rule or SPM capacity.

    The scheduler raises (and the enumerator catches) this to prune the
    schedule space, mirroring swATOP's validity filtering.
    """


class LoweringError(ReproError):
    """Failure while lowering a schedule strategy to IR."""


class CodegenError(ReproError):
    """Failure while emitting C code or building an executable kernel."""


class SanitizerError(MachineError, CodegenError):
    """The machine sanitizer caught an unsafe access during execution.

    Raised only when sanitizing is enabled (``REPRO_SANITIZE=1``,
    ``--sanitize`` or an explicit ``sanitize=True``); the same program
    without the sanitizer would silently corrupt simulated machine
    state.  Structured fields name the failed ``check`` (``spm-oob``,
    ``mem-oob``, ``uninit-read``, ``phase-race``,
    ``timing-mismatch``), the IR ``node``, the ``buffer`` involved,
    and -- where meaningful -- the offending ``byte_range``.

    Also a :class:`CodegenError`: sanitizer failures happen while
    executing a compiled kernel, so callers that already treat
    CodegenError as "this kernel is bad" (tuner supervision, executor
    tests) keep working with the sanitizer switched on.
    """

    def __init__(
        self,
        check: str,
        message: str,
        *,
        node: str = "",
        buffer: str = "",
        byte_range=None,
    ) -> None:
        self.check = str(check)
        self.node = str(node)
        self.buffer = str(buffer)
        self.byte_range = tuple(byte_range) if byte_range is not None else None
        parts = [f"[{self.check}] {message}"]
        if self.node:
            parts.append(f"node={self.node}")
        if self.buffer:
            parts.append(f"buffer={self.buffer!r}")
        if self.byte_range is not None:
            lo, hi = self.byte_range
            parts.append(f"bytes=[{lo}, {hi})")
        super().__init__(" ".join(parts))


class ValidationError(ReproError):
    """Differential validation found the kernel's output wrong.

    The lowered kernel ran to completion but its output disagrees with
    the NumPy reference beyond the dtype-aware tolerance -- the kernel
    computes the wrong numbers and must never be served from a cache.
    """

    def __init__(
        self,
        message: str,
        *,
        op: str = "",
        tensor: str = "",
        mismatches: int = 0,
        max_abs_err: float = 0.0,
        tolerance: float = 0.0,
    ) -> None:
        self.op = str(op)
        self.tensor = str(tensor)
        self.mismatches = int(mismatches)
        self.max_abs_err = float(max_abs_err)
        self.tolerance = float(tolerance)
        parts = [message]
        if self.op:
            parts.append(f"op={self.op}")
        if self.tensor:
            parts.append(f"tensor={self.tensor!r}")
        if self.mismatches:
            parts.append(
                f"mismatches={self.mismatches} "
                f"max_abs_err={self.max_abs_err:.3g} "
                f"tol={self.tolerance:.3g}"
            )
        super().__init__(" ".join(parts))


class TuningError(ReproError):
    """Autotuner failure (e.g. empty schedule space after pruning)."""


class CalibrationError(ReproError):
    """Cost-model calibration failed (singular fit, missing samples)."""


class WorkloadError(ReproError):
    """Unknown network/layer or invalid sweep specification."""
