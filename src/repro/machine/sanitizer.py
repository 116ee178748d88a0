"""Machine sanitizer: shadow-state checking of functional execution.

Real SW26010 kernels fail in ways a timing simulator happily ignores: a
DMA descriptor that runs past its SPM buffer silently corrupts the
neighbouring buffer, a compute phase that touches the tile a prefetch
is still streaming into reads half-old data.  The sanitizer mirrors
ASan/TSan practice for this simulated machine: it keeps *shadow state*
beside the real functional state -- per-phase written-byte masks for
every SPM buffer, the set of (buffer, phase) pairs with an in-flight
DMA and the main-memory window each tensor is bound to -- and raises a
structured :class:`~repro.errors.SanitizerError` naming the IR node,
the buffer and the byte range the moment an access violates them.

The sanitizer is strictly opt-in (``TuneOptions.sanitize`` from
:mod:`repro.options`, set by ``REPRO_SANITIZE=1`` in the environment
or ``--sanitize`` on the CLI, or ``sanitize=True`` on
:class:`~repro.codegen.executor.CompiledKernel`); when disabled the
executor holds a single ``None`` and pays one identity check per hook
site, so the timing path is untouched.

Checks (the ``check`` field of every :class:`SanitizerError`):

``spm-oob``
    a DMA tile or GEMM view larger than its SPM allocation; the error
    names the neighbouring buffer the overflow would corrupt.
``mem-oob``
    DMA geometry escaping the main-memory window its tensor is bound
    to, reported as an absolute byte range.
``uninit-read``
    a DMA-out or GEMM operand read of an SPM region no DMA, zero or
    GEMM ever wrote (conservatively: only regions *entirely* unwritten
    are flagged, so partially-written boundary tiles never false-positive).
``phase-race``
    compute or a synchronous DMA touching the (buffer, phase) a
    pipelined loop currently has a DMA in flight on.
``timing-mismatch``
    the data-free timing path
    (:meth:`~repro.codegen.executor.CompiledKernel.time_only`) reporting
    differently from the functional run it replaces.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import SanitizerError

#: file every sanitizer failure is appended to (a CI artifact), if set
ENV_REPORT = "REPRO_SANITIZE_REPORT"


def _report(error: SanitizerError) -> None:
    """Append the failure to the report file (CI artifact), if bound."""
    path = os.environ.get(ENV_REPORT, "").strip()
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{error.check}\t{error}\n")
    except OSError:
        pass  # reporting must never mask the error itself


def fail(
    check: str,
    message: str,
    *,
    node: str = "",
    buffer: str = "",
    byte_range: Optional[Tuple[int, int]] = None,
) -> None:
    """Raise (and report) a structured sanitizer failure."""
    err = SanitizerError(
        check, message, node=node, buffer=buffer, byte_range=byte_range
    )
    _report(err)
    raise err


def describe_node(node) -> str:
    """Stable one-line description of an IR node for error messages."""
    from ..ir.nodes import DmaCgNode, GemmOpNode, ZeroSpmNode
    from .dma import MEM_TO_SPM

    if isinstance(node, DmaCgNode):
        if node.direction == MEM_TO_SPM:
            return f"dma[{node.access.buffer}->spm:{node.spm}]"
        return f"dma[spm:{node.spm}->{node.access.buffer}]"
    if isinstance(node, GemmOpNode):
        return (
            f"gemm[{node.a_spm},{node.b_spm}->{node.c_spm} "
            f"m={node.m} n={node.n} k={node.k}]"
        )
    if isinstance(node, ZeroSpmNode):
        return f"zero[{node.spm}]"
    return type(node).__name__


class MachineSanitizer:
    """Shadow state for one :class:`CompiledKernel` run.

    Built by the executor only when sanitizing is resolved on; every
    executor hook is guarded by ``if self.san is not None`` so the
    disabled path costs nothing.
    """

    def __init__(self, kernel, config, spm_plan, storage_shapes) -> None:
        self.kernel = kernel
        self.config = config
        self.plan = spm_plan
        self.storage_shapes = storage_shapes
        self.checks = 0
        # main-memory windows: tensor -> (base byte addr, byte length)
        self._windows: Dict[str, Tuple[int, int]] = {}
        # shadow written masks per (buffer, phase)
        self._written: Dict[Tuple[str, int], np.ndarray] = {}
        self._phases: Dict[str, int] = {}
        self._dma_in_targets: set = set()
        # (buffer, phase) -> (iteration, issuing-node description)
        self._inflight: Dict[Tuple[str, int], Tuple[int, str]] = {}
        for alloc in kernel.allocs:
            n = 2 if alloc.double_buffered else 1
            self._phases[alloc.name] = n
            for p in range(n):
                self._written[(alloc.name, p)] = np.zeros(
                    alloc.shape, dtype=bool
                )

    # --- binding -----------------------------------------------------------
    def bind_window(self, name: str, addr: int, nbytes: int) -> None:
        self._windows[name] = (int(addr), int(nbytes))

    def set_dma_in_targets(self, targets) -> None:
        self._dma_in_targets = set(targets)

    def _phase(self, name: str, phase: int) -> int:
        return phase % self._phases.get(name, 1)

    # --- in-flight tracking (pipelined loops) ------------------------------
    def mark_inflight(self, spm: str, phase: int, iteration: int, node) -> None:
        self._inflight[(spm, self._phase(spm, phase))] = (
            iteration,
            describe_node(node),
        )

    def complete_iteration(self, iteration: int) -> None:
        self._inflight = {
            key: val
            for key, val in self._inflight.items()
            if val[0] != iteration
        }

    def _check_race(self, name: str, phase: int, kind: str, node) -> None:
        hit = self._inflight.get((name, self._phase(name, phase)))
        if hit is not None:
            iteration, issuer = hit
            fail(
                "phase-race",
                f"{kind} touches SPM buffer {name!r} phase "
                f"{self._phase(name, phase)} while {issuer} issued at "
                f"iteration {iteration} is still in flight",
                node=describe_node(node),
                buffer=name,
            )

    # --- the DMA checks ----------------------------------------------------
    def _check_spm_capacity(self, node, name: str) -> None:
        alloc = self.kernel.alloc(name)
        lengths = node.access.lengths
        for d, (length, cap) in enumerate(zip(lengths, alloc.shape)):
            if length <= cap:
                continue
            # quantify the per-CPE overflow and name the victim buffer
            from .spm import tile_bytes_per_cpe

            need = tile_bytes_per_cpe(
                int(np.prod(lengths, dtype=np.int64)),
                self.config,
                distributed=alloc.distributed,
            )
            planned = self.plan.buffers.get(name)
            detail = f"tile dim {d} has extent {length} > allocated {cap}"
            if planned is not None:
                excess = max(need - planned.bytes_per_cpe, 1)
                end = planned.offset + planned.reserved_bytes
                victim = self.plan.buffer_at(end)
                where = (
                    f"; the overflow would corrupt SPM buffer {victim!r}"
                    if victim is not None
                    else "; the overflow runs past the planned SPM region"
                )
                fail(
                    "spm-oob",
                    f"DMA tile overflows SPM buffer {name!r}: {detail}{where}",
                    node=describe_node(node),
                    buffer=name,
                    byte_range=(end, end + excess),
                )
            fail(
                "spm-oob",
                f"DMA tile overflows SPM buffer {name!r}: {detail}",
                node=describe_node(node),
                buffer=name,
            )

    def _check_mem_window(
        self, node, offs: Sequence[int]
    ) -> None:
        tensor = node.access.buffer
        shape = self.storage_shapes[tensor]
        lengths = node.access.lengths
        window = self._windows.get(tensor)
        bad = any(
            off < 0 or off + length > extent
            for off, length, extent in zip(offs, lengths, shape)
        )
        if not bad:
            return
        # byte range the descriptor would actually span, in absolute
        # main-memory addresses (clamped only for reporting)
        strides = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        eb = self.config.dtype_bytes
        first = sum(o * s for o, s in zip(offs, strides))
        last = sum((o + l - 1) * s for o, l, s in zip(offs, lengths, strides))
        addr = window[0] if window is not None else 0
        span = f"[{first}, {last + 1}) of {int(np.prod(shape, dtype=np.int64))}"
        fail(
            "mem-oob",
            f"DMA geometry escapes tensor {tensor!r}: element range "
            f"{span} outside extents {tuple(shape)} "
            f"(offsets {tuple(offs)}, lengths {tuple(lengths)})",
            node=describe_node(node),
            buffer=tensor,
            byte_range=(addr + first * eb, addr + (last + 1) * eb),
        )

    def dma_in(self, node, offs: Sequence[int], phase: int) -> None:
        """Check a mem->SPM transfer, then shadow-mark the tile written."""
        self.checks += 1
        name = node.spm
        p = self._phase(name, phase)
        self._check_race(name, p, "synchronous DMA write", node)
        self._check_spm_capacity(node, name)
        self._check_mem_window(node, offs)
        # the move zeroes the tile then fills the region: whole tile is
        # defined afterwards
        self._written[(name, p)][...] = True

    def dma_out(self, node, offs: Sequence[int], phase: int) -> None:
        """Check an SPM->mem transfer (window, race, definedness)."""
        self.checks += 1
        name = node.spm
        p = self._phase(name, phase)
        self._check_race(name, p, "DMA read", node)
        self._check_spm_capacity(node, name)
        self._check_mem_window(node, offs)
        mask = self._written[(name, p)]
        region = tuple(slice(0, l) for l in node.access.lengths)
        sub = mask[region]
        if sub.size and not sub.any():
            eb = self.config.dtype_bytes
            elems = int(np.prod(node.access.lengths, dtype=np.int64))
            fail(
                "uninit-read",
                f"DMA reads SPM buffer {name!r} phase {p} but no DMA, "
                f"zero or GEMM ever wrote it",
                node=describe_node(node),
                buffer=name,
                byte_range=(0, elems * eb),
            )

    # --- compute checks ----------------------------------------------------
    def _check_read(self, node, name: str, lens, phase: int) -> None:
        p = self._phase(name, phase)
        self._check_race(name, p, "GEMM operand read", node)
        mask = self._written.get((name, p))
        if mask is None:
            return
        region = tuple(
            slice(0, min(l, cap)) for l, cap in zip(lens, mask.shape)
        )
        sub = mask[region]
        if sub.size and not sub.any():
            eb = self.config.dtype_bytes
            elems = int(np.prod([s.stop for s in region], dtype=np.int64))
            fail(
                "uninit-read",
                f"GEMM reads SPM buffer {name!r} phase {p} but no DMA, "
                f"zero or GEMM ever wrote it (unbound feed?)",
                node=describe_node(node),
                buffer=name,
                byte_range=(0, elems * eb),
            )

    def gemm(
        self, node, a_phase: int, b_phase: int, c_phase: int
    ) -> None:
        self.checks += 1
        self._check_read(node, node.a_spm, node.a_lens, a_phase)
        self._check_read(node, node.b_spm, node.b_lens, b_phase)
        cp = self._phase(node.c_spm, c_phase)
        self._check_race(node.c_spm, cp, "GEMM accumulator write", node)
        mask = self._written.get((node.c_spm, cp))
        if mask is not None:
            region = tuple(
                slice(0, min(l, cap))
                for l, cap in zip(node.c_lens, mask.shape)
            )
            mask[region] = True

    def zero(self, node, functional: bool) -> None:
        """A ZeroSpm node.  Only *functional* zeroes (accumulator
        buffers, never DMA-in targets) define bytes; the timing-only
        pad charge on streamed buffers touches nothing."""
        self.checks += 1
        if not functional:
            return
        for p in range(self._phases.get(node.spm, 1)):
            self._check_race(node.spm, p, "SPM zero", node)
            self._written[(node.spm, p)][...] = True

    def summary(self) -> str:
        return f"sanitizer: {self.checks} checks, 0 failures"


__all__ = [
    "MachineSanitizer",
    "describe_node",
    "fail",
    "ENV_REPORT",
]
