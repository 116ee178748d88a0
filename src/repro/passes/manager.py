"""PassManager: ordered pass execution with instrumentation + verification.

The manager is the single entry point every consumer shares (both
autotuners, the harness runner, library replay, the codegen executor):
it runs a named pass list in order, times each pass, verifies the
resulting IR, and charges the total wall time into the owning
:class:`~repro.engine.metrics.EngineMetrics` stage.  Node counts are
not taken while the passes run: each :class:`PassRun` in
:attr:`PassManager.last_trace` keeps its input and output kernels and
counts them when read.

Verification runs once per manager run, on the final kernel (its cost
is charged to ``metrics.passes["verify"]``).  As the passes run, the
manager records each pass's output kernel and the invariants held at
that point -- references only, since passes never mutate IR -- so a
failure can still be pinned to its source.

Failure semantics:

* a structural violation in the final kernel re-checks the recorded
  outputs in pipeline order and raises
  :class:`~repro.errors.PassVerificationError` naming the first pass
  whose output violates, with the violations checking after that pass
  would have found -- a malformed rewrite is reported at its source
  instead of corrupting downstream cost models or the executor;
* when a pass raises (including
  :class:`~repro.errors.IllegalCandidateError`), the outputs before it
  are re-checked the same way: a violating one raises
  :class:`~repro.errors.PassVerificationError` chained ``from`` the
  pass's exception, otherwise the exception propagates untouched (a
  pruned candidate is expected behaviour during enumeration, not a
  broken pipeline);
* a violation that a later pass repairs before the end of the run goes
  unreported: no consumer ever sees that IR.

``--dump-ir`` support lives here too: an :class:`IrDump` installed as
``TuneOptions.dump_ir`` (:mod:`repro.options`) makes the manager
render before/after snapshots of matching passes through
:func:`repro.ir.printer.pretty`.
"""

from __future__ import annotations

import sys
import time
from typing import IO, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import PassVerificationError
from ..ir.nodes import KernelNode
from ..ir.printer import pretty
from ..options import current
from .base import Pass, PassContext, PassRun
from .verifier import check_kernel


class IrDump:
    """Where and how much kernel IR ``--dump-ir`` prints.

    ``spec`` is ``"all"`` or a single pass name; ``limit`` caps how many
    manager *runs* get dumped (an autotuning sweep lowers thousands of
    candidates -- dumping the first couple shows the pipeline without
    drowning the terminal).  ``stream`` defaults to stderr so dumps
    never pollute result tables on stdout.
    """

    def __init__(
        self,
        spec: str,
        *,
        limit: int = 2,
        stream: Optional[IO[str]] = None,
    ) -> None:
        self.spec = spec
        self.limit = limit
        self.runs_dumped = 0
        self.stream = stream

    def matches(self, pass_name: str) -> bool:
        return self.spec == "all" or self.spec == pass_name

    def out(self) -> IO[str]:
        return self.stream if self.stream is not None else sys.stderr


#: one pass's output as recorded for verification: (pass name, kernel
#: after the pass, invariants established at that point)
_Output = Tuple[str, Optional[KernelNode], FrozenSet[str]]


class PassManager:
    """Run an ordered list of passes over one kernel.

    ``stage`` names the :class:`~repro.engine.metrics.EngineMetrics`
    stage ("lowering" or "optimization") charged with the run's total
    wall time; per-pass timings always land in ``metrics.passes`` and in
    :attr:`last_trace`.
    """

    def __init__(
        self,
        passes: Sequence[Pass],
        *,
        verify: bool = True,
        metrics=None,
        stage: Optional[str] = None,
    ) -> None:
        self.passes = list(passes)
        self.verify = verify
        self.metrics = metrics
        self.stage = stage
        self.last_trace: List[PassRun] = []

    def run(
        self, ctx: PassContext, kernel: Optional[KernelNode] = None
    ) -> KernelNode:
        self.last_trace = []
        dump = current().dump_ir
        # a run only spends dump budget if it contains a matching pass
        # (--dump-ir=prefetch must not be eaten by lowering-only runs)
        dumping = (
            dump is not None
            and dump.runs_dumped < dump.limit
            and any(dump.matches(p.name) for p in self.passes)
        )
        if dumping:
            assert dump is not None
            dump.runs_dumped += 1
        # each pass's output and the invariants held after it: references
        # only (passes never mutate IR), re-checked only on failure
        outputs: List[_Output] = []
        t_run = time.perf_counter()
        try:
            try:
                for p in self.passes:
                    kernel = self._run_one(p, ctx, kernel, dump if dumping else None)
                    if self.verify:
                        outputs.append((p.name, kernel, frozenset(ctx.established)))
            except Exception as exc:
                if self.verify:
                    self._verify(ctx, outputs, cause=exc)
                raise
            if kernel is None:
                raise PassVerificationError(
                    self.passes[-1].name if self.passes else "<empty>",
                    ["pipeline produced no kernel IR"],
                )
            if outputs:
                self._verify(ctx, outputs)
        finally:
            if self.metrics is not None and self.stage is not None:
                stage = getattr(self.metrics, self.stage)
                stage.add(time.perf_counter() - t_run)
        return kernel

    def _run_one(
        self,
        p: Pass,
        ctx: PassContext,
        kernel: Optional[KernelNode],
        dump: Optional[IrDump],
    ) -> Optional[KernelNode]:
        if dump is not None and dump.matches(p.name) and kernel is not None:
            print(
                f"// --- IR before pass {p.name!r} ---\n{pretty(kernel)}",
                file=dump.out(),
            )
        before = kernel
        t0 = time.perf_counter()
        # IllegalCandidateError propagates untouched: a pruned candidate
        # is expected during enumeration, not a pipeline defect.
        out = p.run(ctx, kernel)
        kernel = out if out is not None else kernel
        dt = time.perf_counter() - t0

        self.last_trace.append(PassRun(p.name, dt, before, kernel))
        if self.metrics is not None:
            self.metrics.record_pass(p.name, dt)
        ctx.established.update(p.establishes)

        if dump is not None and dump.matches(p.name) and kernel is not None:
            print(
                f"// --- IR after pass {p.name!r} ---\n{pretty(kernel)}",
                file=dump.out(),
            )
        return kernel

    def _verify(
        self,
        ctx: PassContext,
        outputs: List[_Output],
        cause: Optional[Exception] = None,
    ) -> None:
        """Verify a run's IR, charging the time to ``passes["verify"]``.

        Without ``cause`` only the final kernel is checked.  When that
        check fails, or a pass raised ``cause``, every recorded output
        is re-checked in pipeline order and the first violating pass is
        reported, with the violations checking after every pass would
        have found.  Returns normally if no output violates.
        """
        t0 = time.perf_counter()
        try:
            if cause is None:
                _, final, held = outputs[-1]
                assert final is not None
                if not self._check(ctx, final, held):
                    return
            for name, out, held in outputs:
                violations = [] if out is None else self._check(ctx, out, held)
                if violations:
                    raise PassVerificationError(name, violations) from cause
        finally:
            if self.metrics is not None:
                self.metrics.record_pass("verify", time.perf_counter() - t0)

    @staticmethod
    def _check(
        ctx: PassContext, kernel: KernelNode, held: FrozenSet[str]
    ) -> List[str]:
        return check_kernel(
            kernel, compute=ctx.compute, config=ctx.config, established=held
        )

    def describe(self) -> str:
        """Human-readable trace of the latest run."""
        if not self.last_trace:
            return "(no passes run)"
        return "\n".join(r.describe() for r in self.last_trace)
