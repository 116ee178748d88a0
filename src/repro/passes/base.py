"""The `Pass` interface: one named, composable IR transformation.

swATOP's optimizer (Sec. 4) is a sequence of IR transformations --
lowering stages, DMA inference and hoisting, automatic latency hiding,
memory planning.  Each of them is a :class:`Pass`: a named unit that
takes a :class:`PassContext` (everything that parameterizes the
pipeline: compute seed, schedule strategy, machine config, lowering
options) plus the current kernel IR, and returns the (possibly new)
kernel.  A :class:`~repro.passes.manager.PassManager` runs an ordered
list of passes with per-pass timing and verifies the resulting IR.

Passes come in three flavours:

* **lowering stages** run before any IR exists (the first stages
  receive ``kernel=None`` and the builder stage materialises the root
  :class:`~repro.ir.nodes.KernelNode`);
* **transform passes** rewrite the tree (DMA inference/hoisting,
  prefetch) and return the new root;
* **analysis passes** read the tree, record results in
  ``ctx.state``, and return ``None`` (keep the kernel unchanged).

``establishes`` names the invariants a pass guarantees from that point
of the pipeline on (e.g. ``"spm-plan"`` after memory planning,
``"dma-geometry"`` after DMA inference); the verifier only enforces an
invariant on a pass's output once that pass or an earlier one has
established it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..dsl.compute import ComputeDef
from ..dsl.schedule import ScheduleStrategy
from ..ir.nodes import KernelNode
from ..ir.visitors import count_nodes
from ..machine.config import MachineConfig, default_config
from ..primitives.registry import PrimitiveRegistry
from ..scheduler.lower import LoweringOptions

#: invariant keys the verifier understands (see passes.verifier)
SPM_PLANNED = "spm-plan"
DMA_GEOMETRY = "dma-geometry"


@dataclass
class PassContext:
    """Everything a pass may need besides the IR itself.

    ``state`` is the inter-stage scratchpad (decoded strategy, SPM
    plan, boundary analysis results); ``established`` accumulates the
    invariant keys of every pass run so far, gating what the verifier
    enforces.
    """

    compute: ComputeDef
    config: MachineConfig = field(default_factory=default_config)
    strategy: Optional[ScheduleStrategy] = None
    options: Optional[LoweringOptions] = None
    registry: Optional[PrimitiveRegistry] = None
    state: Dict[str, Any] = field(default_factory=dict)
    established: Set[str] = field(default_factory=set)


class Pass:
    """One named pipeline stage over kernel IR."""

    #: unique, human-readable stage name (used in metrics, diagnostics
    #: and ``--dump-ir=<name>`` filters).
    name: str = "pass"
    #: invariant keys this pass establishes (enforced by the verifier
    #: on the output of this pass and of every later one).
    establishes: Tuple[str, ...] = ()

    def run(
        self, ctx: PassContext, kernel: Optional[KernelNode]
    ) -> Optional[KernelNode]:
        """Transform ``kernel``; return the new root, or ``None`` to
        keep the input (analysis passes, pre-IR lowering stages)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class FunctionPass(Pass):
    """Adapt a plain ``(ctx, kernel) -> kernel|None`` callable."""

    def __init__(
        self,
        name: str,
        fn: Callable[[PassContext, Optional[KernelNode]], Optional[KernelNode]],
        *,
        establishes: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.fn = fn
        self.establishes = establishes

    def run(
        self, ctx: PassContext, kernel: Optional[KernelNode]
    ) -> Optional[KernelNode]:
        return self.fn(ctx, kernel)


@dataclass(frozen=True)
class PassRun:
    """Instrumentation record of one pass execution.

    Holds references to the pass's input and output kernels (passes
    never mutate IR, so these are the trees themselves, not copies);
    node counts are computed only when someone reads them.
    """

    name: str
    seconds: float
    before: Optional[KernelNode] = None
    after: Optional[KernelNode] = None

    @property
    def nodes_before(self) -> int:
        return count_nodes(self.before) if self.before is not None else 0

    @property
    def nodes_after(self) -> int:
        return count_nodes(self.after) if self.after is not None else 0

    @property
    def delta(self) -> int:
        """IR size change (node count) the pass caused."""
        return self.nodes_after - self.nodes_before

    def describe(self) -> str:
        before, after = self.nodes_before, self.nodes_after
        delta = after - before
        sign = "+" if delta >= 0 else ""
        return (
            f"{self.name}: {self.seconds * 1e3:.2f}ms "
            f"{before}->{after} nodes ({sign}{delta})"
        )
