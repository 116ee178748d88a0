"""Per-layer ledger built from outside the program.

The benchmark does not ask the program for its own stage timers: it
wraps the functions at each layer boundary of the ``repro`` package
(bounds, lowering and optimizer pass managers, IR verification, the
cost model, kernel compilation and simulation, DMA and micro-kernel
costing, the library and runner entry points) with a recorder that
keeps a stack of open spans.  A layer's *self* time is its spans'
duration minus the part covered by spans of other layers opened inside
them, so the buckets add up to the traced wall time with nothing
counted twice; time inside an operation that no hook covers lands in
the benchmark's own ``op`` span and is reported as unattributed.

Hooks are installed only for ``--trace 1`` runs and removed afterwards,
so the end-to-end figures of ``--trace 0`` runs carry no overhead.
Coarse layers are also kept as spans and written out as a Chrome trace
(``chrome://tracing`` / Perfetto); the hot, fine-grained layers are
aggregated only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

#: spans kept for the Chrome trace; the aggregates have no limit
MAX_SPANS = 200_000

#: layers too hot to keep as individual spans
AGGREGATE_ONLY = {
    "bounds", "verify", "count_nodes", "dma_cost", "ukernel",
    "functional", "config_sig", "memo",
}

Layer = Union[str, Callable[..., str]]


def _pass_stage(manager, *_args) -> str:
    return "lower" if manager.stage == "lowering" else "optimize"


#: (module, attribute, layer).  ``attribute`` is a function name or
#: ``Class.method``; ``layer`` is a name or a function of the call's
#: positional arguments.
HOOKS: List[Tuple[str, str, Layer]] = [
    ("repro.engine.search", "search_candidates", "search"),
    ("repro.engine.bounds", "strategy_bound", "bounds"),
    ("repro.engine.bounds", "definitely_infeasible", "bounds"),
    ("repro.passes.manager", "PassManager.run", _pass_stage),
    ("repro.ir.visitors", "count_nodes", "count_nodes"),
    ("repro.passes.verifier", "check_kernel", "verify"),
    ("repro.autotuner.cost_model", "predict_kernel", "predict"),
    ("repro.engine.evaluators", "MemoizingEvaluator.lookup", "memo"),
    ("repro.engine.evaluators", "MemoizingEvaluator.remember", "memo"),
    ("repro.engine.validate", "validate_candidate", "validate"),
    ("repro.codegen.executor", "CompiledKernel.__init__", "compile"),
    ("repro.codegen.executor", "CompiledKernel.run", "execute"),
    ("repro.codegen.executor", "_ExecState._dma_cost", "dma_cost"),
    ("repro.codegen.executor", "_ExecState._bind_tensors", "functional"),
    ("repro.codegen.executor", "_ExecState._dma_move_in", "functional"),
    ("repro.codegen.executor", "_ExecState._dma_move_out", "functional"),
    ("repro.codegen.executor", "_ExecState._exec_gemm", "functional"),
    ("repro.codegen.executor", "_ExecState.collect_outputs", "functional"),
    ("repro.primitives.gemm_kernel", "kernel_cycles", "ukernel"),
    ("repro.machine.config", "config_signature", "config_sig"),
    ("repro.runtime.library", "AtopLibrary.conv2d", "library"),
    ("repro.runtime.library", "AtopLibrary.gemm", "library"),
    ("repro.harness.runner", "run_gemm", "runner"),
    ("repro.harness.runner", "run_conv_implicit", "runner"),
    ("repro.harness.runner", "run_conv_explicit", "runner"),
    ("repro.harness.runner", "run_conv_winograd", "runner"),
    ("repro.harness.runner", "run_conv_strided", "runner"),
]

#: every layer the ledger reports, in report order
LAYERS = sorted({h[2] for h in HOOKS if isinstance(h[2], str)}
                | {"lower", "optimize"})


class Ledger:
    """Span stack plus per-layer self-time and call aggregates."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, float, float, str]] = []
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # --- recording ---------------------------------------------------------
    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        layer, start, child = self._stack.pop()
        duration = end - start
        self.self_seconds[layer] += duration - child
        self.calls[layer] += 1
        parent = ""
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        if layer not in AGGREGATE_ONLY and len(self.spans) < MAX_SPANS:
            self.spans.append((layer, start, end, parent))

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        layer_of = layer if callable(layer) else (lambda *_: layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # calls outside an operation (the benchmark's own checks)
            # belong to no operation and go unrecorded
            if not stack:
                return fn(*args, **kwargs)
            self.enter(layer_of(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    # --- hooks -------------------------------------------------------------
    def install(self) -> List[str]:
        """Wrap every hook target; returns the targets that were missing."""
        missing = []
        for module_name, attr, layer in HOOKS:
            try:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                else:
                    owner, meth = None, attr
                    original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, layer)
            if owner is not None:
                setattr(owner, meth, wrapped)
                self._undo.append(
                    lambda o=owner, m=meth, f=original: setattr(o, m, f)
                )
            else:
                self._rebind(original, wrapped)
        return missing

    def _rebind(self, original: Callable, wrapped: Callable) -> None:
        """Replace a function in every ``repro`` module (and module-level
        dispatch dict) that binds it, so ``from x import f`` call sites
        and tables such as the runner's method table are traced too."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr, f=original: setattr(m, a, f)
                    )
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapped
                            self._undo.append(
                                lambda d=value, k=key, f=original:
                                d.__setitem__(k, f)
                            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --- output ------------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        """Kept spans as Chrome trace complete events (microseconds)."""
        if not self.spans:
            return
        t0 = min(s[1] for s in self.spans)
        events = [
            {
                "name": layer, "cat": "layer", "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": parent},
            }
            for layer, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
