"""Whole-network forward passes through the tuned operator library.

The swCaffe-style integration the paper targets: run every conv layer
of a CNN through :class:`~repro.runtime.library.AtopLibrary`,
accumulating exact activations and simulated per-layer timing.  Layers
no tensorized method serves (strided convs, tiny channel counts for
implicit-only nets) fall back to the *unported* path: functionally the
direct reference, timed as MPE-side execution -- the slow path whose
existence motivates operator porting in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..machine.config import MachineConfig, default_config
from ..machine.trace import SimReport
from ..ops import applicable_methods, conv2d_reference
from ..ops.conv_common import ConvParams
from ..workloads.networks import LayerSpec, network
from .library import AtopLibrary, mpe_fallback_report

#: layer methods that mean "the tuned kernel did not serve this layer":
#: never-ported layers (``mpe-fallback``) and layers whose cached
#: kernel was quarantined at use time (``validation-fallback``).
FALLBACK_METHODS = ("mpe-fallback", "validation-fallback")


@dataclass
class LayerResult:
    spec: LayerSpec
    params: ConvParams
    method: str            # tensorized method or "mpe-fallback"
    report: SimReport

    @property
    def cycles(self) -> float:
        return self.report.cycles


@dataclass
class NetworkResult:
    name: str
    batch: int
    layers: List[LayerResult]

    @property
    def total_cycles(self) -> float:
        return sum(l.cycles for l in self.layers)

    @property
    def total_seconds(self) -> float:
        return sum(l.report.seconds for l in self.layers)

    @property
    def fallback_layers(self) -> int:
        """How many layers the tuned library did not serve (unported
        or quarantined)."""
        return sum(1 for l in self.layers if l.method in FALLBACK_METHODS)

    def fallback_fraction(self) -> float:
        """Cycle-weighted share of the forward pass spent on fallback
        paths -- unported layers *and* layers whose cached kernel was
        quarantined by the sanitizer / differential validation."""
        fb = sum(l.cycles for l in self.layers if l.method in FALLBACK_METHODS)
        return fb / self.total_cycles if self.total_cycles else 0.0

    def summary(self) -> str:
        lines = [
            f"{self.name} @ batch {self.batch}: "
            f"{self.total_cycles:,.0f} cycles "
            f"({self.total_seconds * 1e3:.2f} ms simulated)"
        ]
        for l in self.layers:
            lines.append(
                f"  {l.spec.name:12s} {l.method:12s} "
                f"{l.cycles:14,.0f} cycles  "
                f"({l.params.ni}->{l.params.no} @{l.params.ro})"
            )
        return "\n".join(lines)


def run_network(
    name: str,
    batch: int,
    *,
    library: Optional[AtopLibrary] = None,
    scale: int = 8,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    max_layers: Optional[int] = None,
) -> NetworkResult:
    """Forward all conv layers of a network through the library.

    Activations flow layer to layer where shapes chain (channel counts
    match the table); spatial pooling between stages is emulated by
    average-pooling to the next layer's expected input.  ``scale``
    shrinks spatial extents for the simulation budget.
    """
    cfg = config or default_config()
    lib = library or AtopLibrary(cfg)
    rng = np.random.default_rng(seed)
    layers = list(network(name))
    if max_layers is not None:
        layers = layers[:max_layers]

    results: List[LayerResult] = []
    act: Optional[np.ndarray] = None
    for spec in layers:
        params = spec.params(batch, scale=scale)
        x = _fit_activation(act, params, rng)
        w = (rng.standard_normal(params.weight_shape) * 0.05).astype(np.float32)
        from ..ops.conv_implicit import MIN_NI

        methods = applicable_methods(params)
        strided_ok = params.stride > 1 and params.ni >= MIN_NI
        if methods or strided_ok:
            run = lib.conv2d(x, w, params)
            out = run.output
            if run.fallback_reason is not None:
                # the library quarantined a bad kernel mid-pass and
                # served the reference instead -- account it as a
                # fallback layer, not a tuned one.
                method = "validation-fallback"
            elif params.stride > 1:
                method = "strided-implicit"
            else:
                from ..ops.selector import select_method

                method = select_method(params)
            report = run.report
        else:
            out = conv2d_reference(x, w, params)
            method = "mpe-fallback"
            report = mpe_fallback_report(params.flops, cfg, method)
        results.append(
            LayerResult(spec=spec, params=params, method=method, report=report)
        )
        act = np.maximum(out, 0.0)  # ReLU between layers
    return NetworkResult(name=name, batch=batch, layers=results)


def _fit_activation(
    act: Optional[np.ndarray], params: ConvParams, rng: np.random.Generator
) -> np.ndarray:
    """Adapt the previous activation to this layer's expected input
    (pooling between stages changes spatial size; stage boundaries
    change channels)."""
    target = params.input_shape
    if act is None or act.shape[1] != target[1]:
        return (rng.standard_normal(target) * 0.1).astype(np.float32)
    if act.shape == target:
        return act
    b, c, h, w = act.shape
    th, tw = target[2], target[3]
    if h >= th and w >= tw and h % th == 0 and w % tw == 0:
        fh, fw = h // th, w // tw
        pooled = act.reshape(b, c, th, fh, tw, fw).mean(axis=(3, 5))
        return np.ascontiguousarray(pooled, dtype=np.float32)
    return (rng.standard_normal(target) * 0.1).astype(np.float32)
