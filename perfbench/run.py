"""Repository benchmark for the swATOP reproduction.

Run from the repository root (no build step; the package is imported
from ``src/``)::

    python3 perfbench/run.py --workload model-gemm --seed 1 --seconds 20 --trace 0

Workloads (see ``suites.py``): ``model-gemm`` and ``model-conv`` tune
operators with the model-based tuner, ``blackbox-gemm`` with the
black-box (simulate-everything) tuner, and ``library`` serves warm
:class:`~repro.runtime.AtopLibrary` calls.  A run repeats passes over
the workload's operators until ``--seconds`` of operator time are
measured (always finishing the pass it is in) and prints, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``):

* ``op_ms`` -- wall time of one operation (one tuning, or one library
  call): per operator the median over passes, averaged over the
  workload's operators, in host-normalised milliseconds.  A fixed
  interpreter probe is timed between operations all through the run,
  and the wall time is divided by the probe's mean (see
  ``Measurement.ms_per_second``): on a shared host the same work's raw
  wall time drifts by tens of percent from one minute to the next;
* ``sim_gflops`` -- simulated throughput of the kernels the operations
  produced or served: total FLOPs over total simulated seconds;
* ``setup_s`` -- time from process start (before ``import repro``) to
  the end of set-up (calibration, and for ``library`` the tuning that
  fills the kernel cache); the median of three set-ups, two of them in
  child processes.

Per-layer metrics (``--trace 1``) come from an outside trace
(``ledger.py``): the same passes run with every layer boundary wrapped,
and each layer reports its self time per operation (``<layer>_ms``,
host-normalised like ``op_ms``) and its calls per operation
(``<layer>_calls``); ``traced_op_ms`` is ``op_ms`` under tracing, so
the difference is the tracing overhead.
The kept spans are written to ``perfbench/out/`` as a Chrome trace.

Simulated cycles are deterministic: each operator's cycles must repeat
on every pass, and ``cycles digest`` in the summary line hashes them so
two commits can be compared exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up samples per run: this process plus the child processes
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time and exit (used for the "
             "set-up samples)",
    )
    return parser.parse_args(argv)


def load(t_start: float, args):
    """Import the program and set the workload up; returns
    (workload, ops, setup seconds)."""
    # one BLAS thread: the simulator's matmuls are small and extra
    # threads only add scheduling noise on a shared host
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import suites

    if args.workload not in suites.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(suites.WORKLOADS)}"
        )
    workload = suites.WORKLOADS[args.workload]()
    ops = workload.setup(np.random.default_rng(args.seed))
    return workload, ops, time.perf_counter() - t_start


def child_setup_seconds(args) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class _ProbeItem:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _probe_step(item: _ProbeItem) -> int:
    return item.a * 2 + item.b


def probe_seconds() -> float:
    """One host-speed probe: under a millisecond of interpreter work of
    the program's own kind (object creation, attribute access, calls),
    with the collector off so that the program's heap cannot slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(2000):
            total += _probe_step(_ProbeItem(i, i + 1))
        return time.perf_counter() - t0
    finally:
        gc.enable()


#: probes timed before every operation
PROBES_PER_OP = 8

#: the time unit of ``op_ms``: one probe takes this long on the
#: normalised host
PROBE_MS = 1.0


@dataclass
class Measurement:
    walls: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    cycles: Dict[str, float] = field(default_factory=dict)
    pruned: Dict[str, Optional[float]] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ms_per_second(self) -> float:
        """Host-normalised milliseconds per measured second.

        Neighbours on a shared host slow this process's CPU by up to
        2x in stretches of milliseconds, and the share of time they do
        so drifts over minutes, so raw wall times of the same work
        differ by tens of percent between runs.  The probes, timed
        between operations all through the run, sample that share; a
        time divided by their mean is a time on a host where one probe
        takes ``PROBE_MS``."""
        return PROBE_MS / statistics.fmean(self.probes)

    def op_ms(self) -> float:
        """Per operator the median over passes, averaged over the
        operators, in host-normalised milliseconds."""
        if not self.walls:
            return 0.0
        return self.ms_per_second * statistics.fmean(
            statistics.median(w) for w in self.walls.values()
        )


def measure(workload, ops, seconds: float, rng, ledger=None) -> Measurement:
    """Passes over ``ops`` until ``seconds`` of operation time are
    measured.  With a ``ledger`` each operation is an ``op`` span, whose
    self time is the part of the operation no layer hook covers."""
    import suites

    m = Measurement()
    measured = 0.0
    first = True
    while first or measured < seconds:
        for index in rng.permutation(len(ops)):
            op = ops[index]
            workload.before_op()
            m.probes.extend(probe_seconds() for _ in range(PROBES_PER_OP))
            call = op.prepare()
            m.attempted += 1
            t0 = time.perf_counter()
            if ledger is not None:
                ledger.enter("op")
            try:
                outcome = call()
            except Exception as exc:  # a failing op is counted, not fatal
                measured += time.perf_counter() - t0
                m.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if ledger is not None:
                    ledger.exit()
            dt = time.perf_counter() - t0
            measured += dt
            m.walls[op.key].append(dt)
            try:
                if op.key not in m.cycles:
                    outcome.check()
                    m.cycles[op.key] = outcome.cycles
                    m.pruned[op.key] = outcome.pruned_share
                elif outcome.cycles != m.cycles[op.key]:
                    raise suites.CheckFailure(
                        f"{op.key}: {outcome.cycles} cycles, "
                        f"{m.cycles[op.key]} on the first pass"
                    )
            except suites.CheckFailure as exc:
                m.failures.append(str(exc))
        first = False
    try:
        workload.verify_state()
    except suites.CheckFailure as exc:
        m.failures.append(str(exc))
    return m


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    try:
        workload, ops, setup_s = load(t_start, args)
    except ImportError as exc:
        print(f"perfbench: cannot load the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    from ledger import LAYERS, Ledger
    from repro.machine.config import default_config

    rng = np.random.default_rng([args.seed, 1])
    ledger = None
    if args.trace:
        ledger = Ledger()
        for target in ledger.install():
            print(f"perfbench: hook target {target} not found", file=sys.stderr)
    else:
        setup_samples = [setup_s] + [
            child_setup_seconds(args) for _ in range(SETUP_CHILDREN)
        ]
    try:
        m = measure(workload, ops, args.seconds, rng, ledger)
    finally:
        if ledger is not None:
            ledger.uninstall()

    for line in m.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if ledger is None:
        clock_hz = default_config().clock_hz
        sim_seconds = sum(c / clock_hz for c in m.cycles.values())
        flops = sum(op.flops for op in ops if op.key in m.cycles)
        metrics = {
            "op_ms": (m.op_ms(), "ms"),
            "sim_gflops": (flops / sim_seconds / 1e9 if sim_seconds else 0.0,
                           "GFLOP/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
        }
    else:
        n_ops = sum(len(w) for w in m.walls.values()) or 1
        per_op_ms = m.ms_per_second / n_ops
        metrics = {"traced_op_ms": (m.op_ms(), "ms")}
        for layer in LAYERS + ["op"]:
            name = "unattributed" if layer == "op" else layer
            metrics[f"{name}_ms"] = (
                ledger.self_seconds.get(layer, 0.0) * per_op_ms, "ms")
            if layer != "op":
                metrics[f"{name}_calls"] = (
                    ledger.calls.get(layer, 0) / n_ops, "count")
        shares = [s for s in m.pruned.values() if s is not None]
        metrics["bound_pruned_share"] = (
            statistics.fmean(shares) if shares else 0.0, "ratio")
        ledger.write_chrome_trace(
            HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        )

    digest = hashlib.sha256(
        json.dumps(sorted((k, repr(c)) for k, c in m.cycles.items())).encode()
    ).hexdigest()[:16]
    passes = min((len(w) for w in m.walls.values()), default=0)
    print(f"{args.workload}: {len(ops)} operators x {passes} passes, "
          f"{m.attempted} attempted, {len(m.failures)} failed, mean probe "
          f"{1e3 * statistics.fmean(m.probes):.3f} ms, cycles digest {digest}")
    print(json.dumps({
        "correct": not m.failures and bool(m.cycles),
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
