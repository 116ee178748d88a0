"""Chaos smoke: fault-injected tuning must match the fault-free run.

Not a paper table -- the resilience gate of the reproduction: with a
seeded :class:`repro.faults.FaultPlan` injecting evaluation crashes and
eval-cache corruption, a model-tuner GEMM sweep (supervised in-process
evaluation, persistent eval cache) must complete and return the same
winner as the fault-free run, with every recovery decision accounted
for in the engine metrics.  The gate also fails when no injected fault
fired, since such a run proves nothing.  Results, including the resilience counters,
go to ``BENCH_chaos.json``.

Run standalone (the CI chaos-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_chaos.py --quick
    PYTHONPATH=src python benchmarks/bench_chaos.py --out BENCH_chaos.json

or through pytest like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos.py
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.autotuner.calibrate import default_coeffs
from repro.autotuner import tune_with_model
from repro.engine import PersistentEvalStore, clear_feeds_cache, clear_shared_memo
from repro.faults import FaultPlan
from repro.options import use
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space
from repro.primitives.microkernel import clear_schedule_memo

FULL_SHAPES = [(512, 512, 512), (256, 384, 128)]
QUICK_SHAPES = [(128, 128, 128), (96, 256, 64)]

#: the injected failure mix: a 5% crash rate exercises per-candidate
#: retry (about 2.4 expected crashes over the ~48 candidates the quick
#: sweep scores), a 25% flush-corruption rate exercises torn-write
#: recovery of the eval cache.  Transient by construction (retries
#: re-draw), so the winner must not move.
CHAOS_PLAN = FaultPlan(seed=7, crash=0.05, corrupt=0.25)


def _cold_caches():
    clear_shared_memo()
    clear_feeds_cache()
    clear_schedule_memo()


def run_sweep(shapes, *, quick_space: bool) -> dict:
    default_coeffs()  # calibration is shared state, warm it outside timing
    rows = []
    total_clean = total_chaos = 0.0
    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
        for m, n, k in shapes:
            compute = gemm_compute(m, n, k)
            space = gemm_space(compute, quick=quick_space)
            results = {}
            walls = {}
            for mode, plan in (("clean", None), ("chaos", CHAOS_PLAN)):
                _cold_caches()
                store = PersistentEvalStore(
                    Path(tmp) / f"evals-{mode}-{m}x{n}x{k}.json"
                )
                t0 = time.perf_counter()
                # leaving the scope flushes the store, fault-free
                with use(faults=plan, eval_store=store):
                    results[mode] = tune_with_model(
                        compute, space, run_best=True, prune=True
                    )
                walls[mode] = time.perf_counter() - t0
                del store
            clean, chaos = results["clean"], results["chaos"]
            total_clean += walls["clean"]
            total_chaos += walls["chaos"]
            metrics = chaos.metrics
            rows.append(
                {
                    "shape": f"{m}x{n}x{k}",
                    "space_size": space.size(),
                    "evaluated_clean": clean.evaluated,
                    "evaluated_chaos": chaos.evaluated,
                    "wall_clean_s": round(walls["clean"], 3),
                    "wall_chaos_s": round(walls["chaos"], 3),
                    "retries": metrics.retries,
                    "quarantined": metrics.quarantined,
                    "events": metrics.event_counts(),
                    "winner_identical": (
                        clean.best.candidate.strategy.decisions
                        == chaos.best.candidate.strategy.decisions
                    ),
                    "cycles_identical": (
                        clean.best.measured_cycles
                        == chaos.best.measured_cycles
                    ),
                }
            )
    return {
        "bench": "chaos",
        "mode": "quick" if quick_space else "full",
        "plan": CHAOS_PLAN.describe(),
        "shapes": [r["shape"] for r in rows],
        "rows": rows,
        "total_wall_clean_s": round(total_clean, 3),
        "total_wall_chaos_s": round(total_chaos, 3),
        "total_retries": sum(r["retries"] for r in rows),
        "total_quarantined": sum(r["quarantined"] for r in rows),
        "all_winners_identical": all(r["winner_identical"] for r in rows),
        "all_cycles_identical": all(r["cycles_identical"] for r in rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny shapes + quick spaces (the CI chaos-smoke gate)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_chaos.json",
        metavar="PATH",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    shapes = QUICK_SHAPES if args.quick else FULL_SHAPES
    result = run_sweep(shapes, quick_space=args.quick)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")

    for row in result["rows"]:
        events = ", ".join(
            f"{kind} {count}" for kind, count in sorted(row["events"].items())
        ) or "none"
        print(
            f"{row['shape']:>14}  space {row['space_size']:>5}  "
            f"{row['wall_clean_s']:>6.2f}s -> {row['wall_chaos_s']:>6.2f}s  "
            f"events: {events}  "
            f"winner {'OK' if row['winner_identical'] else 'DIFFERS'}"
        )
    print(
        f"plan {result['plan']}: {result['total_retries']} retries, "
        f"{result['total_quarantined']} quarantined, winners "
        f"{'identical' if result['all_winners_identical'] else 'DIFFER'}"
    )

    if not result["all_winners_identical"]:
        print("FAIL: chaos run returned a different winner", file=sys.stderr)
        return 1
    if not result["all_cycles_identical"]:
        print("FAIL: chaos run returned different cycles", file=sys.stderr)
        return 1
    if result["total_retries"] == 0:
        print("FAIL: no injected fault fired", file=sys.stderr)
        return 1
    return 0


def test_chaos_winner_identical(benchmark, scale, show):
    """Pytest wrapper so ``pytest benchmarks/`` exercises the same
    sweep (tiny shapes at smoke scale)."""
    quick = scale.name != "full"
    shapes = QUICK_SHAPES if quick else FULL_SHAPES
    result = benchmark.pedantic(
        lambda: run_sweep(shapes, quick_space=quick),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"chaos bench ({result['mode']}, plan {result['plan']}): "
        f"{result['total_retries']} retries, "
        f"{result['total_quarantined']} quarantined"
    ]
    for row in result["rows"]:
        lines.append(
            f"  {row['shape']}: winner "
            f"{'OK' if row['winner_identical'] else 'DIFFERS'}, "
            f"events {row['events']}"
        )
    show("\n".join(lines))
    assert result["all_winners_identical"]
    assert result["all_cycles_identical"]
    assert result["total_retries"] > 0  # the plan really fired
    assert result["total_quarantined"] == 0  # the mix is transient-only


if __name__ == "__main__":
    sys.exit(main())
