"""Branch-and-bound pruning: end-to-end model-tuner speedup.

Not a paper table -- an engineering property of the reproduction: the
admissible strategy bounds (:mod:`repro.engine.bounds`) let the model
tuner skip lowering/optimizing/scoring most of the schedule space while
returning a bit-identical winner.  This bench times ``tune_with_model``
with pruning off and on over a GEMM sweep (cold caches both ways,
calibration warmed outside the timed region), checks the winners match,
and writes the numbers to ``BENCH_prune.json``.

Run standalone (the CI smoke job does, on tiny spaces)::

    PYTHONPATH=src python benchmarks/bench_prune.py --quick
    PYTHONPATH=src python benchmarks/bench_prune.py --out BENCH_prune.json

or through pytest like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_prune.py

The committed ``BENCH_prune.json`` is a full-space run; the aggregate
speedup gate is 3x there (1x in ``--quick`` mode, where spaces are too
small to amortize the bound computation).
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.autotuner.calibrate import default_coeffs
from repro.autotuner import tune_with_model
from repro.engine import clear_feeds_cache, clear_shared_memo
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space
from repro.primitives.microkernel import clear_schedule_memo

#: the full sweep: the square Tab. 2 size plus three skewed shapes
#: whose spaces stress different bound regimes (DMA-bound tall/skinny,
#: compute-bound deep-K).
FULL_SHAPES = [(512, 512, 512), (256, 384, 128), (128, 128, 640), (96, 2048, 96)]

#: tiny sweep for CI smoke: quick spaces, seconds not minutes.
QUICK_SHAPES = [(128, 128, 128), (96, 256, 64)]


def _cold_caches():
    """Both timed runs start from the same cold process-level state."""
    clear_shared_memo()
    clear_feeds_cache()
    clear_schedule_memo()


def run_sweep(shapes, *, quick_space: bool) -> dict:
    default_coeffs()  # calibration is shared state, warm it outside timing
    rows = []
    total_off = total_on = 0.0
    for m, n, k in shapes:
        compute = gemm_compute(m, n, k)
        space = gemm_space(compute, quick=quick_space)
        walls = {}
        results = {}
        for prune in (False, True):
            _cold_caches()
            t0 = time.perf_counter()
            results[prune] = tune_with_model(
                compute, space, run_best=True, prune=prune
            )
            walls[prune] = time.perf_counter() - t0
        off, on = results[False], results[True]
        total_off += walls[False]
        total_on += walls[True]
        rows.append(
            {
                "shape": f"{m}x{n}x{k}",
                "space_size": space.size(),
                "evaluated_off": off.evaluated,
                "evaluated_on": on.evaluated,
                "bound_pruned": on.metrics.bound_pruned,
                "spm_pruned": on.metrics.spm_pruned,
                "prune_batches": len(on.metrics.prune_batches),
                "bounds_s": round(on.metrics.bounds.seconds, 4),
                "enumeration_s": round(on.metrics.enumeration.seconds, 4),
                "wall_off_s": round(walls[False], 3),
                "wall_on_s": round(walls[True], 3),
                "speedup": round(walls[False] / walls[True], 2),
                "candidates_per_s_off": round(
                    off.evaluated / walls[False], 1
                ),
                "candidates_per_s_on": round(on.evaluated / walls[True], 1),
                "winner_identical": (
                    off.best.candidate.strategy.decisions
                    == on.best.candidate.strategy.decisions
                ),
                "best_cycles": on.best.measured_cycles,
            }
        )
    return {
        "bench": "prune",
        "mode": "quick" if quick_space else "full",
        "shapes": [r["shape"] for r in rows],
        "rows": rows,
        "total_wall_off_s": round(total_off, 3),
        "total_wall_on_s": round(total_on, 3),
        "aggregate_speedup": round(total_off / total_on, 2),
        "all_winners_identical": all(r["winner_identical"] for r in rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny shapes + quick spaces (the CI smoke gate)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_prune.json",
        metavar="PATH",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail below this aggregate speedup (default: 3.0 full, "
             "1.0 quick)",
    )
    args = parser.parse_args(argv)
    gate = args.min_speedup if args.min_speedup is not None else (
        1.0 if args.quick else 3.0
    )

    shapes = QUICK_SHAPES if args.quick else FULL_SHAPES
    result = run_sweep(shapes, quick_space=args.quick)
    result["min_speedup_gate"] = gate
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")

    for row in result["rows"]:
        print(
            f"{row['shape']:>14}  space {row['space_size']:>5}  "
            f"{row['wall_off_s']:>7.2f}s -> {row['wall_on_s']:>6.2f}s  "
            f"({row['speedup']:.1f}x)  pruned {row['bound_pruned']}"
            f"(+{row['spm_pruned']} spm)  "
            f"winner {'OK' if row['winner_identical'] else 'DIFFERS'}"
        )
    print(
        f"aggregate: {result['total_wall_off_s']:.1f}s -> "
        f"{result['total_wall_on_s']:.1f}s "
        f"({result['aggregate_speedup']:.2f}x, gate {gate}x)"
    )

    if not result["all_winners_identical"]:
        print("FAIL: pruned search returned a different winner", file=sys.stderr)
        return 1
    if result["aggregate_speedup"] < gate:
        print(
            f"FAIL: aggregate speedup {result['aggregate_speedup']}x "
            f"below the {gate}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


def test_prune_speedup(benchmark, scale, show):
    """Pytest wrapper so ``pytest benchmarks/`` exercises the same
    sweep (tiny shapes at smoke scale)."""
    quick = scale.name != "full"
    shapes = QUICK_SHAPES if quick else FULL_SHAPES
    result = benchmark.pedantic(
        lambda: run_sweep(shapes, quick_space=quick), rounds=1, iterations=1
    )
    lines = [
        f"prune bench ({result['mode']}): aggregate "
        f"{result['aggregate_speedup']}x "
        f"({result['total_wall_off_s']}s -> {result['total_wall_on_s']}s)"
    ]
    for row in result["rows"]:
        lines.append(
            f"  {row['shape']}: {row['speedup']}x, "
            f"pruned {row['bound_pruned']}/{row['space_size']}"
        )
    show("\n".join(lines))
    assert result["all_winners_identical"]
    assert result["aggregate_speedup"] >= (1.0 if quick else 3.0)


if __name__ == "__main__":
    sys.exit(main())
