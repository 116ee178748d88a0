"""Command-line entry point: regenerate any paper experiment.

    python -m repro <experiment> [--scale smoke|default|full]

Experiments: fig5 fig6 fig7 fig8 fig9 fig10 fig11 tab1 tab2 tab3, or
``all``.  Output is the same table the corresponding benchmark prints,
with the paper's expected values in the notes.
"""

from __future__ import annotations

import argparse
import sys
import time

from .engine import PersistentEvalStore
from .faults import FaultPlan
from .harness import experiments as E
from .harness.scales import SCALES, get_scale
from .options import use
from .passes import IrDump


def _tables(name: str, scale):
    if name == "fig5":
        yield E.fig5_implicit_conv(scale=scale).table()
    elif name == "fig6":
        yield E.fig6_winograd_conv(scale=scale).table()
    elif name == "fig7":
        yield E.fig7_explicit_conv(scale=scale).table()
    elif name in ("tab1", "fig8"):
        res = E.tab1_fig8_versatility(scale=scale)
        yield res.tab1() if name == "tab1" else res.fig8()
    elif name == "tab2":
        yield E.tab2_gemm(scale=scale).table()
    elif name == "tab3":
        yield E.tab3_tuning_time(scale=scale).table()
    elif name == "fig9":
        yield E.fig9_model_accuracy(scale=scale).table()
    elif name == "fig10":
        yield E.fig10_prefetch(scale=scale).table()
    elif name == "fig11":
        yield E.fig11_padding(scale=scale).table()
    else:
        raise SystemExit(f"unknown experiment {name!r}")


EXPERIMENTS = (
    "fig5", "fig6", "fig7", "tab1", "fig8",
    "tab2", "tab3", "fig9", "fig10", "fig11",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate swATOP paper experiments on the "
                    "simulated SW26010.",
    )
    parser.add_argument(
        "experiment",
        choices=(*EXPERIMENTS, "all"),
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="evaluation scale (default: $REPRO_SCALE or 'default')",
    )
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help="disable branch-and-bound candidate pruning (the escape "
             "hatch: results are bit-identical either way, pruning "
             "only skips lowering/scoring of provably-losing "
             "candidates)",
    )
    parser.add_argument(
        "--eval-cache",
        default=None,
        metavar="PATH",
        help="persist evaluation scores to PATH (versioned JSON) and "
             "warm-start from it, so repeated runs skip re-measuring "
             "strategies scored in earlier processes; rerunning an "
             "interrupted run with the same PATH resumes it",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for resilience testing, "
             "e.g. 'seed=7,crash=0.02,corrupt=0.1,poison=ab12'; sites: "
             "crash/exception/hang/corrupt rates in [0,1], poison= a "
             "candidate-digest hex prefix that always fails "
             "(see repro.faults.FaultPlan.parse)",
    )
    parser.add_argument(
        "--validate",
        nargs="?",
        const="winner",
        choices=("off", "winner", "all"),
        default=None,
        metavar="MODE",
        help="differentially validate tuned kernels against the NumPy "
             "reference: 'winner' (the bare flag) checks each tuner's "
             "returned winner, 'all' checks every measured candidate, "
             "'off' disables (default: off, or 'all' under "
             "REPRO_SANITIZE=1)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run every simulated kernel under the machine sanitizer "
             "(shadow-state checks for SPM/memory out-of-bounds DMA, "
             "uninitialized reads and double-buffer phase races); "
             "equivalent to REPRO_SANITIZE=1",
    )
    parser.add_argument(
        "--dump-ir",
        nargs="?",
        const="all",
        default=None,
        metavar="PASS",
        help="print kernel IR around pipeline passes to stderr "
             "(no value: every pass; with a value: only that pass, "
             "e.g. --dump-ir prefetch; decode-strategy and plan-spm "
             "run before any IR exists and print nothing); only the "
             "first couple of pipeline runs are dumped to keep sweeps "
             "readable",
    )
    args = parser.parse_args(argv)
    # the flags given, as changes to the run options; installed only
    # for this run (see repro.options)
    changes = {}
    if args.no_prune:
        changes["prune"] = False
    if args.sanitize:
        changes["sanitize"] = True
    if args.validate is not None:
        changes["validate"] = args.validate
    if args.inject_faults is not None:
        try:
            plan = FaultPlan.parse(args.inject_faults)
        except ValueError as exc:
            parser.error(f"--inject-faults: {exc}")
        changes["faults"] = plan
        print(f"[fault injection: {plan.describe()}]", file=sys.stderr)
    if args.eval_cache is not None:
        changes["eval_store"] = PersistentEvalStore(args.eval_cache)
    if args.dump_ir is not None:
        changes["dump_ir"] = IrDump(args.dump_ir)
    scale = get_scale(args.scale)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    with use(**changes) as options:
        for name in names:
            t0 = time.perf_counter()
            for table in _tables(name, scale):
                print(table.render())
            print(f"[{name}: {time.perf_counter() - t0:.1f}s]\n")
        if options.eval_store is not None:
            options.eval_store.flush()
            print(f"[eval cache: {options.eval_store.describe()}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
