"""``repro-bench`` command-line entry point.

Run one experiment (``repro-bench fig3``), several
(``repro-bench fig3 fig10``), or everything (``repro-bench all``).
``--scale`` shrinks problems and machine capacities together for quick
runs; ``--markdown`` emits Markdown tables (the format EXPERIMENTS.md
uses).
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import experiment_ids, run_experiment
from .report import render_markdown, render_table
from .trace_cmd import parse_scale


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "run":
        # Parallel + cached driver lives in its own module; ``run`` is a
        # subcommand so the classic one-shot invocations keep working.
        from .runner import main_run

        return main_run(argv[1:])
    if argv and argv[0] == "cache":
        from .runner import main_cache

        return main_cache(argv[1:])
    if argv and argv[0] == "serve":
        from ..serve.service import main_serve

        return main_serve(argv[1:])
    if argv and argv[0] == "cluster":
        from ..cluster.cli import main_cluster

        return main_cluster(argv[1:])
    if argv and argv[0] == "submit":
        from ..serve.protocol import main_submit

        return main_submit(argv[1:])
    if argv and argv[0] == "verify":
        from ..check.golden import main_verify

        return main_verify(argv[1:])
    if argv and argv[0] == "trace":
        from .trace_cmd import main_trace

        return main_trace(argv[1:])
    if argv and argv[0] == "plan":
        from ..plan.cli import main_plan

        return main_plan(argv[1:])
    if argv and argv[0] == "compare":
        from .crossarch import main_compare

        return main_compare(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures on the "
        "simulated Grace Hopper testbed.",
        epilog="Subcommands: 'repro-bench run' (parallel + cached driver), "
        "'repro-bench serve' / 'submit' (concurrent what-if service and "
        "its client), 'repro-bench cluster' (gateway + replica fleet and "
        "the million-request traffic harness), 'repro-bench cache' "
        "(result-cache stats and invalidation), 'repro-bench verify' "
        "(golden-trace regression gate), 'repro-bench trace' (event "
        "timelines -> Perfetto trace JSON), 'repro-bench plan' (analytic "
        "capacity planner: calibrate/predict/size/validate), 'repro-bench "
        "compare' (cross-architecture tables over the registered memory "
        "backends, e.g. --mem-arch gh200,upm,svm); see each one's --help.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"experiment ids ({', '.join(experiment_ids())}) or 'all'",
    )
    parser.add_argument(
        "--scale",
        type=parse_scale,
        default=1.0,
        help="problem/machine scale factor (accepts 1/64; 1.0 = the "
        "paper's testbed)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown tables"
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="render terminal bar-charts/sparklines alongside the tables",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write all results to a JSON file"
    )
    parser.add_argument(
        "--csv-dir", metavar="DIR", help="also write one CSV per experiment"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--calibration", action="store_true",
        help="print the paper-anchor calibration report and exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in experiment_ids():
            print(exp_id)
        return 0

    if args.calibration:
        from ..sim.calibration import calibration_report, check_calibration
        from ..sim.config import SystemConfig

        cfg = SystemConfig.paper_gh200()
        print(calibration_report(cfg))
        return 1 if check_calibration(cfg) else 0

    wanted = args.experiments or ["all"]
    if "all" in wanted:
        wanted = experiment_ids()
    unknown = [e for e in wanted if e not in experiment_ids()]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}")

    render = render_markdown if args.markdown else render_table
    results = []
    for exp_id in wanted:
        t0 = time.perf_counter()
        result = run_experiment(exp_id, scale=args.scale)
        dt = time.perf_counter() - t0
        results.append(result)
        print(render(result))
        if args.plot:
            from .plots import render_plot

            plot = render_plot(result)
            if plot:
                print(plot)
                print()
        print(f"[{exp_id} regenerated in {dt:.1f}s wall time]\n")

    if args.json:
        from .export import write_json

        print(f"wrote {write_json(results, args.json)}")
    if args.csv_dir:
        from .export import write_csv

        for result in results:
            print(f"wrote {write_csv(result, args.csv_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
