"""``repro-bench plan`` — the capacity planner's command surface.

Four subcommands with a strict simulation boundary:

* ``calibrate`` is the only one allowed to simulate — it runs (or
  serves from cache) the per-experiment calibration runs and persists
  cost vectors;
* ``predict`` / ``size`` are pure queries: they read persisted vectors,
  evaluate the closed-form model and answer in milliseconds. A missing
  vector is an error pointing at ``calibrate``, never a silent
  simulation;
* ``validate`` gates planner arithmetic against a measured
  ``repro-bench cluster bench --out`` scaling table (±10% throughput,
  monotone orderings, size agreement) — the CI contract.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..bench.runner import ResultCache, RunRecord, register_run_hook, unregister_run_hook
from ..bench.trace_cmd import parse_scale
from .calibrate import calibratable_ids, calibrate_many, load_calibrated
from .model import MixModel, parse_mix
from .queueing import estimate, geometric_burst_arrival_scv
from .solver import solve_min_replicas


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=parse_scale, default=1.0, metavar="S",
        help="calibration scale (accepts 1/64; default 1.0 = the paper "
        "testbed; vectors are cached per scale)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="result-cache location (default: $REPRO_BENCH_CACHE_DIR or "
        "~/.cache/repro-bench)",
    )
    from ..mem.arch import architecture_names

    parser.add_argument(
        "--mem-arch", default="gh200", choices=architecture_names(),
        metavar="ARCH",
        help="memory-architecture backend the vectors are measured/"
        "queried under (cost vectors are per-(experiment, backend); "
        f"choices: {', '.join(architecture_names())})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )


def _add_mix_query(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mix", required=True, metavar="SPEC",
        help="traffic mix, e.g. 'fig12:0.6,fig13:0.4' (weights "
        "normalised; bare ids weigh 1)",
    )
    parser.add_argument(
        "--rate", type=float, required=True, metavar="RPS",
        help="offered request rate (requests/s)",
    )
    parser.add_argument(
        "--workers-per-replica", type=int, default=2, metavar="N",
        help="concurrent workers per replica (default 2, matching "
        "'repro-bench cluster')",
    )
    parser.add_argument(
        "--hit-rate", type=float, default=0.0, metavar="F",
        help="fraction of arrivals absorbed by shared cache + "
        "coalescing before reaching a worker (default 0)",
    )
    parser.add_argument(
        "--burst-mean", type=float, default=1.0, metavar="B",
        help="mean arrival burst size (1 = Poisson; the traffic "
        "generator's default replay is ~256)",
    )
    parser.add_argument(
        "--oversubscription", type=float, metavar="R",
        help="re-predict service times at working-set/GPU-capacity "
        "ratio R (default: each workload's calibrated ratio)",
    )
    parser.add_argument(
        "--checkpoint", action="store_true",
        help="model requests replayed off epoch checkpoints (each "
        "workload pays only its calibrated suffix fraction)",
    )


def _load_mix_model(args, parser) -> tuple[MixModel, dict[str, float]]:
    """Query-path vector loading: cache reads only, never a simulation."""
    mix = parse_mix(args.mix)
    cache = ResultCache(args.cache_dir)
    vectors = {}
    missing = []
    for exp_id in mix:
        vec = load_calibrated(
            exp_id, scale=args.scale, cache=cache, mem_arch=args.mem_arch
        )
        if vec is None:
            missing.append(exp_id)
        else:
            vectors[exp_id] = vec
    if missing:
        arch_flag = (
            "" if args.mem_arch == "gh200" else f" --mem-arch {args.mem_arch}"
        )
        parser.error(
            f"no calibrated cost vector for {', '.join(missing)} at "
            f"scale={args.scale} (backend {args.mem_arch}) under "
            f"{cache.root}; run "
            f"'repro-bench plan calibrate {' '.join(missing)} "
            f"--scale {args.scale}{arch_flag}' first "
            "(predict/size never simulate)"
        )
    return MixModel(vectors, mix), mix


def _mix_inputs(model: MixModel, args) -> dict:
    mean, m2, scv = model.service_moments(
        oversubscription=args.oversubscription, checkpoint=args.checkpoint
    )
    return {
        "service_mean_s": mean,
        "service_m2_s2": m2,
        "service_scv": scv,
        "service_p50_s": model.service_percentile(
            0.50,
            oversubscription=args.oversubscription,
            checkpoint=args.checkpoint,
        ),
        "service_p99_s": model.service_percentile(
            0.99,
            oversubscription=args.oversubscription,
            checkpoint=args.checkpoint,
        ),
        "arrival_scv": geometric_burst_arrival_scv(max(1.0, args.burst_mean)),
    }


def _main_calibrate(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench plan calibrate",
        description="Run (or reuse) one calibration simulation per "
        "experiment and persist its cost vector through the result cache.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids ({', '.join(calibratable_ids())})",
    )
    parser.add_argument("--all", action="store_true",
                        help="calibrate every supported experiment")
    parser.add_argument("--force", action="store_true",
                        help="re-simulate even on a cache hit")
    _add_common(parser)
    args = parser.parse_args(argv)

    wanted = list(args.experiments)
    if args.all or not wanted:
        wanted = calibratable_ids()
    unknown = [e for e in wanted if e not in calibratable_ids()]
    if unknown:
        parser.error(
            f"no calibration run for {unknown}; calibratable: "
            f"{', '.join(calibratable_ids())}"
        )

    cache = ResultCache(args.cache_dir)

    def progress(record: RunRecord) -> None:
        verb = "cached" if record.cached else f"ran in {record.wall_s:.1f}s"
        print(f"  {record.exp_id}: {verb}", file=sys.stderr)

    register_run_hook(progress)
    try:
        vectors = calibrate_many(
            wanted, scale=args.scale, cache=cache, force=args.force,
            mem_arch=args.mem_arch,
        )
    finally:
        unregister_run_hook(progress)
        cache.save_session_stats()

    if args.json:
        print(json.dumps(
            {e: v.to_dict() for e, v in vectors.items()},
            indent=2, sort_keys=True,
        ))
        return 0
    width = max(len(e) for e in vectors)
    for exp_id, v in vectors.items():
        print(
            f"{exp_id:<{width}}  {v.app}/{v.mode} service={v.service_time_s:.3f}s "
            f"hbm={v.hbm_bytes / 1e9:.2f}GB c2c={(v.c2c_h2d_bytes + v.c2c_d2h_bytes) / 1e9:.2f}GB "
            f"faults={v.gpu_faults + v.far_faults + v.cpu_faults} "
            f"oversub={v.oversubscription:.2f} "
            f"ckpt-suffix={v.checkpoint_suffix_fraction:.2f}"
        )
    print(f"[{len(vectors)} cost vector(s) under {cache.root}]")
    return 0


def _main_predict(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench plan predict",
        description="Closed-form p50/p99/goodput prediction for a "
        "workload mix at given fleet sizes (no simulation).",
    )
    _add_mix_query(parser)
    parser.add_argument(
        "--replicas", default="1,2,4", metavar="N,N,...",
        help="comma-separated replica counts to evaluate (default 1,2,4)",
    )
    _add_common(parser)
    args = parser.parse_args(argv)
    model, _ = _load_mix_model(args, parser)
    inputs = _mix_inputs(model, args)
    chip_rate, chip_tier = model.superchip_rate()

    points = []
    for text in args.replicas.split(","):
        replicas = int(text)
        est = estimate(
            args.rate,
            inputs["service_mean_s"],
            replicas * args.workers_per_replica,
            service_scv=inputs["service_scv"],
            arrival_scv=inputs["arrival_scv"],
            thinning=args.hit_rate,
            service_p50_s=inputs["service_p50_s"],
            service_p99_s=inputs["service_p99_s"],
        )
        points.append((replicas, est))

    if args.json:
        print(json.dumps(
            {
                "mix": args.mix,
                "inputs": {k: round(v, 9) for k, v in inputs.items()},
                "superchip_rate_rps": chip_rate,
                "superchip_limiting_tier": chip_tier,
                "points": [
                    {"replicas": r, **est.__dict__, "notes": list(est.notes)}
                    for r, est in points
                ],
            },
            indent=2, sort_keys=True, default=str,
        ))
        return 0

    print(
        f"mix service: mean={inputs['service_mean_s']:.4f}s "
        f"p99={inputs['service_p99_s']:.4f}s scv={inputs['service_scv']:.3f}; "
        f"superchip roofline {chip_rate:.1f} req/s ({chip_tier})"
    )
    for replicas, est in points:
        state = "stable" if est.stable else "SATURATED"
        print(
            f"replicas={replicas:<4d} servers={est.servers:<5d} "
            f"util={est.utilization:.2f} [{state}] "
            f"p50={est.p50_s:.4f}s p99={est.p99_s:.4f}s "
            f"goodput={est.goodput_rps:.1f}/s"
        )
    return 0


def _main_size(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench plan size",
        description="Minimal replicas/superchips satisfying an SLO for "
        "a traffic mix (binary search over the closed-form model; no "
        "simulation).",
    )
    _add_mix_query(parser)
    parser.add_argument(
        "--slo-p99-ms", type=float, required=True, metavar="MS",
        help="target p99 end-to-end latency in milliseconds",
    )
    _add_common(parser)
    args = parser.parse_args(argv)
    model, _ = _load_mix_model(args, parser)

    t0 = time.perf_counter()
    inputs = _mix_inputs(model, args)
    chip_rate, chip_tier = model.superchip_rate()

    def estimate_at(servers: int):
        return estimate(
            args.rate,
            inputs["service_mean_s"],
            servers,
            service_scv=inputs["service_scv"],
            arrival_scv=inputs["arrival_scv"],
            thinning=args.hit_rate,
            service_p50_s=inputs["service_p50_s"],
            service_p99_s=inputs["service_p99_s"],
        )

    sizing = solve_min_replicas(
        estimate_at,
        arrival_rps=args.rate,
        slo_p99_s=args.slo_p99_ms / 1e3,
        workers_per_replica=args.workers_per_replica,
        p99_floor_s=inputs["service_p99_s"],
        superchip_rate_rps=chip_rate,
    )
    solve_ms = (time.perf_counter() - t0) * 1e3

    if args.json:
        print(json.dumps(
            {
                "mix": args.mix,
                "rate_rps": args.rate,
                "slo_p99_ms": args.slo_p99_ms,
                "replicas": sizing.replicas,
                "servers": sizing.servers,
                "superchips": sizing.superchips,
                "superchip_limiting_tier": chip_tier,
                "slo_feasible": sizing.slo_feasible,
                "limiting": sizing.limiting,
                "stability_floor": sizing.stability_floor,
                "p99_floor_ms": round(sizing.p99_floor_s * 1e3, 3),
                "predicted_p99_ms": (
                    round(sizing.estimate.p99_s * 1e3, 3)
                    if sizing.estimate.stable else None
                ),
                "utilization": round(sizing.estimate.utilization, 4),
                "notes": list(sizing.notes) + list(sizing.estimate.notes),
                "solve_ms": round(solve_ms, 3),
            },
            indent=2, sort_keys=True,
        ))
        return 0

    print(
        f"{sizing.replicas} replica(s) x {sizing.workers_per_replica} "
        f"worker(s), {sizing.superchips} superchip(s) "
        f"[{chip_tier} roofline] for {args.rate:.0f} req/s"
    )
    if sizing.slo_feasible:
        print(
            f"  meets p99 <= {args.slo_p99_ms:.0f} ms: predicted "
            f"p99={sizing.estimate.p99_s * 1e3:.1f} ms, "
            f"util={sizing.estimate.utilization:.2f} "
            f"(stability floor: {sizing.stability_floor} replica(s))"
        )
    else:
        print(
            f"  SLO p99 <= {args.slo_p99_ms:.0f} ms is NOT achievable: "
            f"the mix's zero-wait service p99 is "
            f"{sizing.p99_floor_s * 1e3:.1f} ms; sized for stable, "
            "effectively wait-free operation instead"
        )
    for note in sizing.notes:
        print(f"  note: {note}")
    print(f"  [solved in {solve_ms:.1f} ms]")
    return 0


def _main_validate(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench plan validate",
        description="Gate planner predictions against a measured "
        "'repro-bench cluster bench --out' scaling table: +/-10%% "
        "throughput, monotone goodput/p99 orderings, and (optionally) "
        "plan-size agreement.",
    )
    parser.add_argument(
        "table", metavar="TABLE_JSON",
        help="scaling table from 'repro-bench cluster bench --out PATH'",
    )
    parser.add_argument(
        "--workers-per-replica", type=int, default=2, metavar="N",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10, metavar="F",
        help="relative throughput tolerance (default 0.10)",
    )
    parser.add_argument(
        "--check-size", type=float, metavar="RPS",
        help="also assert 'plan size' agreement: the predicted minimal "
        "replica count for RPS must equal the measured one",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the full comparison JSON"
    )
    args = parser.parse_args(argv)

    from ..cluster.traffic import TrafficMix
    from .validate import (
        calibrate_overhead_s,
        measured_min_replicas,
        predicted_min_replicas,
        stream_stats,
        validate_scaling,
    )

    with open(args.table) as fh:
        table = json.load(fh)
    report = validate_scaling(
        table,
        workers_per_replica=args.workers_per_replica,
        tolerance=args.tolerance,
    )

    size_check = None
    if args.check_size is not None:
        stats = stream_stats(TrafficMix(**table["mix"]))
        overhead = calibrate_overhead_s(stats, table["rows"][0])
        # A finite replay cannot demonstrate more goodput than its best
        # measured row, so the sizing question both sides answer is
        # "which fleet first achieves the table's plateau (or the
        # requested rate, whichever is lower)".
        target = min(
            args.check_size,
            max(float(r["goodput_rps"]) for r in table["rows"]),
        )
        predicted = predicted_min_replicas(
            stats,
            rate_rps=target,
            workers_per_replica=report["workers_per_replica"],
            overhead_s=overhead,
            vnodes=report["vnodes"],
        )
        measured = measured_min_replicas(table, rate_rps=target)
        size_check = {
            "rate_rps": args.check_size,
            "target_rps": target,
            "predicted_min_replicas": predicted,
            "measured_min_replicas": measured,
            "agree": predicted == measured,
        }
        if not size_check["agree"]:
            report["failures"].append(
                f"plan-size disagreement at {args.check_size} req/s: "
                f"predicted {predicted} replica(s), measured {measured}"
            )
            report["ok"] = False
        report["size_check"] = size_check

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for row in report["rows"]:
            tag = "ok " if row["within_tolerance"] else "FAIL"
            cal = " (calibration row)" if row["calibration_row"] else ""
            print(
                f"[{tag}] replicas={row['replicas']}: predicted "
                f"{row['predicted_goodput_rps']}/s vs measured "
                f"{row['measured_goodput_rps']}/s "
                f"(err {row['error']:.1%}){cal}"
            )
        if size_check:
            verdict = "agree" if size_check["agree"] else "DISAGREE"
            print(
                f"[{verdict}] plan size @ {args.check_size:.0f} req/s: "
                f"predicted {size_check['predicted_min_replicas']} vs "
                f"measured {size_check['measured_min_replicas']} replica(s)"
            )
        for failure in report["failures"]:
            print(f"FAIL: {failure}")
        if report["ok"]:
            print(
                f"validation passed: {len(report['rows'])} fleet size(s) "
                f"within +/-{args.tolerance:.0%}"
            )
    return 0 if report["ok"] else 1


def main_plan(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {
        "calibrate": _main_calibrate,
        "predict": _main_predict,
        "size": _main_size,
        "validate": _main_validate,
    }
    if not argv or argv[0] in ("-h", "--help"):
        print(
            "usage: repro-bench plan {calibrate,predict,size,validate} ...\n"
            "  calibrate  run/reuse calibration simulations, persist cost "
            "vectors\n"
            "  predict    closed-form latency/goodput at given fleet sizes\n"
            "  size       minimal replicas+superchips meeting an SLO\n"
            "  validate   gate predictions against a measured scaling table"
        )
        return 0 if argv else 2
    if argv[0] not in commands:
        print(
            f"unknown plan subcommand {argv[0]!r}; expected one of "
            f"{', '.join(commands)}", file=sys.stderr,
        )
        return 2
    return commands[argv[0]](argv[1:])
