"""``repro-bench cluster`` — serve a fleet, or replay traffic at it.

Two subcommands:

* ``cluster serve`` — run the gateway as a long-lived TCP endpoint in
  front of N local replicas (and/or pre-existing ``--replica host:port``
  endpoints); protocol-compatible with ``repro-bench submit``.
* ``cluster bench`` — the synthetic traffic harness: replay one seeded
  bursty Zipf stream at each requested replica count and report goodput
  + p50/p99/p999 per class, with optional fault injection
  (``--kill-replica-after``) and CI assertions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import shutil
import sys
import tempfile

from ..bench.runner import ResultCache
from ..serve.protocol import run_server
from .gateway import Gateway, GatewayConfig
from .traffic import (
    SYNTHETIC_RUNNER,
    TrafficMix,
    run_scaling,
    scaling_table,
    scaling_table_json,
)


def _add_fleet_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--replicas", default="2",
        help="local replica count; for 'bench' a comma list replays the "
        "same stream at each size (default 2; bench default 1,2,4)",
    )
    parser.add_argument(
        "--replica", action="append", default=[], metavar="HOST:PORT",
        dest="addresses",
        help="address of a pre-started 'repro-bench serve' replica "
        "(repeatable; combined with --replicas local spawns)",
    )
    parser.add_argument("--workers-per-replica", type=int, default=2)
    parser.add_argument(
        "--replica-capacity", type=int, default=64,
        help="queue capacity inside each replica service",
    )
    parser.add_argument(
        "--capacity", type=int, default=256,
        help="gateway admission queue capacity",
    )
    parser.add_argument(
        "--shed-batch-above", type=float, default=0.75, metavar="FRAC",
        help="queue-depth fraction above which batch jobs are shed",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="max outstanding jobs per tenant",
    )
    parser.add_argument(
        "--outstanding-per-replica", type=int, default=8,
        help="concurrent forwards per replica",
    )
    parser.add_argument("--vnodes", type=int, default=64)
    parser.add_argument(
        "--health-interval", type=float, default=1.0,
        help="seconds between replica health probes",
    )


def _parse_counts(spec: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in spec.split(",") if part)
    except ValueError:
        raise SystemExit(f"bad --replicas list: {spec!r}")
    if not counts or any(c < 1 for c in counts):
        raise SystemExit(f"bad --replicas list: {spec!r}")
    return counts


def main_cluster(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in ("serve", "bench"):
        print("usage: repro-bench cluster {serve,bench} [--help]",
              file=sys.stderr)
        return 2
    if argv[0] == "serve":
        return _main_serve(argv[1:])
    return _main_bench(argv[1:])


# ----------------------------------------------------------------------
# cluster serve
# ----------------------------------------------------------------------


def _main_serve(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench cluster serve",
        description="Gateway + replica fleet over TCP (JSON lines); "
        "pair with 'repro-bench submit --port 8640'.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8640)
    _add_fleet_args(parser)
    parser.add_argument(
        "--interactive-limit", type=int, default=None, metavar="N",
        help="max queued interactive-class jobs at the gateway",
    )
    parser.add_argument(
        "--batch-limit", type=int, default=None, metavar="N",
        help="max queued batch-class jobs at the gateway",
    )
    parser.add_argument("--cache-dir", metavar="DIR")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--runner", metavar="MODULE:FUNCTION", default=None,
        help="custom replica job body (implies accepting any exp_id)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout replicas apply to their workers",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    class_limits = {}
    if args.interactive_limit is not None:
        class_limits["interactive"] = args.interactive_limit
    if args.batch_limit is not None:
        class_limits["batch"] = args.batch_limit
    known = None
    if args.runner is None:
        from ..bench.experiments import experiment_ids

        known = frozenset(experiment_ids())
    config = GatewayConfig(
        replicas=int(args.replicas),
        addresses=tuple(args.addresses),
        workers_per_replica=args.workers_per_replica,
        replica_capacity=args.replica_capacity,
        runner_spec=args.runner,
        replica_timeout=args.timeout,
        capacity=args.capacity,
        class_limits=class_limits or None,
        shed_batch_above=args.shed_batch_above,
        tenant_quota=args.tenant_quota,
        max_outstanding_per_replica=args.outstanding_per_replica,
        health_interval=args.health_interval,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        known_experiments=known,
        vnodes=args.vnodes,
    )

    run_server(Gateway(config), args.host, args.port)
    return 0


# ----------------------------------------------------------------------
# cluster bench
# ----------------------------------------------------------------------


def _main_bench(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench cluster bench",
        description="Seeded bursty-Zipf traffic replay through the "
        "gateway at one or more replica counts.",
    )
    _add_fleet_args(parser)
    parser.set_defaults(replicas="1,2,4")
    parser.add_argument("--requests", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--interactive-fraction", type=float, default=0.6)
    parser.add_argument("--hot-keys", type=int, default=512)
    parser.add_argument("--tail-keys", type=int, default=200_000)
    parser.add_argument("--hot-zipf-s", type=float, default=1.1)
    parser.add_argument("--tail-zipf-s", type=float, default=0.4)
    parser.add_argument("--cost-ms-min", type=float, default=8.0)
    parser.add_argument("--cost-ms-max", type=float, default=24.0)
    parser.add_argument("--offered-rate", type=float, default=4_000.0)
    parser.add_argument("--burst-mean", type=int, default=256)
    parser.add_argument("--burstiness", type=float, default=0.8)
    parser.add_argument("--tenants", type=int, default=8)
    parser.add_argument(
        "--no-disk-cache", action="store_true",
        help="memory-only shared cache (default: fresh temp disk tier "
        "per replica count, so runs are comparable)",
    )
    parser.add_argument(
        "--kill-replica-after", type=int, default=None, metavar="N",
        help="fault injection: SIGKILL replica r0 after N submissions "
        "(per replica-count run)",
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the full reports to a JSON file")
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the compact machine-readable scaling table "
        "(goodput/p99/utilization per replica count) consumed by "
        "'repro-bench plan validate'",
    )
    parser.add_argument(
        "--record-bench", metavar="PATH",
        help="merge the headline numbers into this BENCH json file "
        "under a 'cluster' key",
    )
    parser.add_argument(
        "--assert-recovery", action="store_true",
        help="fail unless a killed replica was respawned with zero "
        "lost interactive requests",
    )
    parser.add_argument(
        "--assert-exactly-once", action="store_true",
        help="fail unless per-replica executed counters sum to the "
        "forwarded-miss count (no fault injection runs only)",
    )
    parser.add_argument(
        "--assert-scaling", action="store_true",
        help="fail unless goodput strictly increases with replica count",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.WARNING, format="%(message)s")
    counts = _parse_counts(args.replicas)
    mix = TrafficMix(
        requests=args.requests,
        seed=args.seed,
        interactive_fraction=args.interactive_fraction,
        hot_keys=args.hot_keys,
        hot_zipf_s=args.hot_zipf_s,
        tail_keys=args.tail_keys,
        tail_zipf_s=args.tail_zipf_s,
        cost_ms_min=args.cost_ms_min,
        cost_ms_max=args.cost_ms_max,
        burst_mean=args.burst_mean,
        offered_rate=args.offered_rate,
        burstiness=args.burstiness,
        tenants=args.tenants,
    )
    tempdirs: list[str] = []

    def make_gateway(n: int) -> Gateway:
        cache = None
        if not args.no_disk_cache:
            tempdirs.append(tempfile.mkdtemp(prefix="repro-cluster-"))
            cache = ResultCache(tempdirs[-1])
        return Gateway(GatewayConfig(
            replicas=n,
            workers_per_replica=args.workers_per_replica,
            replica_capacity=args.replica_capacity,
            runner_spec=SYNTHETIC_RUNNER,
            capacity=args.capacity,
            shed_batch_above=args.shed_batch_above,
            tenant_quota=args.tenant_quota,
            max_outstanding_per_replica=args.outstanding_per_replica,
            health_interval=args.health_interval,
            cache=cache,
            known_experiments=None,
            vnodes=args.vnodes,
        ))

    def log(message: str) -> None:
        print(message, flush=True)

    try:
        reports = asyncio.run(run_scaling(
            make_gateway, mix, counts,
            kill_after=args.kill_replica_after, log=log,
        ))
    finally:
        for tempdir in tempdirs:
            shutil.rmtree(tempdir, ignore_errors=True)

    print()
    print(scaling_table(reports))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                scaling_table_json(reports), fh, indent=2, sort_keys=True
            )
        print(f"wrote {args.out}")
    if args.record_bench:
        _record_bench(args.record_bench, mix, reports)
        print(f"recorded cluster headline numbers in {args.record_bench}")

    failures = _check_assertions(args, reports)
    for failure in failures:
        print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _record_bench(path: str, mix: TrafficMix, reports: list[dict]) -> None:
    """Fold goodput + latency headlines into BENCH_hotpath.json-style
    files without touching the gated hot-path entries."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        payload = {}
    payload["cluster"] = {
        "requests": mix.requests,
        "seed": mix.seed,
        "by_replicas": {
            str(report["replicas"]): {
                "goodput_rps": report["goodput_rps"],
                "completed": report["completed"],
                "shed": report["shed"],
                "wall_s": report["wall_s"],
                "interactive_latency_s": {
                    p: report["classes"]["interactive"]["latency_s"][p]
                    for p in ("p50", "p99", "p999")
                },
                "batch_latency_s": {
                    p: report["classes"]["batch"]["latency_s"][p]
                    for p in ("p50", "p99", "p999")
                },
            }
            for report in reports
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _check_assertions(args, reports: list[dict]) -> list[str]:
    failures: list[str] = []
    if args.assert_recovery:
        for report in reports:
            n = report["replicas"]
            if report["killed_pid"] is None:
                failures.append(f"replicas={n}: no replica was killed")
                continue
            if report["respawns"] < 1:
                failures.append(f"replicas={n}: killed replica was not "
                                "respawned")
            interactive = report["classes"]["interactive"]
            lost = (
                interactive["offered"] - interactive["completed"]
            )
            if lost or interactive["shed_total"] or interactive["failed"]:
                failures.append(
                    f"replicas={n}: lost {lost} interactive request(s) "
                    f"(shed={interactive['shed_total']} "
                    f"failed={interactive['failed']})"
                )
            accounts = report["gateway"]["shared_cache"]["per_replica"]
            if not accounts:
                failures.append(f"replicas={n}: no per-replica cache "
                                "accounting in the metrics snapshot")
    if args.assert_exactly_once:
        for report in reports:
            if report["killed_pid"] is not None:
                continue  # a kill legitimately re-executes lost work
            once = report["exactly_once"]
            if once["executed_total"] != once["forwarded_misses"]:
                failures.append(
                    f"replicas={report['replicas']}: executed "
                    f"{once['executed_total']} != forwarded misses "
                    f"{once['forwarded_misses']}"
                )
    if args.assert_scaling:
        goodputs = [report["goodput_rps"] for report in reports]
        if any(b <= a for a, b in zip(goodputs, goodputs[1:])):
            failures.append(
                f"goodput not strictly increasing: {goodputs}"
            )
    return failures
