"""The process of one sim workload: set up, run timed passes, check.

``run.py`` spawns this file once per set-up measurement. The process
imports the simulator, builds one ``GraceHopperSystem`` per backend the
workload uses, and prints ``{"event": "ready"}`` with the host-speed
samples taken so far; with ``--probe`` it exits there. Otherwise it runs
passes as a closed loop (one thread, one unit at a time) and prints one
``{"event": "done", ...}`` line.

Untraced, passes repeat until ``--seconds`` have elapsed, and unit times
are normalised to the reference host speed (:mod:`speed`). With
``--trace`` it runs one untraced pass and then one pass under the layer
wrappers of :mod:`tracer`, with no speed sampling, and writes the traced
pass's spans as a Perfetto trace to ``out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
if __name__ == "__main__":
    PROBE.start()  # before the imports below: they are part of set-up

from repro.bench.experiments import run_experiment  # noqa: E402
from repro.bench.harness import make_config  # noqa: E402
from repro.check.golden import GOLDEN_SCALE  # noqa: E402
from repro.core.runtime import GraceHopperSystem  # noqa: E402

from checks import Checker, SystemCounters  # noqa: E402
from workloads import FULL_SCALE, SIM_WORKLOADS, UNITS, pass_orders  # noqa: E402

#: Simulated counts reported per workload; a simulator-only change must
#: leave every one identical.
SIM_COUNTERS = (
    "pages_migrated_h2d",
    "pages_evicted",
    "eviction_bytes",
    "c2c_read_bytes",
    "gpu_replayable_faults",
    "managed_far_faults",
    "tlb_shootdowns",
)


def emit(event: dict) -> None:
    print(json.dumps(event), flush=True)


def set_up(units) -> None:
    for arch, full_scale in sorted({(u.mem_arch, u.full_scale) for u in units}):
        scale = FULL_SCALE if full_scale else GOLDEN_SCALE
        GraceHopperSystem(make_config(scale, mem_arch=arch))


def run_pass(order, checker, collector, tracer=None) -> dict:
    """Run every unit once; time only the ``run_experiment`` calls.

    ``unit_s`` maps each unit to its ``(start, end)`` on ``perf_counter``.
    """
    unit_s, problems, failed = {}, [], 0
    sim = dict.fromkeys(SIM_COUNTERS, 0)
    for unit in order:
        if tracer is not None:
            tracer.unit = unit.uid
        t0 = time.perf_counter()
        try:
            result = run_experiment(unit.exp_id, **unit.kwargs())
        except Exception as exc:  # noqa: BLE001 - a failed unit is reported
            collector.take()
            failed += 1
            problems.append(f"{unit.uid}: raised {type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        unit_s[unit.uid] = (t0, t1)
        if tracer is not None:
            tracer.timeline.complete("unit", t0, t1 - t0, cat="bench", unit=unit.uid)
        counters = collector.take()
        for name in SIM_COUNTERS:
            sim[name] += counters.get(name, 0)
        lines = checker.check(unit, result, counters)
        if lines:
            failed += 1
            problems.extend(lines)
    return {"pass_s": sum(t1 - t0 for t0, t1 in unit_s.values()),
            "unit_s": unit_s, "failed": failed,
            "attempted": len(order), "problems": problems, "sim": sim}


def traced_pass(name, order, checker, collector, out_dir: Path) -> dict:
    from repro.profiling.timeline import Timeline, to_perfetto, validate_perfetto

    from tracer import Tracer

    timeline = Timeline(capacity=1 << 21, time_fn=time.perf_counter, name=name)
    tracer = Tracer(timeline)
    with tracer:
        res = run_pass(order, checker, collector, tracer)
    trace = to_perfetto([timeline])
    validate_perfetto(trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.perfetto.json"
    path.write_text(json.dumps(trace))
    layers = tracer.metrics()
    layers["other.self_s"] = res["pass_s"] - tracer.covered_s
    res.update(layers=layers, perfetto=str(path), spans=len(timeline),
               spans_dropped=timeline.dropped)
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=SIM_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    units = UNITS[args.workload]()
    set_up(units)
    collector = SystemCounters()
    collector.install()
    checker = Checker()
    PROBE.sample()  # at least one sample describes set-up
    emit({"event": "ready", "speed_samples": PROBE.samples})
    if args.probe or args.trace:
        PROBE.stop()
        PROBE.samples.clear()
    if args.probe:
        return 0

    # The first pass runs in canonical order: the process's memory
    # high-water depends on unit order (allocator retention), so a
    # seeded first order would make peak_rss_mb a function of the seed
    # (rodinia-inmem: 92.7 MB after fig3 then fig7, 86.4 MB the other
    # way round).
    orders = itertools.chain([units], pass_orders(units, args.seed))
    start = time.perf_counter()
    passes = [run_pass(next(orders), checker, collector)]
    if args.trace:
        passes.append(traced_pass(
            args.workload, next(orders), checker, collector, HERE / "out"))
    while not args.trace and time.perf_counter() - start < args.seconds:
        passes.append(run_pass(next(orders), checker, collector))
    PROBE.stop()
    seconds_of = PROBE.normalise if PROBE.samples else (lambda t0, t1: t1 - t0)
    for p in passes:
        p["raw_unit_s"] = {uid: t1 - t0 for uid, (t0, t1) in p["unit_s"].items()}
        p["unit_s"] = {uid: seconds_of(*span) for uid, span in p["unit_s"].items()}
    emit({"event": "done", "passes": passes})
    return 0


if __name__ == "__main__":
    sys.exit(main())
