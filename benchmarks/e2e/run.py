#!/usr/bin/env python3
"""End-to-end benchmark of the simulator and its serving stack.

    python3 benchmarks/e2e/run.py --seed 0 [--workload NAME] [--seconds 15] [--trace]

Runs each workload (all four without ``--workload``) in its own process,
checks every output against the recorded one, and prints, as the last
line per workload, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Untraced, the metrics are the end-to-end ones, with times
normalised to a reference host speed (see ``speed.py``); with
``--trace`` they are the per-layer ones, and the per-layer table and
Perfetto traces are written to ``benchmarks/e2e/out/``.

``--record-expected`` re-records ``benchmarks/e2e/expected/`` from the
current code, for a change that means to alter simulated results.
See README.md for the workloads, the metrics and how to compare commits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Job classes of the latency metrics (serve-mixed's request classes).
JOB_CLASSES = ("interactive", "batch")
#: Latency percentiles reported per job class. A serve run completes
#: 160 to 280 requests per class, as host speed allows, so p90 is the
#: highest with at least ten samples beyond it.
PERCENTILES = (50, 90)
#: End-to-end metrics and their units; every workload reports each.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    **{f"latency_ms.{c}.p{q}": "ms" for c in JOB_CLASSES for q in PERCENTILES},
}
#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: A run that has not finished by then is abandoned with a non-zero exit.
RUN_LIMIT_S = 170
#: Serve metrics reported per layer, and their units (see README.md).
SERVE_LAYER = {
    "serve.wire_ms.mean": "ms",
    "serve.queue_wait_ms.mean": "ms",
    "serve.exec_ms.mean": "ms",
    "serve.coalesced_ratio": "ratio",
    "serve.executed": "count",
    "serve.worker_restarts": "count",
}


def per_layer_units() -> dict[str, str]:
    from simload import SIM_COUNTERS
    from tracer import STAT_NAMES

    units = {}
    for name in STAT_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({"other.self_s": "s", "trace.overhead": "ratio"})
    units.update({f"sim.{c}": "count" for c in SIM_COUNTERS})
    units.update(SERVE_LAYER)
    return units


def latency_metrics(by_class: dict[str, list[float]]) -> dict[str, float]:
    """``latency_ms.<class>.p<q>`` from seconds per class.

    Percentiles are Harrell-Davis estimates, a weighted mean of every
    order statistic. Where neighbouring samples come from different
    units (backends-golden's p50 falls between a 27 ms and a 44 ms one),
    interpolating between the two nearest would carry their noise alone.
    """
    from scipy.stats.mstats import hdquantiles

    out = {}
    for job_class, latencies_s in by_class.items():
        ms = [v * 1e3 for v in latencies_s]
        if len(ms) == 1:  # the estimate is undefined for one sample
            values = ms * len(PERCENTILES)
        else:
            values = hdquantiles(ms, prob=[q / 100 for q in PERCENTILES])
        out.update({f"latency_ms.{job_class}.p{q}": float(v)
                    for q, v in zip(PERCENTILES, values)})
    return out


# -- workload processes ------------------------------------------------------


class Child:
    """One workload process (``simload.py`` or ``serveload.py``), which
    reports JSON-line events on its stdout."""

    def __init__(self, script: str, *args: str):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args], cwd=ROOT,
            stdout=subprocess.PIPE,
        )

    def event(self, name: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.finish()
            raise RuntimeError(f"workload process exited before {name!r}")
        event = json.loads(line)
        if event.get("event") != name:
            raise RuntimeError(f"expected {name!r}, got {line!r}")
        return event

    def finish(self) -> float:
        """Wait for the process; its peak resident set in MB."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode:
            raise RuntimeError(f"workload process exited with {self.proc.returncode}")
        return usage.ru_maxrss / 1024

    def stop(self) -> None:
        """End the process if it still runs; SIGTERM lets it clean up."""
        if self.proc.returncode is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _sim(workload: str, seed: int, seconds: float, *flags: str) -> tuple[Child, float]:
    """Start ``simload.py``; the process and its normalised set-up time."""
    from speed import normalise

    child = Child("simload.py", "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), *flags)
    try:
        ready = child.event("ready")
    except BaseException:
        child.stop()
        raise
    return child, normalise(ready["speed_samples"], child.t0, time.perf_counter())


def _probe(workload: str, seed: int, seconds: float) -> float:
    child, setup_s = _sim(workload, seed, seconds, "--probe")
    try:
        child.finish()
    finally:
        child.stop()
    return setup_s


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Set-up is sampled before and after the passes, so the median spans
    # the run rather than one moment of it.
    setups = [] if trace else [_probe(workload, seed, seconds)
                               for _ in range(SETUP_REPEATS // 2)]
    child, setup_s = _sim(workload, seed, seconds, *["--trace"] * trace)
    try:
        setups.append(setup_s)
        passes = child.event("done")["passes"]
        peak_rss_mb = child.finish()
    finally:
        child.stop()
    out = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [line for p in passes for line in p["problems"]],
    }
    if trace:
        untraced, traced = passes
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["pass_s"] / untraced["pass_s"]
        layers.update({f"sim.{k}": v for k, v in traced["sim"].items()})
        layers.update(dict.fromkeys(SERVE_LAYER, 0))
        out.update(layers=layers, traced_pass_s=traced["pass_s"],
                   perfetto=[traced["perfetto"]])
        return out
    setups += [_probe(workload, seed, seconds)
               for _ in range(SETUP_REPEATS - len(setups))]
    per_unit: dict[str, list[float]] = {}
    for p in passes:
        for uid, dt in p["unit_s"].items():
            per_unit.setdefault(uid, []).append(dt)
    # Each unit's median time over the passes: its typical latency.
    unit_s = [statistics.median(t) for t in per_unit.values()]
    completed = sum(map(len, per_unit.values()))
    out["samples"] = {"setup_s": len(setups), "pass_s": len(passes),
                      "units": len(unit_s), "unit_runs": completed}
    out["raw_pass_s"] = [sum(p["raw_unit_s"].values()) for p in passes]
    out["metrics"] = {
        "setup_s": statistics.median(setups),
        "pass_s": sum(unit_s),
        "throughput_rps": completed / sum(sum(p["unit_s"].values()) for p in passes),
        "peak_rss_mb": peak_rss_mb,
        # A sim workload has one class of work, so both class names
        # carry the same per-unit latencies.
        **latency_metrics(dict.fromkeys(JOB_CLASSES, unit_s)),
    }
    return out


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    child = Child("serveload.py", "--seed", str(seed), "--seconds", str(seconds),
                  "--setups", str(SETUP_REPEATS), *["--trace"] * trace)
    try:
        done = child.event("done")
        child.finish()
    finally:
        child.stop()
    runs = done["runs"]
    requests = [r for run in runs for r in run["requests"]]
    out = {
        "attempted": len(requests),
        "failed": sum(not r["ok"] for r in requests),
        "problems": [line for run in runs for line in run["problems"]],
    }
    res = runs[-1]
    latencies = [r["latency_s"] for r in res["requests"]]
    if not trace:
        by_class = {c: [r["latency_s"] for r in res["requests"] if r["class"] == c]
                    for c in JOB_CLASSES}
        out["samples"] = {"setup_s": len(done["setup_s"]), "pass_s": len(res["pass_s"]),
                          **{c: len(v) for c, v in by_class.items()}}
        out["raw_pass_s"] = res["raw_pass_s"]
        out["metrics"] = {
            "setup_s": statistics.median(done["setup_s"]),
            "pass_s": statistics.median(res["pass_s"]),
            "throughput_rps": (len(latencies) - out["failed"]) / sum(res["pass_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            **latency_metrics(by_class),
        }
        return out
    untraced = runs[0]
    m = res["server_metrics"]
    jobs, lat = m["jobs"], m["latency_s"]
    layers = dict.fromkeys(per_layer_units(), 0)
    layers.update({
        "trace.overhead": res["pass_s"][0] / untraced["pass_s"][0],
        "serve.wire_ms.mean": statistics.fmean(latencies) * 1e3
        - lat["total"]["mean"] * 1e3,
        "serve.queue_wait_ms.mean": lat["queue_wait"]["mean"] * 1e3,
        "serve.exec_ms.mean": lat["execution"]["mean"] * 1e3,
        "serve.coalesced_ratio": jobs["coalesced"] / jobs["submitted"],
        "serve.executed": jobs["executed"],
        "serve.worker_restarts": m["workers"]["restarts"],
    })
    out.update(layers=layers, traced_pass_s=res["pass_s"][0],
               perfetto=res["perfetto"])
    return out


# -- reporting -----------------------------------------------------------------


def layer_table(workload: str, res: dict) -> list[str]:
    """The per-layer table; checks that self times add up to the pass."""
    layers, pass_s = res["layers"], res["traced_pass_s"]
    rows = sorted(
        (name[: -len(".self_s")] for name in layers if name.endswith(".self_s")),
        key=lambda n: -layers[f"{n}.self_s"],
    )
    lines = [f"# {workload}: per-layer self time of one traced pass ({pass_s:.3f} s)",
             f"{'function':<48} {'calls':>10} {'self_s':>9} {'share':>7}"]
    for name in rows:
        self_s = layers[f"{name}.self_s"]
        calls = layers.get(f"{name}.calls", "")
        lines.append(f"{name:<48} {calls:>10} {self_s:>9.3f} {self_s / pass_s:>7.1%}")
    if workload != "serve-mixed":
        total = sum(layers[f"{n}.self_s"] for n in rows)
        error = abs(total - pass_s) / pass_s
        lines.append(f"self_s + other.self_s = {total:.3f} s "
                     f"(traced pass_s {pass_s:.3f} s, off by {error:.4%})")
        if error > 0.01:
            raise RuntimeError(f"{workload}: self times do not add up to pass_s")
    for name in sorted(layers):
        if not name.endswith((".calls", ".self_s")):
            lines.append(f"{name:<48} {layers[name]}")
    return lines


def validate_traces(paths: list[str]) -> None:
    from repro.profiling.timeline import validate_perfetto

    for path in paths:
        validate_perfetto(json.loads(Path(path).read_text()))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "serve-mixed":
        res = run_serve(seed, seconds, trace)
    else:
        res = run_sim(workload, seed, seconds, trace)
    for line in res["problems"]:
        print(f"FAILED {line}")
    if trace:
        validate_traces(res["perfetto"])
        table = layer_table(workload, res)
        (OUT / f"{workload}.layers.txt").write_text("\n".join(table) + "\n")
        print("\n".join(table))
        units, values = per_layer_units(), res["layers"]
    else:
        units, values = END_TO_END, res["metrics"]
        print(f"# {workload}: seed {seed}, samples {res['samples']}, raw pass "
              f"seconds {[round(s, 3) for s in res['raw_pass_s']]}")
        for name, unit in units.items():
            print(f"{name:<28} {values[name]:12.4f} {unit}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def record_expected() -> int:
    """Re-record the expected outputs of every full-scale unit."""
    from checks import SystemCounters, record_expected as record
    from repro.bench.experiments import run_experiment
    from workloads import UNITS

    counters = SystemCounters()
    counters.install()
    for workload in UNITS:
        for unit in UNITS[workload]():
            if unit.full_scale:
                result = run_experiment(unit.exp_id, **unit.kwargs())
                print(f"recorded {record(unit, result, counters.take())}")
    return 0


def _abandon(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per workload (untraced)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run instead")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.record_expected:
        return record_expected()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {WORKLOADS}")
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _abandon)
    # Unwind on SIGTERM too, so the workload process is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for workload in [args.workload] if args.workload else WORKLOADS:
        signal.alarm(RUN_LIMIT_S)
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        signal.alarm(0)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
