#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise the spread of each metric.

    python3 benchmarks/e2e/spread.py --runs 10 --out runs.json
    python3 benchmarks/e2e/spread.py --compare runs.json
    python3 benchmarks/e2e/spread.py --compare before.json after.json

The first form runs ``run.py`` once per seed 0..runs-1 on every workload
and appends one *set* to ``--out``: per workload and end-to-end metric,
the median, quartiles (``statistics.quantiles(values, n=4)``), the run
count and the spread ``(q3 - q1) / median``. The file also records the
command, CPU, Python version and the bounds of ``BENCHMARK.json``.
``--compare`` checks medians against those bounds: the first two sets of
one file, or the last sets of two files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median, "values": values}


def measure(workloads, runs: int, seconds: float) -> dict:
    command = [sys.executable, "benchmarks/e2e/run.py", "--seconds", str(seconds)]
    out = {}
    for workload in workloads:
        runs_out, run_s = [], []
        for seed in range(runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*command, "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            run_s.append(time.perf_counter() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}")
            runs_out.append(result["metrics"])
            print(workload, seed, f"{run_s[-1]:.1f}s", {
                k: round(v["value"], 4) for k, v in result["metrics"].items()
            }, flush=True)
        out[workload] = {
            name: summarise([r[name]["value"] for r in runs_out])
            for name in runs_out[0]
        }
        # Wall time of one whole run, for the benchmark's time budget.
        out[workload]["run_s"] = summarise(run_s)
    return out


def compare(before: dict, after: dict, spec: dict) -> int:
    """Print each metric's median change; non-zero if any gets worse by
    more than its bound."""
    worse = 0
    for workload, metrics in before.items():
        for name, b in metrics.items():
            if name not in spec:
                continue
            a = after[workload][name]
            change = (a["median"] - b["median"]) / b["median"]
            sign = 1 if spec[name]["better"] == "lower" else -1
            ok = sign * change <= spec[name]["bound"]
            worse += not ok
            print(f"{workload:<16} {name:<28} {b['median']:>12.4f} -> "
                  f"{a['median']:>12.4f} {change:+8.2%} (bound {spec[name]['bound']:.0%})"
                  f"{'' if ok else '  WORSE'}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs="+", type=Path, metavar="FILE")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    bounds = {name: m["bound"] for name, m in end_to_end.items()}
    if args.compare:
        files = [json.loads(p.read_text())["sets"] for p in args.compare]
        before, after = files[0][:2] if len(files) == 1 else (files[0][-1], files[1][-1])
        return compare(before, after, end_to_end)
    workloads = [w["name"] for w in spec["workloads"]]
    doc = {"command": f"python3 benchmarks/e2e/run.py --workload W --seed S "
                      f"--seconds {args.seconds:g}",
           "cpu": cpu_model(), "nproc": os.cpu_count(),
           "python": platform.python_version(), "bounds": bounds, "sets": []}
    if args.out and args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["sets"].append(measure(workloads, args.runs, args.seconds))
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, metrics in doc["sets"][-1].items():
        for name, m in metrics.items():
            print(f"{workload:<16} {name:<28} median {m['median']:12.4f} "
                  f"spread {m['spread']:.3f} (bound {bounds.get(name, '-')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
