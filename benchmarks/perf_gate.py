"""Perf-regression gate for the hot-path microbenchmarks.

Compares ``BENCH_hotpath.json`` files that
``benchmarks/bench_micro_hotpath.py`` wrote on the same machine, from
the commit under test (the change) and from the commit it is measured
against (the parent), given as pairs in the order the runs alternated:

    python benchmarks/perf_gate.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Each side's seconds per entry are the minimum over its runs. A gated
entry fails when the change takes more than :data:`BOUND` times the
parent's seconds, or when no change run records it. Measuring both
sides on one runner keeps host speed out of the ratio; alternating them
and taking minima absorbs drift slower than one run.

When a parent run fails, the entries it did record are still compared;
a missing parent file counts as a run that recorded nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

#: The hot paths the batched epoch executor, the batched eviction charge,
#: the page-id dedup (linear on sorted ids, an occupancy map on dense
#: unsorted ones) and the residency run record own. CI boxes are noisy,
#: so only a >2x regression fails. evict_batch reads about 17x slower
#: with a per-block charging loop, pageset_of_sorted about 3x slower with
#: a sort before the dedup, pageset_of_unsorted about 3.4x and
#: pageset_of_gups about 2.5x slower with the sort in place of the
#: occupancy map, residency_queries about 80x slower with per-page scans
#: in place of the run record, evict_lru_prefix about 20x slower with
#: the dense sort of every resident block in place of the touch record.
GATED = (
    "access_batch_fused",
    "migrator_service",
    "evict_batch",
    "pageset_of_sorted",
    "pageset_of_unsorted",
    "pageset_of_gups",
    "residency_queries",
    "evict_lru_prefix",
)
BOUND = 2.0


def load_benchmarks(path: str) -> dict | None:
    """The ``benchmarks`` block of a results file, or ``None`` when the
    file is missing or unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)["benchmarks"]
    except (OSError, ValueError, KeyError):
        return None


def fastest(runs: list[dict]) -> dict:
    """Per entry, the run with the fewest seconds among ``runs``."""
    best: dict = {}
    for run in runs:
        for name, entry in run.items():
            if name not in best or entry["seconds"] < best[name]["seconds"]:
                best[name] = entry
    return best


def compare(parent: dict, change: dict) -> list[str]:
    """Print one line per entry and return the gate's failures."""
    failures = []
    for name in sorted(set(change) - set(parent)):
        print(f"{name}: new, the parent records no such entry")
    for name in GATED:
        if name not in change:
            failures.append(f"{name} is no longer measured")
            continue
        if name not in parent:
            continue
        base = parent[name]["seconds"]
        now = change[name]["seconds"]
        ratio = now / base
        print(f"{name}: {now:.3e}s vs parent {base:.3e}s ({ratio:.2f}x)")
        if ratio > BOUND:
            failures.append(f"{name} regressed {ratio:.2f}x")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "runs",
        nargs="+",
        metavar="PARENT.json CHANGE.json",
        help="BENCH_hotpath.json of a parent run, then of a change run; "
        "one pair per round",
    )
    args = ap.parse_args(argv)
    if len(args.runs) % 2:
        ap.error("give the results as PARENT.json CHANGE.json pairs")
    parents, changes = [], []
    for path in args.runs[1::2]:
        change = load_benchmarks(path)
        if change is None:
            print(f"perf regression: no results in {path}")
            return 1
        changes.append(change)
    for path in args.runs[0::2]:
        parent = load_benchmarks(path)
        if parent is None:
            print(f"note: no parent results in {path}")
        parents.append(parent or {})
    failures = compare(fastest(parents), fastest(changes))
    if failures:
        print("perf regression: " + "; ".join(failures))
        return 1
    print("perf gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
