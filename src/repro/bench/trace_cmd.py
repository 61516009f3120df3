"""``repro-bench trace``: run experiments with timelines on and export
a merged Chrome/Perfetto trace.

Runs each requested experiment inside a
:class:`~repro.profiling.TimelineSession`, so every system the harness
builds — each shard's sim clock, memory subsystem and C2C link, the
node-level fabric, and the wall-clock runner itself — registers a
timeline without any config plumbing. The merged export puts each
timeline in its own Perfetto "process"; load the JSON at
https://ui.perfetto.dev. The runner records each experiment's wall-clock
run as one ``run:<exp>`` span. The trace is validated (known phases,
timestamp monotonicity per track) before it is written, so a trace that
loads is also structurally sound.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..profiling.timeline import (
    Timeline,
    TimelineSession,
    maybe_timeline,
    to_perfetto,
    validate_perfetto,
)
from .experiments import experiment_ids, run_experiment


def parse_scale(text: str) -> float:
    """Accept ``0.015625`` or the friendlier ``1/64`` form."""
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def _summary_lines(timelines: list[Timeline]) -> list[str]:
    lines = []
    for tl in timelines:
        by_cat: dict[str, tuple[int, float]] = {}
        for span in tl.spans():
            n, t = by_cat.get(span.cat, (0, 0.0))
            by_cat[span.cat] = (n + 1, t + span.duration)
        cats = ", ".join(
            f"{cat or 'default'}: {n} span(s) / {t * 1e3:.1f} ms"
            for cat, (n, t) in sorted(by_cat.items())
        )
        lines.append(
            f"  {tl.name}: {len(tl)} event(s), {tl.dropped} dropped"
            + (f" [{cats}]" if cats else "")
        )
    return lines


def main_trace(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench trace",
        description="Run experiments with event timelines enabled and "
        "export a merged Perfetto trace (open at https://ui.perfetto.dev).",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help=f"experiment ids ({', '.join(experiment_ids())})",
    )
    parser.add_argument(
        "--scale", type=parse_scale, default=parse_scale("1/64"),
        help="problem/machine scale factor; accepts fractions like 1/64 "
        "(default 1/64 — timelines are for structure, not paper numbers)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="Perfetto trace JSON output path (default trace.json)",
    )
    parser.add_argument(
        "--capacity", type=int, default=None,
        help="per-timeline ring-buffer capacity (events)",
    )
    args = parser.parse_args(argv)

    unknown = [e for e in args.experiments if e not in experiment_ids()]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}")

    with TimelineSession(capacity=args.capacity) as session:
        runner = maybe_timeline(
            None, time.monotonic, name="runner", tag_os_ids=True
        )
        for exp_id in args.experiments:
            start = runner.now()
            run_experiment(exp_id, scale=args.scale)
            runner.complete(
                f"run:{exp_id}", start, runner.now() - start, cat="serve",
                track="runner", scale=args.scale,
            )
            print(f"[traced {exp_id} at scale {args.scale:g}]")

    trace = to_perfetto(session.timelines)
    validate_perfetto(trace)
    with open(args.out, "w") as fh:
        json.dump(trace, fh)
    print(f"wrote {args.out} ({len(trace['traceEvents'])} trace event(s)) "
          f"— open at https://ui.perfetto.dev")

    print("timelines:")
    for line in _summary_lines(session.timelines):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main_trace())
