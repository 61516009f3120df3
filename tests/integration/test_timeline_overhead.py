"""Timeline overhead and non-perturbation regression gates.

Three guarantees the observability layer must keep:

* **disabled is free** — with no timeline requested, running a full
  experiment emits zero events (the module-wide emission counter does
  not move), so the hot paths do no allocation or formatting work;
* **enabled is cheap** — a timeline-enabled ``fig3`` at scale 1/64
  stays within 1.25x of the disabled wall time;
* **observation does not perturb** — the golden fingerprint of an
  experiment is bit-identical with timelines on (simulated results
  cannot depend on whether anyone is watching).
"""

import statistics
import time

import pytest

import repro.profiling.timeline as tlmod
from repro.bench.experiments import run_experiment
from repro.check.golden import compute_fingerprint, load_golden
from repro.profiling.timeline import TimelineSession

SCALE = 1 / 64


@pytest.fixture(autouse=True)
def _no_env_flag(monkeypatch):
    monkeypatch.delenv(tlmod.ENV_FLAG, raising=False)


def _pair_ratio(disabled, enabled, pairs: int = 9) -> float:
    """Median over ``pairs`` back-to-back runs of ``enabled``'s wall time
    over ``disabled``'s. The two runs of a pair follow each other, in
    alternating order, so a change in host speed mostly hits both; the
    median drops the few pairs that a change splits. A best-of-n ratio
    instead rests on the single fastest run of each side, and on a host
    whose speed swings by a third it exceeded 1.25 in 3% of windows while
    the overhead was 5%."""
    ratios = []
    for i in range(pairs):
        wall = {}
        for fn in (disabled, enabled)[:: 1 if i % 2 == 0 else -1]:
            t0 = time.perf_counter()
            fn()
            wall[fn] = time.perf_counter() - t0
        ratios.append(wall[enabled] / wall[disabled])
    return statistics.median(ratios)


def test_disabled_mode_emission_is_a_noop():
    run_experiment("fig3", scale=SCALE)  # warm caches/imports
    before = tlmod.TOTAL_EMITTED
    run_experiment("fig3", scale=SCALE)
    assert tlmod.TOTAL_EMITTED == before


def test_enabled_overhead_within_bound():
    def enabled():
        with TimelineSession():
            run_experiment("fig3", scale=SCALE)

    ratio = _pair_ratio(lambda: run_experiment("fig3", scale=SCALE), enabled)
    assert ratio <= 1.25, f"timeline overhead {ratio:.2f}x exceeds 1.25x"


def test_enabled_run_actually_emits():
    with TimelineSession() as session:
        run_experiment("fig3", scale=SCALE)
    assert session.timelines
    assert sum(len(tl) for tl in session.timelines) > 0
    cats = {s.cat for s in session.merged_spans()}
    assert {"sim", "mem", "fabric"} <= cats


def test_golden_fingerprint_unchanged_with_timelines():
    golden = load_golden("fig3")
    assert golden is not None, "fig3 golden missing — run --update-golden"
    with TimelineSession():
        observed = compute_fingerprint("fig3")
    assert observed["digest"] == golden["digest"], (
        "enabling timelines changed simulated results — observability "
        "must be side-effect free"
    )
