"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from checks import (  # noqa: E402
    Checker,
    SystemCounters,
    record_expected,
    result_from_payload,
)
from repro.bench.experiments import run_experiment  # noqa: E402
from simload import run_pass  # noqa: E402
from speed import REF_S, SpeedProbe  # noqa: E402
from tracer import STAT_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Unit, pass_orders, serve_pass_units  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _serve_sequence(seed: int, passes: int = 3) -> list[str]:
    orders = pass_orders(serve_pass_units(), seed)
    return [u.uid for _ in range(passes) for u in next(orders)]


def test_serve_sequence_is_a_function_of_the_seed():
    assert _serve_sequence(7) == _serve_sequence(7)
    assert _serve_sequence(7) != _serve_sequence(8)
    # Seeds permute the work; they do not change it.
    assert sorted(_serve_sequence(7)) == sorted(_serve_sequence(8))


def test_every_serve_key_is_requested_each_pass():
    units = serve_pass_units()
    assert len({u.uid for u in units}) == 24
    assert all(u.kwargs()["scale"] == 1 / 64 for u in units)
    classes = [u.job_class for u in units]
    assert classes.count("interactive") == classes.count("batch")


def _recorded(tmp_path: Path) -> tuple[Unit, Path]:
    """A full-scale unit (table1: instant) with its expected output
    recorded under ``tmp_path``."""
    unit = Unit("table1", "gh200", True)
    counters = SystemCounters()
    counters.install()
    try:
        result = run_experiment(unit.exp_id, **unit.kwargs())
        path = record_expected(unit, result, counters.take(), tmp_path)
    finally:
        counters.uninstall()
    return unit, path


def _pass_with(root: Path, unit: Unit) -> dict:
    counters = SystemCounters()
    counters.install()
    try:
        return run_pass([unit], Checker(root), counters)
    finally:
        counters.uninstall()


def test_recorded_output_passes(tmp_path):
    unit, _ = _recorded(tmp_path)
    res = _pass_with(tmp_path, unit)
    assert (res["attempted"], res["failed"], res["problems"]) == (1, 0, [])


def test_perturbed_expected_fingerprint_counts_as_failure(tmp_path):
    unit, path = _recorded(tmp_path)
    expected = json.loads(path.read_text())
    expected["digest"] = "0" * 64
    expected["rows"][0]["migration"] = "perturbed"
    path.write_text(json.dumps(expected))
    res = _pass_with(tmp_path, unit)
    assert res["failed"] == 1
    assert any("row 0 migration: 'perturbed'" in line for line in res["problems"])


def test_changed_counter_counts_as_failure(tmp_path):
    unit, path = _recorded(tmp_path)
    expected = json.loads(path.read_text())
    counters = expected["counters"]
    counters["tlb_shootdowns"] = counters.get("tlb_shootdowns", 0) + 1
    path.write_text(json.dumps(expected))
    res = _pass_with(tmp_path, unit)
    assert res["failed"] == 1
    assert any("counter tlb_shootdowns" in line for line in res["problems"])


def test_changed_numeric_cell_is_listed():
    unit = Unit("fig3", "gh200", True)
    checker = Checker()
    want = checker.expected(unit)
    result = result_from_payload(want)
    result.rows[2]["system_speedup"] = 99.0
    lines = checker.check(unit, result)
    assert any("row 2 system_speedup" in line and "99.0" in line for line in lines)


def test_self_times_of_nested_calls_sum_to_the_outer_call():
    tracer = Tracer()
    outer_name, inner_name, leaf_name = STAT_NAMES[:3]

    leaf = tracer.wrap(leaf_name, lambda: time.sleep(0.01), span=False)

    def _inner():
        time.sleep(0.01)
        leaf()
        leaf()

    inner = tracer.wrap(inner_name, _inner, span=False)

    def _outer():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap(outer_name, _outer, span=False)
    t0 = time.perf_counter()
    outer()
    inclusive = time.perf_counter() - t0
    stats = tracer.stats
    assert [stats[n][0] for n in (outer_name, inner_name, leaf_name)] == [1, 1, 2]
    total = sum(stats[n][1] for n in (outer_name, inner_name, leaf_name))
    assert abs(total - tracer.covered_s) < 1e-9
    assert tracer.covered_s <= inclusive < tracer.covered_s + 0.005
    for name in (outer_name, inner_name):
        assert stats[name][1] >= 0.01
    assert stats[leaf_name][1] >= 0.02


def _python_work(rounds: int) -> None:
    for _ in range(rounds):
        sum(i * i for i in range(1000))


def test_injected_cost_shows_in_full_in_normalised_pass_s(monkeypatch):
    """A fixed CPU cost added to one unit raises the normalised pass time
    by its full size: its time priced at the host speed the probe saw in
    the passes without it. If the cost slowed the probe's own samples,
    the correction would cancel part of it and the rise would fall short.
    """
    import simload

    units = [Unit(e, "upm", False) for e in ("fig9", "fig12", "fig13")]
    real = simload.run_experiment
    cost_spans = []

    def slowed(exp_id, **kwargs):
        result = real(exp_id, **kwargs)
        if exp_id == "fig12":
            t0 = time.perf_counter()
            _python_work(6000)
            cost_spans.append((t0, time.perf_counter()))
        return result

    counters = SystemCounters()
    counters.install()
    probe = SpeedProbe()
    spans = {False: [], True: []}
    probe.start()
    try:
        for _ in range(5):  # interleaved, so host drift hits both alike
            for injected in (False, True):
                monkeypatch.setattr(simload, "run_experiment", slowed if injected else real)
                res = run_pass(units, Checker(), counters)
                assert res["failed"] == 0
                spans[injected].append(list(res["unit_s"].values()))
    finally:
        probe.stop()
        counters.uninstall()

    def sampled(t0, t1):
        return [s for s in probe.samples if t0 <= s[0] < t1]

    base_cpu = [cpu for p in spans[False]
                for _, _, cpu in sampled(min(p)[0], max(t1 for _, t1 in p))]
    cost_s = [t1 - t0 - sum(wall for _, wall, _ in sampled(t0, t1)) for t0, t1 in cost_spans]
    expected = statistics.median(cost_s) * REF_S / statistics.median(base_cpu)
    pass_s = {k: statistics.median(sum(probe.normalise(*s) for s in p) for p in passes)
              for k, passes in spans.items()}
    # Sub-second host drift limits a run this short to about +-10%.
    assert pass_s[True] - pass_s[False] == pytest.approx(expected, rel=0.2)


def test_tracer_restores_every_wrapped_function():
    import importlib

    from tracer import WRAPPED

    before = [importlib.import_module(m).__dict__[c].__dict__[f]
              for _, m, c, f, _ in WRAPPED]
    with Tracer():
        from repro.mem.pageset import PageSet

        assert len(PageSet.of([3, 1, 3])) == 2
    after = [importlib.import_module(m).__dict__[c].__dict__[f]
             for _, m, c, f, _ in WRAPPED]
    assert all(a is b for a, b in zip(before, after))


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "qv-oversub",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
