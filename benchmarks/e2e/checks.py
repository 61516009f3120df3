"""Output checks: every unit's result must equal the recorded one.

A simulator-only speed-up must leave every simulated statistic
identical, so each unit is compared cell for cell:

* golden-scale units and serve replies against the committed digests in
  ``tests/golden/<arch>/`` (``tests/golden/`` for gh200);
* full-scale units against ``benchmarks/e2e/expected/<arch>/``, which
  holds the same fingerprint plus the exact ``HardwareCounters.total``
  sums over every system the unit built. ``run.py --record-expected``
  writes those files.

A mismatch lists every changed cell (``repro.bench.compare.diff_results``)
and every changed counter.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.compare import diff_results
from repro.bench.harness import ExperimentResult
from repro.check.golden import (
    golden_dir_for,
    load_golden,
    result_fingerprint,
    write_golden,
)
from repro.core.runtime import GraceHopperSystem

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


class SystemCounters:
    """Collects the :class:`HardwareCounters` of every system built while
    installed, by wrapping ``GraceHopperSystem.__init__``; ``take()``
    returns the summed totals and starts a new collection."""

    def __init__(self):
        self._counters: list = []
        self._raw = None

    def install(self) -> None:
        raw = self._raw = GraceHopperSystem.__dict__["__init__"]
        collected = self._counters

        def __init__(system, *args, **kwargs):
            raw(system, *args, **kwargs)
            collected.append(system.counters)

        GraceHopperSystem.__init__ = __init__

    def uninstall(self) -> None:
        if self._raw is not None:
            GraceHopperSystem.__init__ = self._raw
            self._raw = None

    def take(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for counters in self._counters:
            for name, value in counters.total.as_dict().items():
                totals[name] = totals.get(name, 0) + value
        self._counters.clear()
        return totals


def result_from_payload(payload: dict) -> ExperimentResult:
    """An :class:`ExperimentResult` from a serve reply's ``result`` or a
    fingerprint. Canonical float strings are read back as floats so
    :func:`diff_results` can compare them."""

    def value(v):
        if isinstance(v, str):
            try:
                return float(v)
            except ValueError:
                return v
        return v

    rows = payload["rows"]
    if "digest" in payload:  # a canonicalised fingerprint
        rows = [{k: value(v) for k, v in row.items()} for row in rows]
    return ExperimentResult(
        payload["exp_id"], payload["title"], rows=rows,
        notes=list(payload["notes"]), columns=payload.get("columns"),
    )


def expected_dir(unit, root: Path = EXPECTED_DIR) -> Path:
    if unit.full_scale:
        return root / unit.mem_arch
    return golden_dir_for(unit.mem_arch)


class Checker:
    """Compares unit outputs with their expected fingerprints."""

    def __init__(self, root: Path = EXPECTED_DIR):
        self.root = root
        self._expected: dict[str, dict | None] = {}

    def expected(self, unit) -> dict | None:
        if unit.uid not in self._expected:
            self._expected[unit.uid] = load_golden(
                unit.exp_id, expected_dir(unit, self.root)
            )
        return self._expected[unit.uid]

    def check(self, unit, result: ExperimentResult,
              counters: dict[str, int] | None = None) -> list[str]:
        """Every difference from the expected output, one line each;
        an empty list means the unit is correct."""
        want = self.expected(unit)
        if want is None:
            return [f"{unit.uid}: no expected output in {expected_dir(unit, self.root)}"]
        got = result_fingerprint(result, unit.mem_arch)
        problems = []
        if got["digest"] != want["digest"]:
            problems.extend(
                f"{unit.uid}: {line}" for line in describe_diff(want, got, result)
            )
        if unit.full_scale and counters is not None:
            expected_counters = want.get("counters", {})
            for name in sorted(set(expected_counters) | set(counters)):
                a, b = expected_counters.get(name, 0), counters.get(name, 0)
                if a != b:
                    problems.append(f"{unit.uid}: counter {name}: {a} -> {b}")
        return problems


def describe_diff(want: dict, got: dict, result: ExperimentResult) -> list[str]:
    lines = [f"digest {want['digest'][:12]} -> {got['digest'][:12]}"]
    for key in ("title", "columns", "notes"):
        if want.get(key) != got.get(key):
            lines.append(f"{key} differs")
    if len(want["rows"]) != len(got["rows"]):
        lines.append(f"row count {len(want['rows'])} -> {len(got['rows'])}")
    for d in diff_results(result_from_payload(want), result):
        # Expected cells are 12-significant-digit canonical values; a
        # cell that only re-rounds is not a change.
        if f"{d.before:.12g}" != f"{d.after:.12g}":
            lines.append(f"row {d.row} {d.column}: {d.before!r} -> {d.after!r}")
    # diff_results covers numeric cells; report every other changed one.
    for i, (a, b) in enumerate(zip(want["rows"], got["rows"])):
        for col in sorted(set(a) | set(b)):
            if a.get(col) != b.get(col) and not _numeric(result.rows[i].get(col)):
                lines.append(f"row {i} {col}: {a.get(col)!r} -> {b.get(col)!r}")
    return lines


def _numeric(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def record_expected(unit, result: ExperimentResult, counters: dict[str, int],
                    root: Path = EXPECTED_DIR) -> Path:
    """Write one full-scale unit's expected fingerprint and counters."""
    fingerprint = result_fingerprint(result, unit.mem_arch)
    fingerprint["kwargs"] = unit.kwargs()
    fingerprint["counters"] = counters
    return write_golden(fingerprint, root / unit.mem_arch)
