"""Compare two exported result sets (before/after a calibration change).

Pairs with :mod:`repro.bench.export`: load two JSON documents produced by
``repro-bench ... --json`` and report per-cell relative deltas, flagging
any change beyond a threshold. :func:`diff_results` is also the cell
comparison behind ``repro-bench verify``'s mismatch report
(:func:`repro.check.golden.describe_divergence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .export import load_json
from .harness import ExperimentResult


@dataclass(frozen=True)
class CellDelta:
    exp_id: str
    row: int
    column: str
    before: float
    after: float

    @property
    def relative(self) -> float:
        if self.before == 0:
            return float("inf") if self.after else 0.0
        return (self.after - self.before) / abs(self.before)


def _numeric_cells(result: ExperimentResult):
    for i, row in enumerate(result.rows):
        for col, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if value == value:  # skip NaN
                    yield i, col, float(value)


def diff_results(
    before: ExperimentResult, after: ExperimentResult
) -> list[CellDelta]:
    """All numeric cell changes between two runs of the same experiment."""
    if before.exp_id != after.exp_id:
        raise ValueError(
            f"experiment mismatch: {before.exp_id} vs {after.exp_id}"
        )
    after_cells = {
        (i, col): v for i, col, v in _numeric_cells(after)
    }
    deltas = []
    for i, col, v in _numeric_cells(before):
        if (i, col) in after_cells and after_cells[(i, col)] != v:
            deltas.append(
                CellDelta(before.exp_id, i, col, v, after_cells[(i, col)])
            )
    return deltas


def diff_files(
    before_path: str | Path,
    after_path: str | Path,
    *,
    threshold: float = 0.05,
) -> tuple[list[CellDelta], list[str]]:
    """Diff two exported JSON documents.

    Returns ``(significant_deltas, messages)`` where a delta is
    significant when its relative change exceeds ``threshold``. Messages
    include experiments present on only one side.
    """
    before = {r.exp_id: r for r in load_json(before_path)}
    after = {r.exp_id: r for r in load_json(after_path)}
    messages = []
    for missing in sorted(set(before) - set(after)):
        messages.append(f"experiment {missing} missing from 'after'")
    for added in sorted(set(after) - set(before)):
        messages.append(f"experiment {added} new in 'after'")
    significant: list[CellDelta] = []
    for exp_id in sorted(set(before) & set(after)):
        for delta in diff_results(before[exp_id], after[exp_id]):
            if abs(delta.relative) > threshold:
                significant.append(delta)
    return significant, messages


def render_diff(deltas: list[CellDelta], messages: list[str]) -> str:
    lines = list(messages)
    for d in sorted(deltas, key=lambda d: -abs(d.relative)):
        lines.append(
            f"{d.exp_id} row {d.row} {d.column}: "
            f"{d.before:g} -> {d.after:g} ({d.relative:+.1%})"
        )
    if not lines:
        return "no significant differences"
    return "\n".join(lines)
