"""Golden-trace regression gate for the experiment registry.

Every registered experiment, run at one fixed small configuration
(:data:`GOLDEN_SCALE`), produces a canonical **fingerprint**: the full
result payload (rows, columns, title, notes) with floats canonicalised
to 12-significant-digit strings, hashed with SHA-256. Fingerprints are
committed under ``tests/golden/`` and checked by ``repro-bench verify``
(and CI), so any change to the model's *numbers* — intended or not —
is visible in review as a golden-file diff rather than sliding through
silently. Intentional model changes regenerate the files with
``repro-bench verify --update-golden`` (or ``benchmarks/update_golden.py``).

Float canonicalisation uses ``repr``-stable ``%.12g`` formatting: well
below double precision noise amplification thresholds for these closed-
form models (the simulator is deterministic — no RNG, no wall clock),
yet forgiving of non-semantic float-formatting churn.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: The fixed small configuration every golden fingerprint is computed at.
#: 1/64 of the paper's testbed keeps full-registry verification fast
#: while preserving every oversubscription and page-count ratio
#: (``SystemConfig.scaled`` shrinks workloads and capacities together).
GOLDEN_SCALE = 1.0 / 64.0

#: Bumped when the fingerprint payload format (not the model) changes.
GOLDEN_FORMAT = 1

#: Default on-disk location, resolved relative to the repository layout
#: (``src/repro/check/golden.py`` -> ``tests/golden``).
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_kwargs(exp_id: str, mem_arch: str = "gh200") -> dict:
    """The pinned kwargs an experiment is fingerprinted at.

    The default backend is omitted from the kwargs so the GH200 golden
    files recorded before backends existed stay byte-identical; each
    non-default backend gets its own golden set under
    ``tests/golden/<backend>/``.
    """
    kwargs: dict = {"scale": GOLDEN_SCALE}
    if exp_id == "topo_scaling":
        kwargs["superchips"] = (1, 2, 4)
    if mem_arch != "gh200":
        kwargs["mem_arch"] = mem_arch
    return kwargs


def golden_dir_for(mem_arch: str, golden_dir=None) -> Path:
    """The golden-file directory for one backend (the repository default
    unless overridden)."""
    base = Path(golden_dir or DEFAULT_GOLDEN_DIR)
    return base if mem_arch == "gh200" else base / mem_arch


def _canonical(value):
    """JSON-stable canonical form: floats as 12-significant-digit
    strings (handles inf/nan portably), tuples as lists, dict keys
    stringified."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def result_fingerprint(result, mem_arch: str = "gh200") -> dict:
    """Canonical payload + digest of one :class:`ExperimentResult`."""
    payload = {
        "exp_id": result.exp_id,
        "title": result.title,
        "columns": _canonical(result.column_names()),
        "rows": _canonical(result.rows),
        "notes": _canonical(list(result.notes)),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "format": GOLDEN_FORMAT,
        "digest": digest,
        "kwargs": _canonical(golden_kwargs(result.exp_id, mem_arch)),
        **payload,
    }


def compute_fingerprint(exp_id: str, mem_arch: str = "gh200") -> dict:
    """Run ``exp_id`` at the golden configuration and fingerprint it."""
    from ..bench.experiments import run_experiment

    kwargs = golden_kwargs(exp_id, mem_arch)
    return result_fingerprint(run_experiment(exp_id, **kwargs), mem_arch)


def _golden_path(exp_id: str, golden_dir) -> Path:
    return Path(golden_dir) / f"{exp_id}.json"


def load_golden(exp_id: str, golden_dir=None) -> dict | None:
    path = _golden_path(exp_id, golden_dir or DEFAULT_GOLDEN_DIR)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_golden(fingerprint: dict, golden_dir=None) -> Path:
    golden_dir = Path(golden_dir or DEFAULT_GOLDEN_DIR)
    golden_dir.mkdir(parents=True, exist_ok=True)
    path = _golden_path(fingerprint["exp_id"], golden_dir)
    path.write_text(json.dumps(fingerprint, indent=2, sort_keys=True) + "\n")
    return path


def _cell_value(value):
    """A canonical cell read back as a number where it is one (a NaN
    stays a string, so it is compared as text)."""
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            return value
        return number if number == number else value
    return value


def _as_result(payload: dict):
    from ..bench.harness import ExperimentResult

    rows = [
        {col: _cell_value(v) for col, v in row.items()}
        for row in payload.get("rows", [])
    ]
    return ExperimentResult(
        payload.get("exp_id", ""), payload.get("title", ""), rows=rows
    )


def describe_divergence(expected: dict, actual: dict) -> str:
    """Every difference between two fingerprint payloads, one per line:
    title, columns and notes, the row count, and each changed cell.
    Numeric cells are compared by :func:`repro.bench.compare.diff_results`
    at the payloads' 12 significant digits."""
    from ..bench.compare import diff_results

    lines = [
        f"field {key!r} differs"
        for key in ("title", "columns", "notes")
        if expected.get(key) != actual.get(key)
    ]
    exp_rows = expected.get("rows", [])
    act_rows = actual.get("rows", [])
    if len(exp_rows) != len(act_rows):
        lines.append(f"row count {len(exp_rows)} -> {len(act_rows)}")
    deltas = diff_results(_as_result(expected), _as_result(actual))
    lines += [
        f"row {d.row} column {d.column!r}: {d.before:.12g} -> {d.after:.12g}"
        for d in deltas
    ]
    numeric = {(d.row, d.column) for d in deltas}
    # diff_results covers cells numeric on both sides; report every
    # other changed one.
    for i, (e, a) in enumerate(zip(exp_rows, act_rows)):
        for col in sorted(set(e) | set(a)):
            if e.get(col) != a.get(col) and (i, col) not in numeric:
                lines.append(
                    f"row {i} column {col!r}: {e.get(col)!r} -> {a.get(col)!r}"
                )
    if not lines:
        return "payloads equal but digests differ (format change?)"
    return "\n".join(lines)


def verify_experiments(
    exp_ids=None, *, golden_dir=None, update: bool = False,
    mem_arch: str = "gh200",
) -> list[dict]:
    """Check (or regenerate) golden fingerprints for ``exp_ids``.

    Returns one report dict per experiment with ``status`` in
    ``{"ok", "mismatch", "missing", "updated"}``; ``mismatch`` and
    ``missing`` entries carry a ``detail`` string (for a mismatch, one
    line per difference). Non-default backends verify against their own
    golden set (``tests/golden/<backend>/``).
    """
    from ..bench.experiments import experiment_ids

    exp_ids = list(exp_ids) if exp_ids else experiment_ids()
    golden_dir = golden_dir_for(mem_arch, golden_dir)
    reports = []
    for exp_id in exp_ids:
        actual = compute_fingerprint(exp_id, mem_arch)
        expected = load_golden(exp_id, golden_dir)
        report = {"exp_id": exp_id, "digest": actual["digest"]}
        if update:
            path = write_golden(actual, golden_dir)
            report.update(status="updated", path=str(path))
        elif expected is None:
            report.update(
                status="missing",
                detail=f"no golden file {_golden_path(exp_id, golden_dir)}; "
                "run with --update-golden to record one",
            )
        elif expected["digest"] == actual["digest"]:
            report.update(status="ok")
        else:
            report.update(
                status="mismatch",
                expected=expected["digest"],
                detail=describe_divergence(expected, actual),
            )
        reports.append(report)
    return reports


def main_verify(argv=None) -> int:
    """``repro-bench verify`` — golden-fingerprint regression gate."""
    import argparse
    import os

    from ..bench.experiments import experiment_ids

    parser = argparse.ArgumentParser(
        prog="repro-bench verify",
        description=(
            "Re-run registered experiments at the pinned golden "
            f"configuration (scale={GOLDEN_SCALE:g}) and compare result "
            "fingerprints against tests/golden/."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXP",
        help="experiment ids to verify (default: the whole registry)",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite golden files from the current model (intentional "
        "model changes)",
    )
    parser.add_argument(
        "--golden-dir",
        default=None,
        help=f"golden-file directory (default: {DEFAULT_GOLDEN_DIR})",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run with the memory-model invariant sanitizer enabled "
        "(REPRO_SANITIZE=1)",
    )
    from ..mem.arch import architecture_names

    parser.add_argument(
        "--mem-arch",
        default="gh200",
        choices=architecture_names(),
        help="memory-architecture backend to verify; non-default "
        "backends use tests/golden/<backend>/ (default: gh200)",
    )
    args = parser.parse_args(argv)

    known = experiment_ids()
    for exp_id in args.experiments:
        if exp_id not in known:
            parser.error(f"unknown experiment {exp_id!r}; known: {known}")
    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"

    reports = verify_experiments(
        args.experiments or None,
        golden_dir=args.golden_dir,
        update=args.update_golden,
        mem_arch=args.mem_arch,
    )
    width = max(len(r["exp_id"]) for r in reports)
    failed = 0
    for r in reports:
        line = f"verify {r['exp_id']:<{width}}  {r['status']}"
        if r["status"] in ("ok", "updated"):
            line += f"  ({r['digest'][:12]})"
        else:
            failed += 1
            line += "\n    " + r["detail"].replace("\n", "\n    ")
            if "expected" in r:
                line += (
                    f"\n    expected {r['expected'][:12]} "
                    f"got {r['digest'][:12]}"
                )
        print(line)
    total = len(reports)
    if failed:
        print(f"{failed}/{total} experiment(s) diverged from golden")
        return 1
    verb = "updated" if args.update_golden else "verified"
    print(f"{verb} {total}/{total} experiment fingerprints")
    return 0
