"""Golden fingerprints: determinism, round-trip, mismatch reporting."""

import json

import pytest

from repro.bench.harness import ExperimentResult
from repro.check import (
    GOLDEN_SCALE,
    compute_fingerprint,
    golden_kwargs,
    load_golden,
    result_fingerprint,
    verify_experiments,
    write_golden,
)
from repro.check.golden import describe_divergence, main_verify

FAST = "table1"  # cheapest registered experiment


def _result(**over):
    kw = dict(
        exp_id="table1",
        title="demo",
        rows=[{"x": 1, "t": 0.125}, {"x": 2, "t": 0.25}],
        notes=["a note"],
    )
    kw.update(over)
    return ExperimentResult(**kw)


def test_fingerprint_is_deterministic():
    a = result_fingerprint(_result())
    b = result_fingerprint(_result())
    assert a == b
    assert len(a["digest"]) == 64


def test_fingerprint_is_sensitive_to_rows_and_floats():
    base = result_fingerprint(_result())
    assert (
        result_fingerprint(_result(rows=[{"x": 1, "t": 0.1250001}]))["digest"]
        != base["digest"]
    )
    assert (
        result_fingerprint(_result(notes=["other"]))["digest"]
        != base["digest"]
    )


def test_fingerprint_ignores_subnoise_float_churn():
    # %.12g canonicalisation: identical to 12 significant digits.
    a = result_fingerprint(_result(rows=[{"t": 0.1}]))
    b = result_fingerprint(_result(rows=[{"t": 0.1 + 1e-16}]))
    assert a["digest"] == b["digest"]


def test_golden_kwargs_pins_topo_scaling():
    assert golden_kwargs("fig3") == {"scale": GOLDEN_SCALE}
    assert golden_kwargs("topo_scaling")["superchips"] == (1, 2, 4)


def test_write_and_load_roundtrip(tmp_path):
    fp = result_fingerprint(_result())
    path = write_golden(fp, tmp_path)
    assert path == tmp_path / "table1.json"
    loaded = load_golden("table1", tmp_path)
    assert loaded == json.loads(json.dumps(fp))  # canonical payload
    assert load_golden("absent", tmp_path) is None


def test_verify_statuses(tmp_path):
    # missing -> updated -> ok -> mismatch
    (r,) = verify_experiments([FAST], golden_dir=tmp_path)
    assert r["status"] == "missing" and "update-golden" in r["detail"]

    (r,) = verify_experiments([FAST], golden_dir=tmp_path, update=True)
    assert r["status"] == "updated"

    (r,) = verify_experiments([FAST], golden_dir=tmp_path)
    assert r["status"] == "ok"

    # Tamper with one stored row value: mismatch, with a row/column hint.
    path = tmp_path / f"{FAST}.json"
    stored = json.loads(path.read_text())
    col = next(iter(stored["rows"][0]))
    stored["rows"][0][col] = "tampered"
    stored["digest"] = "0" * 64
    path.write_text(json.dumps(stored))
    (r,) = verify_experiments([FAST], golden_dir=tmp_path)
    assert r["status"] == "mismatch"
    assert "row 0" in r["detail"] and col in r["detail"]


def test_first_divergence_hints():
    a = {"title": "t", "columns": ["x"], "notes": [], "rows": [{"x": 1}]}
    b = dict(a, rows=[{"x": 2}])
    assert "row 0 column 'x'" in describe_divergence(a, b)
    assert "row count" in describe_divergence(a, dict(a, rows=[]))
    assert "field 'title'" in describe_divergence(a, dict(a, title="u"))
    assert "digests" in describe_divergence(a, dict(a))


def test_divergence_lists_every_changed_cell():
    """A golden with two changed cells reports both, each at the
    fingerprint's 12 significant digits, plus changed non-numeric cells."""
    golden = result_fingerprint(_result(rows=[
        {"x": 1, "t": 0.125, "tag": "a"}, {"x": 2, "t": 0.25, "tag": "b"},
    ]))
    changed = result_fingerprint(_result(rows=[
        {"x": 1, "t": 0.5, "tag": "a"}, {"x": 3, "t": 0.25, "tag": "c"},
    ]))
    lines = describe_divergence(golden, changed).splitlines()
    assert lines == [
        "row 0 column 't': 0.125 -> 0.5",
        "row 1 column 'x': 2 -> 3",
        "row 1 column 'tag': 'b' -> 'c'",
    ]


def test_main_verify_cli(tmp_path, capsys):
    assert main_verify([FAST, "--golden-dir", str(tmp_path)]) == 1
    assert "missing" in capsys.readouterr().out

    assert (
        main_verify([FAST, "--golden-dir", str(tmp_path), "--update-golden"])
        == 0
    )
    assert "updated 1/1" in capsys.readouterr().out

    assert main_verify([FAST, "--golden-dir", str(tmp_path)]) == 0
    assert "verified 1/1" in capsys.readouterr().out


def test_main_verify_rejects_unknown_experiment(tmp_path):
    with pytest.raises(SystemExit):
        main_verify(["no_such_exp", "--golden-dir", str(tmp_path)])


def test_committed_goldens_match_current_model():
    """The in-repo golden file for the cheapest experiment verifies."""
    fp = compute_fingerprint(FAST)
    stored = load_golden(FAST)
    assert stored is not None, "tests/golden/table1.json missing"
    assert stored["digest"] == fp["digest"], describe_divergence(stored, fp)
