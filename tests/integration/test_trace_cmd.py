"""``repro-bench trace`` end to end: one fast experiment traced into a
merged Perfetto export that passes the validator, with the wall-clock
runner's run of it recorded as one finished span."""

import json

from repro.bench.trace_cmd import main_trace
from repro.profiling.timeline import validate_perfetto


def test_trace_exports_one_run_span_per_experiment(tmp_path):
    out = tmp_path / "trace.json"
    assert main_trace(["fig4", "--scale", "1/64", "--out", str(out)]) == 0
    trace = json.loads(out.read_text())
    assert validate_perfetto(trace)
    events = trace["traceEvents"]
    (runner,) = [
        ev["pid"] for ev in events
        if ev["ph"] == "M" and ev["name"] == "process_name"
        and ev["args"]["name"] == "runner"
    ]
    (run,) = [ev for ev in events if ev["pid"] == runner and ev["ph"] != "M"]
    assert (run["ph"], run["name"], run["cat"]) == ("X", "run:fig4", "serve")
    assert run["args"]["scale"] == 1 / 64
    assert run["dur"] > 0
