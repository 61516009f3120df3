"""Property suite for the timeline layer: any interleaving of the two
event forms a timeline records — finished spans (``complete``, which may
start before "now", the shape the mem/fabric layers emit) and instants —
with or without ring-buffer overflow must serialise to structurally
valid Perfetto JSON: every non-metadata event is an ``X`` or an ``i``,
timestamps are monotone per track, and ``X`` durations are
non-negative.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.timeline import (
    Timeline,
    to_perfetto,
    validate_perfetto,
)

TRACKS = ("main", "mem", "fabric")
NAMES = ("alpha", "beta", "gamma")

# One emission op: (kind, name, track, dt, dur) — dt advances the fake
# clock before emitting; dur only matters for "complete".
_ops = st.tuples(
    st.sampled_from(("instant", "complete")),
    st.sampled_from(NAMES),
    st.sampled_from(TRACKS),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)


def _emit(ops, capacity: int) -> Timeline:
    t = [0.0]
    tl = Timeline(capacity=capacity, time_fn=lambda: t[0], name="prop")
    for kind, name, track, dt, dur in ops:
        t[0] += dt
        if kind == "instant":
            tl.instant(name, cat="mem", track=track)
        else:
            tl.complete(name, max(0.0, t[0] - dur), dur, cat="fabric",
                        track=track, nbytes=7)
    return tl


def _assert_exports_valid(tl: Timeline) -> None:
    trace = to_perfetto([tl])
    assert validate_perfetto(trace)
    # Spot-check what the validator enforces, in serialised order: only
    # the two event forms, timestamps monotone per (pid, tid).
    events = [ev for ev in trace["traceEvents"] if ev["ph"] != "M"]
    assert len(events) == len(tl)
    last = {}
    for ev in events:
        assert ev["ph"] in ("X", "i")
        key = (ev["pid"], ev["tid"])
        assert ev["ts"] >= last.get(key, float("-inf"))
        last[key] = ev["ts"]


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_ops, max_size=60))
def test_any_interleaving_exports_valid_perfetto(ops):
    tl = _emit(ops, capacity=1 << 12)
    assert len(tl) == len(ops) and tl.dropped == 0
    _assert_exports_valid(tl)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_ops, max_size=80), capacity=st.integers(1, 16))
def test_overflowing_ring_still_exports_valid_perfetto(ops, capacity):
    """Dropping the oldest events leaves a well-formed trace of the
    rest."""
    tl = _emit(ops, capacity=capacity)
    assert len(tl) == min(len(ops), capacity)
    assert tl.dropped == max(0, len(ops) - capacity)
    _assert_exports_valid(tl)
