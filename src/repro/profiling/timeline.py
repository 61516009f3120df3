"""Unified event-timeline observability across the whole stack.

The profiling stack so far answers *what* happened (``counters``),
*how much* of one quantity over time (``memprofiler``), and *which
access batches* ran (``trace``) — but not *when and in what order* the
mechanisms the paper separates (fault service, migration, eviction,
remote access, fabric transfers, serve dispatch) actually fired. This
module is that missing substrate: a low-overhead structured event layer
with

* **finished spans** (Perfetto ``X`` events: every simulated cost is
  computed before it is charged, so a span is recorded once, with its
  start and duration) and **instant events** (``i``);
* a bounded **ring buffer** (oldest events drop first, with a dropped
  count, so a long run can never exhaust memory);
* export to **Chrome/Perfetto trace JSON** (load ``trace.json`` at
  https://ui.perfetto.dev), carrying each event's name, category,
  track, time, duration and args;
* an in-process **analysis API** — :meth:`Timeline.spans`,
  :meth:`Timeline.attribution` (per-phase time attribution with nested
  child time excluded), :meth:`Timeline.critical_path` — so tests and
  notebooks query timelines directly instead of parsing dumps.

Timelines are strictly observational: emission never touches model
state, so simulated results (and the golden fingerprints) are identical
with timelines on or off. Emission is opt-in two ways — per system
(``SystemConfig.timeline``) or for one code region
(:class:`TimelineSession`, which ``repro-bench trace`` uses). When
neither is active every producer holds ``None`` and the hot paths skip
emission entirely (a single attribute test).

Two time domains coexist: simulator-side timelines stamp events with
*simulated* seconds (:attr:`SimClock.now`), serving-side timelines with
wall-clock ``time.monotonic()`` and OS process/thread ids
(``tag_os_ids=True``). Merged exports keep them apart as separate
Perfetto "processes".
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

#: Default ring-buffer capacity (events); the oldest events drop first.
DEFAULT_CAPACITY = 1 << 16

#: Module-wide count of events ever emitted (all timelines). The
#: disabled-mode regression test pins this: with no timeline active, the
#: counter must not move — proof the hot paths did no emission work.
TOTAL_EMITTED = 0

#: Perfetto phase codes a timeline records: X (finished span with its
#: duration) and i (instant). Exports add M (metadata).
_PHASES = ("X", "i")


class TimelineEvent:
    """One structured event. ``ts``/``dur`` are seconds in the owning
    timeline's domain; ``pid``/``tid`` are OS ids when the timeline tags
    them, else ``None`` (the exporter lays tracks out synthetically)."""

    __slots__ = ("ts", "ph", "name", "cat", "track", "dur", "args", "pid", "tid")

    def __init__(self, ts, ph, name, cat, track, dur=None, args=None):
        self.ts = ts
        self.ph = ph
        self.name = name
        self.cat = cat
        self.track = track
        self.dur = dur
        self.args = args
        self.pid = None
        self.tid = None

    def __repr__(self) -> str:
        dur = f" dur={self.dur * 1e3:.3f}ms" if self.dur is not None else ""
        return f"<{self.ph} {self.name!r} @ {self.ts * 1e3:.3f}ms{dur}>"


class Span:
    """One finished span (an X event)."""

    __slots__ = ("name", "cat", "track", "start", "duration", "args")

    def __init__(self, name, cat, track, start, duration, args=None):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.duration = duration
        self.args = args or {}

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} [{self.start * 1e3:.3f}, "
            f"{self.end * 1e3:.3f}] ms>"
        )


class Timeline:
    """A ring-buffered structured event log over one time domain.

    ``time_fn`` supplies the current time in seconds (simulated or
    wall-clock); ``tag_os_ids`` stamps every event with the emitting OS
    process and thread id (the serving layer's mode).
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        time_fn: Callable[[], float] | None = None,
        tag_os_ids: bool = False,
        name: str = "sim",
    ):
        if capacity < 1:
            raise ValueError("timeline capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.tag_os_ids = tag_os_ids
        self._time_fn = time_fn or time.monotonic
        self._events: deque[TimelineEvent] = deque(maxlen=capacity)
        self.dropped = 0

    # -- time --------------------------------------------------------------

    def now(self) -> float:
        return self._time_fn()

    # -- emission ----------------------------------------------------------

    def _emit(self, ev: TimelineEvent) -> None:
        global TOTAL_EMITTED
        if self.tag_os_ids:
            ev.pid = os.getpid()
            ev.tid = threading.get_ident()
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(ev)
        TOTAL_EMITTED += 1

    def complete(self, name: str, start: float, duration: float, *,
                 cat: str = "", track: str = "main", **args: Any) -> None:
        """Record a span whose duration is already known (an ``X``
        event) — the natural shape for model-computed costs."""
        self._emit(TimelineEvent(start, "X", name, cat, track,
                                 dur=max(0.0, duration), args=args or None))

    def instant(self, name: str, *, cat: str = "", track: str = "main",
                **args: Any) -> None:
        self._emit(TimelineEvent(self.now(), "i", name, cat, track,
                                 args=args or None))

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self, ph: str | None = None, *, cat: str | None = None,
               track: str | None = None) -> list[TimelineEvent]:
        return [
            ev for ev in self._events
            if (ph is None or ev.ph == ph)
            and (cat is None or ev.cat == cat)
            and (track is None or ev.track == track)
        ]

    def spans(self, name: str | None = None, *, cat: str | None = None,
              track: str | None = None) -> list[Span]:
        """All spans (X events), sorted by start time."""
        out = [
            Span(ev.name, ev.cat, ev.track, ev.ts, ev.dur, ev.args)
            for ev in self.events("X", cat=cat, track=track)
            if name is None or ev.name == name
        ]
        out.sort(key=lambda s: s.start)
        return out

    # -- analysis ----------------------------------------------------------

    def attribution(self, *, by: str = "name",
                    track: str | None = None) -> dict[str, float]:
        """Self-time per span ``name``/``cat``/``track``: each span's
        duration minus the time covered by spans nested inside it on the
        same track — the "where did the time actually go" view the
        paper's per-mechanism breakdowns need."""
        if by not in ("name", "cat", "track"):
            raise ValueError("by must be 'name', 'cat', or 'track'")
        totals: dict[str, float] = {}
        per_track: dict[str, list[Span]] = {}
        for s in self.spans(track=track):
            per_track.setdefault(s.track, []).append(s)
        for spans in per_track.values():
            spans.sort(key=lambda s: (s.start, -s.duration))
            open_stack: list[tuple[Span, str]] = []
            for s in spans:
                while open_stack and open_stack[-1][0].end <= s.start:
                    open_stack.pop()
                key = getattr(s, by)
                totals[key] = totals.get(key, 0.0) + s.duration
                if open_stack and s.end <= open_stack[-1][0].end + 1e-12:
                    parent_key = open_stack[-1][1]
                    totals[parent_key] = totals.get(parent_key, 0.0) - s.duration
                    open_stack.append((s, key))
                elif not open_stack:
                    open_stack.append((s, key))
        return {k: v for k, v in totals.items()}

    def critical_path(self, track: str | None = None) -> list[dict]:
        """Top-level spans (not nested inside another span of the same
        track) in time order, with the gaps between them labelled
        ``(idle)`` — the sequential breakdown of where a run's wall time
        went."""
        spans = self.spans(track=track)
        top: list[Span] = []
        horizon = -float("inf")
        for s in sorted(spans, key=lambda s: (s.start, -s.duration)):
            if s.start >= horizon - 1e-12:
                top.append(s)
                horizon = max(horizon, s.end)
            else:
                horizon = max(horizon, s.end)
        out: list[dict] = []
        cursor: float | None = None
        for s in top:
            if cursor is not None and s.start - cursor > 1e-12:
                out.append({"name": "(idle)", "start": cursor,
                            "duration": s.start - cursor, "cat": ""})
            out.append({"name": s.name, "start": s.start,
                        "duration": s.duration, "cat": s.cat})
            cursor = max(cursor if cursor is not None else s.end, s.end)
        return out

    def __repr__(self) -> str:
        return (
            f"<Timeline {self.name!r} {len(self._events)} event(s), "
            f"{self.dropped} dropped>"
        )


# ---------------------------------------------------------------------------
# Perfetto (Chrome trace JSON) export and validation
# ---------------------------------------------------------------------------


def to_perfetto(timelines: list[Timeline]) -> dict:
    """Merge timelines into one Chrome/Perfetto trace dict.

    Each timeline becomes one Perfetto "process" (its name as the
    process name) and each of its tracks one "thread", so the sim,
    memory, fabric and serve layers stack as separate swim-lanes.
    Events are sorted by timestamp per timeline (stable, so equal
    timestamps keep emission order), so the exported JSON always
    satisfies :func:`validate_perfetto`. OS ids captured at emission
    are preserved in ``args`` (``os_pid``/``os_tid``).
    """
    trace_events: list[dict] = []
    for pid, tl in enumerate(timelines, start=1):
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": tl.name},
        })
        track_tids: dict[str, int] = {}
        for ev in sorted(tl._events, key=lambda ev: ev.ts):
            tid = track_tids.get(ev.track)
            if tid is None:
                tid = track_tids[ev.track] = len(track_tids) + 1
                trace_events.append({
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": ev.track},
                })
            args = dict(ev.args) if ev.args else {}
            if ev.pid is not None:
                args["os_pid"] = ev.pid
            if ev.tid is not None:
                args["os_tid"] = ev.tid
            out = {
                "ph": ev.ph, "name": ev.name, "cat": ev.cat or "default",
                "ts": ev.ts * 1e6, "pid": pid, "tid": tid,
            }
            if ev.ph == "X":
                out["dur"] = ev.dur * 1e6
            else:
                out["s"] = "t"  # thread-scoped instant
            if args:
                out["args"] = args
            trace_events.append(out)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.profiling.timeline",
            "dropped_events": sum(tl.dropped for tl in timelines),
        },
    }


def export_perfetto(timelines: list[Timeline], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_perfetto(timelines)))
    return path


def validate_perfetto(trace: dict) -> bool:
    """Validate a Chrome/Perfetto trace dict; raises ``ValueError`` on
    the first structural violation (also the CI trace-smoke gate):

    * ``traceEvents`` is a list of ``X``, ``i`` and metadata ``M``
      events (any other phase is refused);
    * per (pid, tid), timestamps are monotonically non-decreasing;
    * ``X`` events carry a non-negative ``dur``.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    last_ts: dict[tuple, float] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph not in _PHASES:
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        key = (ev.get("pid"), ev.get("tid"))
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            raise ValueError(f"event {i}: missing/invalid ts")
        if ts < last_ts.get(key, -float("inf")):
            raise ValueError(
                f"event {i}: ts {ts} not monotone on track {key} "
                f"(last {last_ts[key]})"
            )
        last_ts[key] = ts
        if ph == "X" and (
            not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0
        ):
            raise ValueError(f"event {i}: X event needs dur >= 0")
    return True


# ---------------------------------------------------------------------------
# Opt-in plumbing: the config flag and collection sessions
# ---------------------------------------------------------------------------

_ACTIVE_SESSION: "TimelineSession | None" = None


class TimelineSession:
    """Collects every timeline created while active (context manager).

    ``repro-bench trace`` wraps one experiment run in a session: systems
    constructed anywhere inside it create and register timelines even
    though their configs don't set ``timeline=True``, and the merged
    set exports as one multi-process Perfetto trace.
    """

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self.timelines: list[Timeline] = []
        self._prev: TimelineSession | None = None

    def __enter__(self) -> "TimelineSession":
        global _ACTIVE_SESSION
        self._prev = _ACTIVE_SESSION
        _ACTIVE_SESSION = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_SESSION
        _ACTIVE_SESSION = self._prev

    def register(self, timeline: Timeline) -> Timeline:
        taken = {tl.name for tl in self.timelines}
        if timeline.name in taken:
            # One session often sees many same-named systems (one per
            # app/mode run); number them so Perfetto processes stay
            # distinguishable.
            n = 2
            while f"{timeline.name}#{n}" in taken:
                n += 1
            timeline.name = f"{timeline.name}#{n}"
        self.timelines.append(timeline)
        return timeline


def timeline_requested(config=None) -> bool:
    """Is timeline emission enabled — by config field or an active
    :class:`TimelineSession`?"""
    if config is not None and getattr(config, "timeline", False):
        return True
    return _ACTIVE_SESSION is not None


def maybe_timeline(
    config,
    time_fn: Callable[[], float],
    *,
    name: str = "sim",
    tag_os_ids: bool = False,
) -> Timeline | None:
    """A registered :class:`Timeline` when emission is requested, else
    ``None`` (producers guard on that, keeping disabled-mode hot paths
    emission-free). Its capacity is :data:`DEFAULT_CAPACITY` unless the
    active session overrides it."""
    if not timeline_requested(config):
        return None
    session = _ACTIVE_SESSION
    capacity = getattr(session, "capacity", None) or DEFAULT_CAPACITY
    tl = Timeline(capacity=capacity, time_fn=time_fn, name=name,
                  tag_os_ids=tag_os_ids)
    if session is not None:
        session.register(tl)
    return tl
