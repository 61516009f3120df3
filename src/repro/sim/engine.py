"""Simulation clock.

The simulator advances a global clock in *activity intervals* (an
allocation call, a CPU initialisation loop, a kernel launch, a migration
window). Within an interval the memory model is evaluated with vectorised
numpy batch operations rather than per-access events — a million-page
kernel epoch is one batch — which is what makes paper-scale problems
(a 34-qubit, 128 GB statevector is two million 64 KB pages) tractable in
pure Python. Delayed mechanisms are serviced at interval boundaries:
access-counter notifications between kernel epochs
(:meth:`~repro.mem.subsystem.MemorySubsystem.begin_epoch`), and an
explicit prefetch is charged as its own interval.

*Tick listeners* complement the interval path: callbacks invoked at
fixed simulated-time periods while the clock advances — the
memory-utilisation profiler of Section 3.2 registers one with a 100 ms
period. Activity intervals are recorded only when a
:class:`~repro.profiling.timeline.Timeline` is attached.
"""

from __future__ import annotations

from typing import Callable


class TickListener:
    """A periodic callback driven by simulated time.

    ``callback(t)`` fires once for every multiple of ``period`` the clock
    crosses, including retroactively when a single :meth:`SimClock.advance`
    spans several periods — a long kernel still yields evenly spaced
    profiler samples.
    """

    def __init__(self, period: float, callback: Callable[[float], None]):
        if period <= 0:
            raise ValueError("tick period must be positive")
        self.period = period
        self.callback = callback
        self.next_fire = period

    def catch_up(self, now: float) -> None:
        while self.next_fire <= now:
            self.callback(self.next_fire)
            self.next_fire += self.period


class SimClock:
    """Simulated wall clock with periodic tick listeners."""

    def __init__(self) -> None:
        self._now = 0.0
        self._listeners: list[TickListener] = []
        #: Optional :class:`repro.profiling.Timeline` (wired by the
        #: runtime when timelines are requested; ``None`` keeps the
        #: advance hot path emission-free).
        self.timeline = None

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float, activity: str | None = None) -> float:
        """Advance the clock by ``dt`` seconds of activity.

        Periodic listeners catch up, and a named ``activity`` becomes a
        span on the attached timeline's ``sim/activity`` track. Returns
        the new time.
        """
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        target = self._now + dt
        self._now = target
        for listener in self._listeners:
            listener.catch_up(self._now)
        if activity and self.timeline is not None:
            self.timeline.complete(
                activity, target - dt, dt, cat="sim", track="sim/activity"
            )
        return self._now

    # -- listeners ---------------------------------------------------------

    def add_tick_listener(
        self, period: float, callback: Callable[[float], None]
    ) -> TickListener:
        listener = TickListener(period, callback)
        listener.next_fire = self._now + period
        self._listeners.append(listener)
        return listener

    def remove_tick_listener(self, listener: TickListener) -> None:
        self._listeners.remove(listener)


class Stopwatch:
    """Measures simulated-time spans, used for the paper's phase timings.

    The paper times phases with ``gettimeofday`` around each phase
    (Figure 2); this is the simulated equivalent.
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._start: float | None = None
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed += self._clock.now - self._start
        self._start = None
