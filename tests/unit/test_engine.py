"""Unit tests for the simulation clock."""

import pytest

from repro.sim.engine import SimClock, Stopwatch


class TestClockAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)


class TestTickListeners:
    def test_fires_once_per_period(self):
        clock = SimClock()
        ticks = []
        clock.add_tick_listener(0.1, ticks.append)
        clock.advance(0.35)
        assert len(ticks) == 3
        assert ticks == pytest.approx([0.1, 0.2, 0.3])

    def test_catches_up_over_long_advance(self):
        clock = SimClock()
        ticks = []
        clock.add_tick_listener(0.1, ticks.append)
        clock.advance(1.0)  # one long kernel spans 10 periods
        assert len(ticks) == 10

    def test_listener_removal(self):
        clock = SimClock()
        ticks = []
        listener = clock.add_tick_listener(0.1, ticks.append)
        clock.advance(0.15)
        clock.remove_tick_listener(listener)
        clock.advance(1.0)
        assert len(ticks) == 1

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            SimClock().add_tick_listener(0.0, lambda t: None)


class TestStopwatch:
    def test_measures_span(self):
        clock = SimClock()
        with Stopwatch(clock) as w:
            clock.advance(0.5)
        assert w.elapsed == pytest.approx(0.5)

    def test_accumulates_across_spans(self):
        clock = SimClock()
        w = Stopwatch(clock)
        with w:
            clock.advance(0.25)
        clock.advance(1.0)  # not measured
        with w:
            clock.advance(0.25)
        assert w.elapsed == pytest.approx(0.5)
