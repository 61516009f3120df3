"""The memory-utilisation profiler of Section 3.2.

Samples, at a fixed period (100 ms in the paper), two system-level
quantities:

* **CPU RSS** of the process — pages actively mapped to CPU physical
  memory, as ``/proc/<pid>/smaps_rollup`` reports;
* **GPU used memory** as ``nvidia-smi`` reports — system-wide, including
  the ~600 MB driver baseline, covering ``cudaMalloc``, managed, and
  system-allocated GPU-resident pages.

The resulting time series are the raw material of the paper's Figures 4
and 5 (hotspot and Quantum Volume memory-usage-over-time).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mem.subsystem import MemorySubsystem
from ..sim.engine import SimClock, TickListener


@dataclass
class MemorySample:
    time: float
    rss_bytes: int
    gpu_used_bytes: int


@dataclass
class MemoryProfile:
    """A recorded profile with convenience accessors for the figures."""

    samples: list[MemorySample] = field(default_factory=list)
    annotations: list[tuple[float, str]] = field(default_factory=list)

    @property
    def times(self) -> list[float]:
        return [s.time for s in self.samples]

    @property
    def rss_series(self) -> list[int]:
        return [s.rss_bytes for s in self.samples]

    @property
    def gpu_series(self) -> list[int]:
        return [s.gpu_used_bytes for s in self.samples]

    def peak_gpu_bytes(self) -> int:
        """``M_peak`` for the oversubscription ratio (Section 3.2)."""
        return max((s.gpu_used_bytes for s in self.samples), default=0)

    def peak_rss_bytes(self) -> int:
        return max((s.rss_bytes for s in self.samples), default=0)

    def at(self, t: float) -> MemorySample:
        """The last sample at or before simulated time ``t``."""
        if not self.samples:
            raise ValueError("profile is empty")
        i = bisect_right([s.time for s in self.samples], t)
        return self.samples[max(i - 1, 0)]


class MemoryProfiler:
    """Periodic sampler over simulated time.

    Usage::

        profiler = MemoryProfiler(gh.clock, gh.mem, period=0.1)
        with profiler:
            run_application(gh)
        profile = profiler.profile
    """

    def __init__(
        self,
        clock: SimClock,
        mem: "MemorySubsystem",
        period: float | None = None,
    ):
        self.clock = clock
        self.mem = mem
        self.period = period or mem.config.profiler_sample_period
        self.profile = MemoryProfile()
        self._listener: TickListener | None = None

    def _sample(self, t: float) -> None:
        self.profile.samples.append(
            MemorySample(
                time=t,
                rss_bytes=self.mem.process_rss_bytes(),
                gpu_used_bytes=self.mem.gpu_used_bytes(),
            )
        )

    def annotate(self, label: str) -> None:
        """Mark the current time (phase boundaries in the figures)."""
        self.profile.annotations.append((self.clock.now, label))

    def start(self) -> None:
        if self._listener is not None:
            raise RuntimeError("profiler already running")
        self._sample(self.clock.now)  # initial sample at start
        self._listener = self.clock.add_tick_listener(self.period, self._sample)

    def stop(self) -> None:
        if self._listener is not None:
            self.clock.remove_tick_listener(self._listener)
            self._listener = None
            self._sample(self.clock.now)  # final sample

    def __enter__(self) -> "MemoryProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
