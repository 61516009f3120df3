"""Host-speed normalisation of measured times.

A shared 2-vCPU KVM host (Xeon, 2.1 GHz) changes speed by up to 1.6x for
minutes at a time (a fixed Python loop ranged 0.21-0.41 s there), which
swamps any regression bound. So each workload process samples the host:
every :data:`PERIOD_S` a ``SIGALRM`` handler runs a fixed reference
computation and records its thread CPU time. A measured interval is then
reported as its wall time, minus the time the samples themselves took,
times ``REF_S / median(reference time near the interval)``: the seconds it
would have taken at the reference speed. A change of host speed slows
the interval and the reference alike, so it cancels; a change to the
program barely reaches the reference (see below), so it shows in full.

The reference is timed in thread CPU time, not wall time. On that host
the drift shows in CPU time: a correction by it cut run-to-run spreads
of pass times from 10-35% to a few percent, while steal is about 0.1%
of CPU time (``/proc/stat``). Wall time would also see the benchmark's
own load: with two busy processes on the two vCPUs, the reference's
wall time doubled and its CPU time did not move, so a wall-time
correction would cancel part of a real slowdown of serve-mixed's worker
processes.

The reference runs cold: the program's work between samples has
evicted its 64 KB of data, so it also sees the host's memory-side
contention, which drifts with the neighbours' load. Warming it first
(one untimed call) made it blind to that: alternating runs of
qv-oversub spread 5.8% that way against 2.5% cold. The price is that
the program's own footprint reaches the reference. Streaming a 64 MB
array between samples slowed the cold reference by 3-7% against pure
interpreter work between them, so even a change that turned all of
the program's work from the one into the other would read at most
that much low. ``test_e2e.py`` checks that an injected CPU cost shows
in full.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
#: Thread CPU seconds of one :func:`reference` call on the baseline
#: machine at its usual speed (2 vCPU Xeon at 2.1 GHz, Python 3.11).
REF_S = 0.0019
#: Samples this far around a short interval still describe its speed.
WINDOW_S = 0.5

_DATA = np.random.default_rng(0).integers(0, 1 << 20, 8000)


def reference() -> int:
    """Interpreter and NumPy work in the proportions the simulator has."""
    s = 0
    for i in range(1000):
        s += (i * 7) % 13
    for _ in range(2):
        s += int(np.unique(_DATA)[-1])
    return s


class SpeedProbe:
    """Samples :func:`reference` every :data:`PERIOD_S` while started.

    Each sample is ``(start, wall_s, cpu_s)`` on the ``perf_counter``
    clock, which every process on the host shares.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def start(self) -> None:
        reference()  # the first call pays NumPy's lazy set-up
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self) -> None:
        t0 = time.perf_counter()
        c0 = time.thread_time()
        reference()
        cpu = time.thread_time() - c0
        self.samples.append((t0, time.perf_counter() - t0, cpu))

    def normalise(self, t0: float, t1: float) -> float:
        return normalise(self.samples, t0, t1)


def normalise(samples, t0: float, t1: float) -> float:
    """Seconds ``[t0, t1]`` would have taken at the reference speed."""
    stolen = sum(wall for start, wall, _ in samples if t0 <= start < t1)
    near = [cpu for start, _, cpu in samples
            if t0 - WINDOW_S <= start <= t1 + WINDOW_S]
    if not near:  # no sample near (the process was held in native code)
        near = [cpu for _, _, cpu in samples]
    return (t1 - t0 - stolen) * REF_S / statistics.median(near)
