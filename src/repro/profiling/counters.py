"""Hardware performance counters.

The paper quantifies per-kernel memory traffic with Nsight Compute's
Memory Workload Analysis (traffic over NVLink-C2C, system memory, and
global GPU memory — Section 3.2) and uses L1<->L2 traffic as an indicator
of the data rate feeding the GPU's compute units (Figure 12). This module
provides the equivalent counter set over simulator state: a global
cumulative set plus per-kernel deltas captured around each launch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class Histogram:
    """Log-bucketed histogram of non-negative samples.

    Buckets grow geometrically (``base`` factor, smallest upper edge
    ``min_edge``), so a handful of integer counters cover nine orders of
    magnitude — the same trick Nsight uses for latency distributions.
    Shared by the profiling layer and the serving metrics
    (:mod:`repro.serve.metrics`): queue-wait and end-to-end latency both
    span microseconds to minutes, where fixed-width buckets are useless.
    """

    def __init__(self, base: float = 2.0, min_edge: float = 1e-4):
        if base <= 1.0:
            raise ValueError("base must be > 1")
        self.base = base
        self.min_edge = min_edge
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def _index(self, value: float) -> int:
        if value <= self.min_edge:
            return 0
        return max(0, math.ceil(math.log(value / self.min_edge, self.base)))

    def edge(self, index: int) -> float:
        """Upper edge of bucket ``index`` (samples in it are ``<= edge``)."""
        return self.min_edge * self.base**index

    def record(self, value: float) -> None:
        value = max(0.0, float(value))
        idx = self._index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        self.total_sq += value * value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (upper edge of the bucket the
        rank falls in — a conservative estimate)."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * min(max(p, 0.0), 100.0) / 100.0))
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                return min(self.edge(idx), self.max or 0.0)
        return self.max or 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def second_moment(self) -> float:
        """``E[X²]`` of the recorded samples — exact (accumulated from
        raw values, not reconstructed from buckets). With the mean this
        gives the variance and SCV that M/G/c queueing needs."""
        return self.total_sq / self.count if self.count else 0.0

    def scv(self) -> float:
        """Squared coefficient of variation, ``Var/Mean²`` (0 if empty
        or degenerate)."""
        mean = self.mean
        if mean <= 0.0:
            return 0.0
        var = max(0.0, self.second_moment() - mean * mean)
        return var / (mean * mean)

    def snapshot(self) -> dict:
        """JSON-able summary (count/mean/min/max + key percentiles)."""
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "min": round(self.min or 0.0, 6),
            "max": round(self.max or 0.0, 6),
            "p50": round(self.percentile(50), 6),
            "p90": round(self.percentile(90), 6),
            "p99": round(self.percentile(99), 6),
            "p999": round(self.percentile(99.9), 6),
        }

    def __repr__(self) -> str:
        return f"<Histogram n={self.count} mean={self.mean:.4g}>"


@dataclass
class CounterSet:
    """A snapshot-able bundle of monotonically increasing counters."""

    # Traffic (bytes)
    hbm_read_bytes: int = 0
    hbm_write_bytes: int = 0
    lpddr_read_bytes: int = 0
    lpddr_write_bytes: int = 0
    c2c_read_bytes: int = 0  # remote reads by the GPU over NVLink-C2C
    c2c_write_bytes: int = 0
    cpu_remote_read_bytes: int = 0  # CPU reads of GPU-resident memory
    cpu_remote_write_bytes: int = 0
    l1l2_bytes: int = 0
    migration_h2d_bytes: int = 0
    migration_d2h_bytes: int = 0
    eviction_bytes: int = 0
    explicit_copy_bytes: int = 0
    fabric_bytes: int = 0  # payload bytes sent over the inter-chip fabric
    fabric_hop_bytes: int = 0  # payload x links traversed (fabric load)

    # Events
    gpu_replayable_faults: int = 0
    cpu_page_faults: int = 0
    managed_far_faults: int = 0
    migration_notifications: int = 0
    pages_migrated_h2d: int = 0
    pages_migrated_d2h: int = 0
    pages_evicted: int = 0
    tlb_shootdowns: int = 0
    fabric_transfers: int = 0
    pages_spilled_remote: int = 0  # first-touch spills to a peer chip's DDR

    def snapshot(self) -> "CounterSet":
        return CounterSet(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, earlier: "CounterSet") -> "CounterSet":
        return CounterSet(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def add(self, **increments: int) -> None:
        for name, value in increments.items():
            setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class KernelTrafficRecord:
    """Per-kernel Memory Workload Analysis row (Nsight Compute style)."""

    kernel: str
    start: float
    duration: float
    counters: CounterSet
    tags: dict[str, str] = field(default_factory=dict)

    @property
    def l1l2_throughput(self) -> float:
        """Bytes/s between L1 and L2 during this kernel (Figure 12)."""
        return self.counters.l1l2_bytes / self.duration if self.duration else 0.0

    def tier_throughput(self) -> dict[str, float]:
        """Throughput by memory tier, the Figure 12 decomposition."""
        if not self.duration:
            return {"gpu_memory": 0.0, "nvlink_c2c": 0.0, "l1l2": 0.0}
        c = self.counters
        return {
            "gpu_memory": (c.hbm_read_bytes + c.hbm_write_bytes) / self.duration,
            "nvlink_c2c": (c.c2c_read_bytes + c.c2c_write_bytes) / self.duration,
            "l1l2": c.l1l2_bytes / self.duration,
        }


class HardwareCounters:
    """Global counters plus a per-kernel capture facility."""

    def __init__(self) -> None:
        #: The cumulative counter set.
        self.total = CounterSet()
        self.kernel_records: list[KernelTrafficRecord] = []
        self._kernel_start_snapshot: CounterSet | None = None
        self._kernel_start_time: float = 0.0
        self._kernel_name: str = ""

    def bump(self, **increments: int) -> None:
        """Add ``increments`` to the cumulative counters (an unknown
        counter name raises :class:`AttributeError`)."""
        self.total.add(**increments)

    def traffic(self, tier: str, nbytes: int, write: bool) -> None:
        """Add ``nbytes`` of ``tier`` traffic to ``<tier>_write_bytes``
        or ``<tier>_read_bytes``."""
        name = f"{tier}_write_bytes" if write else f"{tier}_read_bytes"
        total = self.total
        setattr(total, name, getattr(total, name) + nbytes)

    def begin_kernel(self, name: str, now: float) -> None:
        self._kernel_name = name
        self._kernel_start_time = now
        self._kernel_start_snapshot = self.total.snapshot()

    def end_kernel(self, now: float, **tags: str) -> KernelTrafficRecord:
        assert self._kernel_start_snapshot is not None, "no kernel in flight"
        rec = KernelTrafficRecord(
            kernel=self._kernel_name,
            start=self._kernel_start_time,
            duration=now - self._kernel_start_time,
            counters=self.total.delta(self._kernel_start_snapshot),
            tags=dict(tags),
        )
        self.kernel_records.append(rec)
        self._kernel_start_snapshot = None
        return rec

    def records_for(self, kernel_prefix: str) -> list[KernelTrafficRecord]:
        return [
            r for r in self.kernel_records if r.kernel.startswith(kernel_prefix)
        ]
