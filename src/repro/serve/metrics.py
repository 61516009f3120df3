"""Front observability: counters, latency histograms, log lines.

One :class:`ServiceMetrics` instance per serving front (a service or the
cluster gateway). Counters cover the whole request lifecycle (submitted
→ accepted/rejected/coalesced/cached → executed or forwarded →
completed/failed), latency is tracked as
:class:`~repro.profiling.counters.Histogram` distributions (queue wait,
execution, end-to-end overall and per job class), and gauges (queue
depth, in-flight, worker restarts) are read through callbacks so a
snapshot always reflects live state. ``snapshot()`` is the JSON surface
the TCP ``metrics`` op and ``repro-bench submit --metrics`` expose;
``log_line()`` is the periodic structured log record.
"""

from __future__ import annotations

import json
import logging
import time
from typing import Callable

from ..profiling.counters import Histogram

logger = logging.getLogger("repro.serve")


class ServiceMetrics:
    """Lifecycle counters + latency histograms + live gauges."""

    def __init__(self):
        self.started_at = time.monotonic()
        self.submitted = 0  # every submission attempt
        self.accepted = 0  # got a queue seat
        self.rejected: dict[str, int] = {}  # reason -> count
        self.coalesced = 0  # attached to an identical in-flight job
        self.cache_hits = 0
        self.cache_misses = 0
        self.executed = 0  # jobs dispatched to a worker
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.timeouts = 0  # individual attempt timeouts
        self.retries = 0
        # Epoch-checkpoint reuse reported back by what-if replay jobs
        # (see repro.sim.whatif): how much simulation the service skipped.
        self.checkpoint_hits = 0
        self.checkpoint_misses = 0
        self.checkpoint_stores = 0
        self.checkpoint_restored_bytes = 0
        self.checkpoint_suffix_batches = 0
        # The gateway's shared cache tier and replica forwarding.
        self.memory_hits = 0
        self.disk_hits = 0
        self.forwarded = 0
        self.requeued = 0  # re-routed after a replica loss
        self.queue_wait = Histogram()
        self.exec_latency = Histogram()
        #: End-to-end latency per job class; their union is the total.
        self.latency: dict[str, Histogram] = {}
        # Gauge callbacks, wired by the front.
        self.queue_depth_fn: Callable[[], int] = lambda: 0
        self.queue_by_class_fn: Callable[[], dict] = dict
        self.inflight_fn: Callable[[], int] = lambda: 0
        self.worker_restarts_fn: Callable[[], int] = lambda: 0
        self.workers_fn: Callable[[], int] = lambda: 0

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def record_latency(self, job_class: str, seconds: float) -> None:
        """One settled job's end-to-end latency."""
        hist = self.latency.get(job_class)
        if hist is None:
            hist = self.latency[job_class] = Histogram()
        hist.record(seconds)

    def note_checkpoint(self, meta: dict) -> None:
        """Fold one job's checkpoint-store telemetry into the service
        totals (the service strips it from the job payload)."""
        self.checkpoint_hits += int(meta.get("hits", 0))
        self.checkpoint_misses += int(meta.get("misses", 0))
        self.checkpoint_stores += int(meta.get("stores", 0))
        self.checkpoint_restored_bytes += int(meta.get("restored_bytes", 0))
        self.checkpoint_suffix_batches += int(meta.get("batches_replayed", 0))

    @property
    def total_latency(self) -> Histogram:
        """End-to-end latency over every job class."""
        total = Histogram()
        for hist in self.latency.values():
            for idx, n in hist.buckets.items():
                total.buckets[idx] = total.buckets.get(idx, 0) + n
            total.count += hist.count
            total.total += hist.total
            total.total_sq += hist.total_sq
        if self.latency:
            total.min = min(hist.min for hist in self.latency.values())
            total.max = max(hist.max for hist in self.latency.values())
        return total

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def cache_hit_ratio(self) -> float:
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else 0.0

    def arrival_rate(self) -> float:
        """Observed arrival rate (submissions/s over the uptime) — the
        λ the capacity planner's queueing layer consumes."""
        uptime = time.monotonic() - self.started_at
        return self.submitted / uptime if uptime > 0 else 0.0

    def service_time_moments(self) -> tuple[float, float]:
        """``(mean_s, second_moment_s2)`` of executed-job service time,
        from the execution-latency histogram's exact accumulators —
        with :meth:`arrival_rate` this is everything an M/G/c estimate
        needs from a live service."""
        return self.exec_latency.mean, self.exec_latency.second_moment()

    def snapshot(self) -> dict:
        """JSON-able point-in-time view of the whole service."""
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "queue": {
                "depth": self.queue_depth_fn(),
                "by_class": self.queue_by_class_fn(),
            },
            "in_flight": self.inflight_fn(),
            "workers": {
                "count": self.workers_fn(),
                "restarts": self.worker_restarts_fn(),
            },
            "jobs": {
                "submitted": self.submitted,
                "accepted": self.accepted,
                "rejected": dict(self.rejected),
                "rejected_total": self.rejected_total,
                "coalesced": self.coalesced,
                "executed": self.executed,
                "forwarded": self.forwarded,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "timeouts": self.timeouts,
                "retries": self.retries,
                "requeued": self.requeued,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_ratio": round(self.cache_hit_ratio(), 4),
            },
            "cache_hits": {
                "memory": self.memory_hits,
                "disk": self.disk_hits,
            },
            "checkpoint": {
                "hits": self.checkpoint_hits,
                "misses": self.checkpoint_misses,
                "stores": self.checkpoint_stores,
                "restored_bytes": self.checkpoint_restored_bytes,
                "suffix_batches": self.checkpoint_suffix_batches,
            },
            "latency_s": {
                "queue_wait": self.queue_wait.snapshot(),
                "execution": self.exec_latency.snapshot(),
                "total": self.total_latency.snapshot(),
                **{
                    cls: hist.snapshot()
                    for cls, hist in sorted(self.latency.items())
                },
            },
            "rates": {
                "arrival_rps": round(self.arrival_rate(), 3),
                "service_mean_s": round(self.exec_latency.mean, 6),
                "service_m2_s2": round(
                    self.exec_latency.second_moment(), 9
                ),
                "service_scv": round(self.exec_latency.scv(), 4),
            },
        }

    def log_line(self) -> str:
        """One structured (JSON) log record; also emitted via logging."""
        snap = self.snapshot()
        line = json.dumps(
            {
                "event": "serve.metrics",
                "uptime_s": snap["uptime_s"],
                "queue_depth": snap["queue"]["depth"],
                "in_flight": snap["in_flight"],
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected_total,
                "coalesced": self.coalesced,
                "cache_hit_ratio": snap["cache"]["hit_ratio"],
                "worker_restarts": snap["workers"]["restarts"],
                "arrival_rps": snap["rates"]["arrival_rps"],
                "service_mean_s": snap["rates"]["service_mean_s"],
                "p50_total_s": snap["latency_s"]["total"]["p50"],
                "p99_total_s": snap["latency_s"]["total"]["p99"],
                "p999_total_s": snap["latency_s"]["total"]["p999"],
            },
            sort_keys=True,
        )
        logger.info(line)
        return line
