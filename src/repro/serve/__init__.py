"""Concurrent what-if simulation serving.

The paper's value is *what-if* exploration — sweeping memory modes, page
sizes, and oversubscription ratios across applications. This package
turns the one-shot experiment registry into a long-lived service:
submissions pass admission control into a bounded priority queue,
identical concurrent requests coalesce onto one execution, completed
ones are answered from the PR-1 result cache, and a supervised
worker-process pool runs the rest with per-job timeouts, bounded
retries, and crash restarts — all observable through a JSON metrics
snapshot. ``repro-bench serve`` / ``repro-bench submit`` expose it over
TCP. The admission-to-settlement front (:mod:`.frontend`) and the wire
protocol (:mod:`.protocol`) are shared with the cluster gateway.
"""

from .frontend import JobHandle
from .metrics import ServiceMetrics
from .protocol import ServeClient, serve_tcp
from .queue import (
    AdmissionError,
    BoundedPriorityQueue,
    Job,
    QueueClosed,
)
from .service import ServiceConfig, SimulationService
from .workers import (
    DEFAULT_RUNNER,
    JobError,
    JobFailed,
    SupervisedWorkerPool,
    WorkerCrashed,
    WorkerProcess,
    WorkerTimeout,
)

__all__ = [
    "AdmissionError",
    "BoundedPriorityQueue",
    "DEFAULT_RUNNER",
    "Job",
    "JobError",
    "JobFailed",
    "JobHandle",
    "QueueClosed",
    "ServeClient",
    "ServiceConfig",
    "ServiceMetrics",
    "SimulationService",
    "SupervisedWorkerPool",
    "WorkerCrashed",
    "WorkerProcess",
    "WorkerTimeout",
    "serve_tcp",
]
