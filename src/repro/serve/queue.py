"""Bounded priority queue with admission control.

The service never queues unboundedly: a submission either gets a seat
(total capacity *and* its class's seat limit both have room) or is
rejected immediately with a machine-readable reason, so callers can shed
load upstream instead of timing out blind. Two job classes exist —
``interactive`` jobs always dequeue ahead of ``batch`` jobs, and the
per-class limits keep a batch sweep from starving interactive what-ifs
of queue seats.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any

#: Dequeue order: lower rank first. Unknown classes are rejected.
CLASS_RANK = {"interactive": 0, "batch": 1}

#: Reasons a submission can be turned away, as returned to clients.
REASON_QUEUE_FULL = "queue full"
REASON_CLASS_LIMIT = "class limit reached"
REASON_DRAINING = "service draining"
REASON_UNKNOWN_CLASS = "unknown job class"
REASON_UNKNOWN_EXPERIMENT = "unknown experiment"


class AdmissionError(RuntimeError):
    """A submission was rejected; ``reason`` says why."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}{f': {detail}' if detail else ''}")
        self.reason = reason
        self.detail = detail


class QueueClosed(RuntimeError):
    """``get()`` on a drained-and-empty queue (the dispatch loop's stop
    signal)."""


@dataclass
class Job:
    """One accepted what-if request (possibly shared by many waiters).

    Identical concurrent submissions coalesce onto a single ``Job``: the
    front keeps one in-flight entry per ``key`` and every duplicate
    submission just bumps ``waiters`` and shares ``future``.
    """

    exp_id: str
    kwargs: dict[str, Any]
    key: str
    job_class: str = "batch"
    timeout: float | None = None
    retries: int = 0
    job_id: str = ""
    future: asyncio.Future = field(repr=False, default=None)  # type: ignore[assignment]
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    attempts: int = 0
    waiters: int = 1
    cancelled: bool = False
    #: Submitting client, for the gateway's per-tenant quotas.
    tenant: str = "anon"

    @property
    def queue_wait(self) -> float:
        return (self.started_at or time.monotonic()) - self.submitted_at


class BoundedPriorityQueue:
    """Priority queue with hard capacity and per-class seat limits.

    ``put_nowait`` applies admission control (raises
    :class:`AdmissionError`); ``get`` awaits the highest-priority job and
    raises :class:`QueueClosed` once the queue is closed *and* empty.
    """

    def __init__(
        self,
        capacity: int = 16,
        class_limits: dict[str, int] | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.class_limits = dict(class_limits or {})
        unknown = set(self.class_limits) - set(CLASS_RANK)
        if unknown:
            raise ValueError(f"unknown job class(es) in limits: {sorted(unknown)}")
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._by_class: dict[str, int] = {}
        self._closed = False
        self._not_empty = asyncio.Event()

    def __len__(self) -> int:
        return len(self._heap)

    def depth(self) -> int:
        return len(self._heap)

    def depth_by_class(self) -> dict[str, int]:
        return dict(self._by_class)

    @property
    def closed(self) -> bool:
        return self._closed

    def put_nowait(self, job: Job) -> None:
        """Admit ``job`` or raise :class:`AdmissionError` with a reason."""
        if self._closed:
            raise AdmissionError(REASON_DRAINING)
        if job.job_class not in CLASS_RANK:
            raise AdmissionError(REASON_UNKNOWN_CLASS, job.job_class)
        if len(self._heap) >= self.capacity:
            raise AdmissionError(
                REASON_QUEUE_FULL, f"{len(self._heap)}/{self.capacity} queued"
            )
        limit = self.class_limits.get(job.job_class)
        in_class = self._by_class.get(job.job_class, 0)
        if limit is not None and in_class >= limit:
            raise AdmissionError(
                REASON_CLASS_LIMIT,
                f"{in_class}/{limit} {job.job_class} jobs queued",
            )
        heapq.heappush(
            self._heap, (CLASS_RANK[job.job_class], next(self._seq), job)
        )
        self._by_class[job.job_class] = in_class + 1
        self._not_empty.set()

    async def get(self) -> Job:
        """Await the next job by (class rank, FIFO within class)."""
        while not self._heap:
            if self._closed:
                raise QueueClosed
            self._not_empty.clear()
            await self._not_empty.wait()
        _, _, job = heapq.heappop(self._heap)
        self._by_class[job.job_class] -= 1
        return job

    def close(self) -> None:
        """Stop admitting; wake any ``get()`` waiter so it can observe
        the drain."""
        self._closed = True
        self._not_empty.set()
