"""The serving front: admission → coalescing → queue → dispatch → settle.

:class:`Frontend` is everything a single
:class:`~repro.serve.service.SimulationService` and the cluster
:class:`~repro.cluster.gateway.Gateway` have in common. ``submit()``
applies, in order: the known-experiment check, coalescing onto an
identical in-flight job, the front's submit-time cache lookup
(:meth:`~Frontend._cached`), its admission policy
(:meth:`~Frontend._refusal`) and the
:class:`~repro.serve.queue.BoundedPriorityQueue`. The dispatch loop pops
jobs in priority order and runs each through the front's
:meth:`~Frontend._run` under a slot semaphore, so at most ``slots`` jobs
execute at once and queue depth stays an honest backlog measure.
``_run`` settles its job with :meth:`~Frontend._resolve` or
:meth:`~Frontend._fail`; coalescing handles the *concurrent* duplicates,
the front's cache the *sequential* ones.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from .metrics import ServiceMetrics, logger
from .queue import (
    REASON_UNKNOWN_EXPERIMENT,
    AdmissionError,
    BoundedPriorityQueue,
    Job,
    QueueClosed,
)

#: "Not given" marker for per-job fields that default from the front.
_UNSET = object()


@dataclass
class JobHandle:
    """Client-side view of one submission."""

    job_id: str
    exp_id: str
    key: str
    future: asyncio.Future = field(repr=False)
    coalesced: bool = False  # shared an identical in-flight job
    cached: bool = False  # answered by the submit-time cache lookup

    async def result(self, timeout: float | None = None):
        return await asyncio.wait_for(asyncio.shield(self.future), timeout)

    def done(self) -> bool:
        return self.future.done()


class Frontend:
    """Admission, coalescing, dispatch and settlement for one front.

    Subclasses set the class attributes, implement ``start``/``stop``
    (calling :meth:`_start_dispatch` once their executors are up) and
    :meth:`_run`, and may override :meth:`_cached`, :meth:`_refusal` and
    :meth:`extra_op`. Also usable as an async context manager.
    """

    #: ``key_fn(exp_id, kwargs)``: the coalescing key.
    key_fn = None
    #: Job ids are ``<job_prefix>-<n>``.
    job_prefix = "job"
    #: Ready line printed by :func:`repro.serve.protocol.serve_tcp`
    #: (``<banner> listening on host:port``).
    banner = ""
    #: Wire encoding of a job result (identity by default).
    encode_result = staticmethod(lambda result: result)
    default_timeout: float | None = None
    default_retries: int = 0

    def __init__(self, config):
        self.config = config
        self.metrics = ServiceMetrics()
        self.queue = BoundedPriorityQueue(config.capacity, config.class_limits)
        self.known_experiments = config.known_experiments
        self._key = self.key_fn
        #: coalescing map: key -> accepted-but-unsettled Job
        self.inflight: dict[str, Job] = {}
        self.tenant_outstanding: dict[str, int] = {}
        self._slots: asyncio.Semaphore | None = None
        self._tasks: set[asyncio.Task] = set()
        self._loop_task: asyncio.Task | None = None
        self._next_id = 0
        self._started = False
        m = self.metrics
        m.queue_depth_fn = self.queue.depth
        m.queue_by_class_fn = self.queue.depth_by_class
        m.inflight_fn = self.inflight.__len__

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------

    def submit(
        self,
        exp_id: str,
        kwargs: dict | None = None,
        *,
        job_class: str = "batch",
        tenant: str = "anon",
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        retries: int = _UNSET,  # type: ignore[assignment]
    ) -> JobHandle:
        """Admit one job; raises :class:`AdmissionError` when the front
        cannot take it (unknown experiment, the front's policy, queue
        full, class limit, draining, unknown class). Identical in-flight
        submissions coalesce onto one execution; the front's cache
        answers previously completed ones."""
        assert self._started, "call await start() first"
        kwargs = dict(kwargs or {})
        metrics = self.metrics
        metrics.submitted += 1
        known = self.known_experiments
        if known is not None and exp_id not in known:
            metrics.reject(REASON_UNKNOWN_EXPERIMENT)
            raise AdmissionError(REASON_UNKNOWN_EXPERIMENT, exp_id)
        key = self._key(exp_id, kwargs)

        job = self.inflight.get(key)
        if job is not None and not job.cancelled:
            job.waiters += 1
            metrics.coalesced += 1
            return JobHandle(
                job.job_id, exp_id, key, job.future, coalesced=True
            )

        hit = self._cached(exp_id, kwargs, key)
        if hit is not None:
            future = asyncio.get_running_loop().create_future()
            future.set_result(hit)
            return JobHandle("cached", exp_id, key, future, cached=True)

        refusal = self._refusal(job_class, tenant)
        if refusal is not None:
            metrics.reject(refusal[0])
            raise AdmissionError(*refusal)
        self._next_id += 1
        job = Job(
            exp_id=exp_id,
            kwargs=kwargs,
            key=key,
            job_class=job_class,
            timeout=self.default_timeout if timeout is _UNSET else timeout,
            retries=self.default_retries if retries is _UNSET else retries,
            job_id=f"{self.job_prefix}-{self._next_id}",
            future=asyncio.get_running_loop().create_future(),
            tenant=tenant,
        )
        try:
            self.queue.put_nowait(job)
        except AdmissionError as exc:
            metrics.reject(exc.reason)
            raise
        metrics.accepted += 1
        self.inflight[key] = job
        outstanding = self.tenant_outstanding
        outstanding[tenant] = outstanding.get(tenant, 0) + 1
        return JobHandle(job.job_id, exp_id, key, job.future)

    def _cached(self, exp_id: str, kwargs: dict, key: str):
        """Submit-time cache lookup: the result, or None on a miss."""
        return None

    def _refusal(self, job_class: str, tenant: str) -> tuple[str, str] | None:
        """Admission policy, run before the job is built: the ``(reason,
        detail)`` of an :class:`AdmissionError` that turns the
        submission away, or None to admit it."""
        return None

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job (running ones are left to finish —
        their result still feeds the cache and any co-waiters). Returns
        True if the job was marked cancelled."""
        job = next(
            (j for j in self.inflight.values() if j.job_id == job_id), None
        )
        if job is None or job.started_at is not None or job.future.done():
            return False
        job.cancelled = True
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _start_dispatch(self, slots: int) -> None:
        self._slots = asyncio.Semaphore(slots)
        self._loop_task = asyncio.create_task(
            self._dispatch_loop(), name=f"{self.job_prefix}-dispatch"
        )
        self._started = True

    async def _dispatch_loop(self) -> None:
        while True:
            try:
                job = await self.queue.get()
            except QueueClosed:
                break
            if job.cancelled:
                self._settle(job)
                self.metrics.cancelled += 1
                job.future.cancel()
                continue
            await self._slots.acquire()
            task = asyncio.create_task(self._dispatch(job), name=job.job_id)
            self._tasks.add(task)
            task.add_done_callback(self._on_dispatch_done)

    def _on_dispatch_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        self._slots.release()
        if not task.cancelled() and task.exception() is not None:
            logger.error("%s died: %r", task.get_name(), task.exception())

    async def _dispatch(self, job: Job) -> None:
        job.started_at = time.monotonic()
        try:
            await self._run(job)
        except Exception as exc:  # noqa: BLE001 — never lose a waiter
            self._fail(job, exc)
            raise

    async def _run(self, job: Job) -> None:
        """Execute ``job`` and settle it (:meth:`_resolve`/:meth:`_fail`)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def _settle(self, job: Job) -> None:
        if self.inflight.get(job.key) is job:
            del self.inflight[job.key]
        left = self.tenant_outstanding.get(job.tenant, 1) - 1
        if left <= 0:
            self.tenant_outstanding.pop(job.tenant, None)
        else:
            self.tenant_outstanding[job.tenant] = left

    def _resolve(self, job: Job, result) -> None:
        self._settle(job)
        metrics = self.metrics
        metrics.completed += 1
        now = time.monotonic()
        metrics.exec_latency.record(now - job.started_at)
        metrics.record_latency(job.job_class, now - job.submitted_at)
        if not job.future.done():
            job.future.set_result(result)

    def _fail(self, job: Job, exc: Exception) -> None:
        self._settle(job)
        self.metrics.failed += 1
        self.metrics.record_latency(
            job.job_class, time.monotonic() - job.submitted_at
        )
        if not job.future.done():
            job.future.set_exception(exc)

    # ------------------------------------------------------------------
    # Lifecycle and observability
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Stop admitting (new submissions are rejected with ``service
        draining``) and run every accepted job to completion."""
        self.queue.close()
        if self._loop_task is not None:
            await self._loop_task
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def shutdown(self) -> None:
        """Graceful: drain accepted work, stop, log final metrics."""
        await self.drain()
        await self.stop()
        logger.info("%s: final %s", self.banner, self.metrics.log_line())

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    async def extra_op(self, op: str) -> dict | None:
        """Reply fields for a front-specific read-only wire op, or None
        if ``op`` is unknown."""
        return None
