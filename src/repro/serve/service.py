"""`repro.serve` service facade and CLI.

:class:`SimulationService` is the in-process API: a
:class:`~repro.serve.frontend.Frontend` whose jobs run on a supervised
worker pool, behind the on-disk result cache. ``submit()`` applies
admission control and coalescing and returns a
:class:`~repro.serve.frontend.JobHandle` whose ``result()`` awaits the
shared outcome; ``drain()`` stops admitting and delivers every accepted
job; ``metrics_snapshot()`` is the JSON observability surface.
:func:`repro.serve.protocol.serve_tcp` puts a service on the wire for the
``repro-bench serve`` / ``submit`` CLI pair.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from dataclasses import dataclass

from ..bench.runner import ResultCache, _deserialize, _serialize, cache_key
from .frontend import Frontend
from .metrics import logger
from .protocol import run_server
from .queue import Job
from .workers import (
    DEFAULT_RUNNER,
    JobFailed,
    SupervisedWorkerPool,
    WorkerTimeout,
)


@dataclass
class ServiceConfig:
    """Tunables for one service instance."""

    workers: int = 2
    capacity: int = 16
    class_limits: dict[str, int] | None = None
    default_timeout: float | None = None
    default_retries: int = 0
    runner_spec: str = DEFAULT_RUNNER
    cache: ResultCache | None = None
    #: accepted experiment ids (None = accept anything; the CLI passes
    #: the registry so bogus ids are rejected at admission, not by a
    #: worker)
    known_experiments: frozenset[str] | None = None
    metrics_interval: float = 10.0
    #: Optional explicit wall-clock :class:`repro.profiling.Timeline`
    #: for queue-wait/dispatch/worker-exec spans. When left ``None`` one
    #: is still created if timelines are requested globally
    #: (``REPRO_TIMELINE=1`` or an active ``TimelineSession``).
    timeline: object | None = None


class SimulationService(Frontend):
    """Concurrent what-if simulation service (asyncio).

    Lifecycle: ``await start()`` → ``submit()`` / ``cancel()`` →
    ``await drain()`` (delivers all accepted work) → ``await stop()``.
    Also usable as an async context manager.
    """

    key_fn = staticmethod(cache_key)
    banner = "repro-serve"
    encode_result = staticmethod(_serialize)

    def __init__(self, config: ServiceConfig | None = None, **overrides):
        super().__init__(config or ServiceConfig(**overrides))
        cfg = self.config
        self.default_timeout = cfg.default_timeout
        self.default_retries = cfg.default_retries
        if cfg.timeline is not None:
            self.timeline = cfg.timeline
        else:
            from ..profiling.timeline import maybe_timeline

            self.timeline = maybe_timeline(
                None, time.monotonic, name="serve", tag_os_ids=True
            )
        self.pool: SupervisedWorkerPool | None = None
        self._metrics_task: asyncio.Task | None = None

    async def start(self) -> None:
        if self._started:
            return
        cfg = self.config
        self.pool = pool = await asyncio.to_thread(
            SupervisedWorkerPool, cfg.workers, cfg.runner_spec
        )
        # The gauges must survive stop() clearing self.pool.
        self.metrics.worker_restarts_fn = lambda: pool.restarts
        self.metrics.workers_fn = lambda: len(pool)
        self._start_dispatch(len(pool))
        if cfg.metrics_interval:
            self._metrics_task = asyncio.create_task(
                self._metrics_loop(), name="serve-metrics"
            )
        logger.info(
            "serve: started (workers=%d capacity=%d cache=%s)",
            cfg.workers, cfg.capacity,
            getattr(cfg.cache, "root", None),
        )

    async def _metrics_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.metrics_interval)
            self.metrics.log_line()

    def _cached(self, exp_id: str, kwargs: dict, key: str):
        cache = self.config.cache
        if cache is None:
            return None
        hit = cache.get(exp_id, **kwargs)
        if hit is not None:
            self.metrics.cache_hits += 1
        return hit

    async def _run(self, job: Job) -> None:
        """Cache check, then the worker pool; the result is written back
        to the cache."""
        self.metrics.queue_wait.record(job.queue_wait)
        if self.timeline is not None:
            self.timeline.complete(
                "queue-wait", job.submitted_at, job.queue_wait,
                cat="serve", track="serve/queue",
                job_id=job.job_id, exp_id=job.exp_id,
                job_class=job.job_class,
            )
        # Sequential dedup: an identical job may have completed (and been
        # cached) while this one sat in the queue.
        cache = self.config.cache
        if cache is not None:
            hit = await asyncio.to_thread(cache.get, job.exp_id, **job.kwargs)
            if hit is not None:
                self.metrics.cache_hits += 1
                self._resolve(job, hit)
                return
            self.metrics.cache_misses += 1

        self.metrics.executed += 1

        def on_retry(exp_id: str, attempt: int, exc: Exception) -> None:
            # Runs on the pool thread; int bumps are atomic under the GIL.
            if isinstance(exc, WorkerTimeout):
                self.metrics.timeouts += 1
            self.metrics.retries += 1
            job.attempts = attempt + 1
            logger.warning(
                "retrying %s (%s, attempt %d): %s",
                job.job_id, exp_id, attempt + 2, exc,
            )

        try:
            payload = await asyncio.to_thread(
                self.pool.run_with_retry,
                job.exp_id,
                job.kwargs,
                timeout=job.timeout,
                retries=job.retries,
                on_retry=on_retry,
                timeline=self.timeline,
                job_id=job.job_id,
            )
        except JobFailed as exc:
            if "timed out" in exc.reason:
                self.metrics.timeouts += 1  # the final, non-retried attempt
            job.attempts = exc.attempts
            self._dispatch_span(job, "failed")
            self._fail(job, exc)
            return
        self._dispatch_span(job, "completed")
        if isinstance(payload, dict):
            # Side-channel from checkpoint-aware runners (the what-if
            # replayer): stripped before deserialisation so cached
            # payloads stay pure results.
            ckpt_meta = payload.pop("_checkpoint", None)
            if ckpt_meta:
                self.metrics.note_checkpoint(ckpt_meta)
        result = _deserialize(payload)
        if cache is not None:
            await asyncio.to_thread(cache.put, result, **job.kwargs)
        self._resolve(job, result)

    def _dispatch_span(self, job: Job, outcome: str) -> None:
        if self.timeline is not None:
            start = job.started_at
            self.timeline.complete(
                "dispatch", start, time.monotonic() - start,
                cat="serve", track="serve/dispatch",
                job_id=job.job_id, exp_id=job.exp_id,
                attempts=job.attempts, outcome=outcome,
            )

    async def stop(self) -> None:
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._metrics_task
            self._metrics_task = None
        if self.pool is not None:
            await asyncio.to_thread(self.pool.close)
            self.pool = None
        self._started = False


def main_serve(argv: list[str] | None = None) -> int:
    """``repro-bench serve`` entry point."""
    import argparse

    from ..bench.experiments import experiment_ids

    parser = argparse.ArgumentParser(
        prog="repro-bench serve",
        description="Serve what-if simulation jobs over TCP (JSON lines); "
        "pair with 'repro-bench submit'.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes (default 2)"
    )
    parser.add_argument(
        "--capacity", type=int, default=16,
        help="queue capacity; submissions beyond it are rejected",
    )
    parser.add_argument(
        "--interactive-limit", type=int, default=None, metavar="N",
        help="max queued interactive-class jobs",
    )
    parser.add_argument(
        "--batch-limit", type=int, default=None, metavar="N",
        help="max queued batch-class jobs",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job timeout in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="default retry budget for timed-out/crashed jobs",
    )
    parser.add_argument("--cache-dir", metavar="DIR")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--runner", metavar="MODULE:FUNCTION", default=None,
        help="custom job-body spec resolved in the workers (default: run "
        "a registry experiment); implies accepting any exp_id, since the "
        "runner owns the namespace",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=10.0,
        help="seconds between structured metrics log lines (0 disables)",
    )
    parser.add_argument(
        "--timeline", metavar="PATH", default=None,
        help="record queue-wait/dispatch/worker-exec spans and write a "
        "Perfetto trace JSON here at shutdown",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    class_limits = {}
    if args.interactive_limit is not None:
        class_limits["interactive"] = args.interactive_limit
    if args.batch_limit is not None:
        class_limits["batch"] = args.batch_limit
    timeline = None
    if args.timeline:
        from ..profiling.timeline import Timeline

        timeline = Timeline(
            time_fn=time.monotonic, name="serve", tag_os_ids=True
        )
    config = ServiceConfig(
        workers=args.workers,
        capacity=args.capacity,
        class_limits=class_limits or None,
        default_timeout=args.timeout,
        default_retries=args.retries,
        runner_spec=args.runner or DEFAULT_RUNNER,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        known_experiments=(
            None if args.runner else frozenset(experiment_ids())
        ),
        metrics_interval=args.metrics_interval,
        timeline=timeline,
    )

    run_server(SimulationService(config), args.host, args.port)
    if timeline is not None:
        from ..profiling.timeline import export_perfetto

        out = export_perfetto([timeline], args.timeline)
        logger.info("serve: wrote %d-event timeline to %s",
                    len(timeline), out)
    return 0
