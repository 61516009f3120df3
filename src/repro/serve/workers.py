"""Supervised worker processes for simulation jobs.

A :class:`WorkerProcess` owns one child process running a job loop over
a pipe; the parent can bound how long it waits for a reply and, on a
hang or crash, kill and respawn the child without losing the rest of the
pool. :class:`SupervisedWorkerPool` layers acquisition, retry, and
restart accounting on top; both the asyncio service and the
synchronous ``run_experiments_parallel`` drive it (the latter via
threads).

The code a worker runs is named by a ``"module:function"`` spec resolved
*in the child*, so tests and demos can substitute their own job body;
the default runner executes a registry experiment and returns it in the
result cache's serialised form. The default runner also honours two
reserved fault-injection kwargs (stripped before the experiment sees
them, but part of the cache key, so injected runs never pollute real
entries): ``_serve_hang_s`` sleeps that many seconds first (a hung
job), and ``_serve_hang_once`` names a flag file — if it exists it is
removed and the job hangs, so the first attempt times out and the retry
succeeds.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import queue as stdlib_queue
import signal
import time
import warnings

#: The production job body: run a registry experiment, serialise it.
DEFAULT_RUNNER = "repro.serve.workers:default_job_runner"

_HANG_SECONDS = 3600.0  # "forever" at service timescales


class WorkerCrashed(RuntimeError):
    """The child died (signal, ``os._exit``, OOM) before replying."""

    def __init__(self, name: str, exitcode: int | None):
        super().__init__(f"{name} crashed (exitcode={exitcode})")
        self.exitcode = exitcode


class WorkerTimeout(TimeoutError):
    """No reply within the job's deadline; the child may be hung."""


class JobError(RuntimeError):
    """The job body raised inside the worker (deterministic failure —
    not retried)."""


class JobFailed(RuntimeError):
    """A job exhausted its retry budget (or the pool shut down)."""

    def __init__(self, exp_id: str, reason: str, attempts: int = 0):
        super().__init__(f"{exp_id}: {reason} (after {attempts} attempt(s))")
        self.exp_id = exp_id
        self.reason = reason
        self.attempts = attempts


def _resolve_runner(spec: str):
    module, _, attr = spec.partition(":")
    return getattr(importlib.import_module(module), attr)


def default_job_runner(exp_id: str, kwargs: dict) -> dict:
    """Run one registry experiment; returns the cache-serialised payload."""
    from ..bench.experiments import run_experiment
    from ..bench.runner import _serialize

    kwargs = dict(kwargs)
    hang_s = kwargs.pop("_serve_hang_s", 0)
    hang_once = kwargs.pop("_serve_hang_once", None)
    if hang_once and os.path.exists(hang_once):
        os.unlink(hang_once)
        time.sleep(_HANG_SECONDS)
    if hang_s:
        time.sleep(hang_s)
    return _serialize(run_experiment(exp_id, **kwargs))


def _worker_main(
    conn, runner_spec: str, owner: int, sanitize: bool = False
) -> None:
    """Child-side loop: recv ``(exp_id, kwargs)``, send a reply dict.

    The loop also ends once ``owner``, the pid that spawned the child, is
    no longer its parent. A forked child holds the parent's end of its
    own pipe and of its siblings' pipes, so EOF never arrives; the child
    watches its parent pid instead. The owner pid is taken in the owner:
    read in the child, it would already name init or a subreaper if the
    owner died before the child ran. The child also inherits the parent's
    signal handlers, and an asyncio SIGTERM handler would swallow
    SIGTERM, so SIGTERM is reset to its default.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if sanitize:
        # Pin the parent's sanitize decision in the child explicitly, so
        # a pool created under REPRO_SANITIZE=1 keeps checking even if
        # the environment changes later (and regardless of start method).
        os.environ["REPRO_SANITIZE"] = "1"
    runner = _resolve_runner(runner_spec)
    while True:
        try:
            if not conn.poll(0.5):
                if os.getppid() != owner:
                    break
                continue
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None:
            break
        exp_id, kwargs = msg
        try:
            reply = {"ok": True, "payload": runner(exp_id, kwargs)}
        except KeyboardInterrupt:
            break
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


def _mp_context():
    # fork (where available) inherits the parent's imported modules and
    # any test monkeypatching; spawn needs the runner spec importable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class WorkerProcess:
    """One supervised child process with a request/reply pipe."""

    def __init__(
        self,
        runner_spec: str = DEFAULT_RUNNER,
        name: str = "worker",
        *,
        sanitize: bool | None = None,
    ):
        from ..check.sanitizer import sanitize_requested

        self.runner_spec = runner_spec
        self.name = name
        self.restarts = 0
        #: Decided once at pool/worker creation; survives restarts.
        self.sanitize = sanitize_requested() if sanitize is None else sanitize
        self._ctx = _mp_context()
        self._spawn()

    def _spawn(self) -> None:
        self._conn, child_conn = self._ctx.Pipe()
        with warnings.catch_warnings():
            # Restarts fork from a pool thread; the 3.12+ multithreaded
            # fork DeprecationWarning is noise for this tiny child.
            warnings.simplefilter("ignore", DeprecationWarning)
            self._proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.runner_spec, os.getpid(), self.sanitize),
                name=self.name,
                daemon=True,
            )
            self._proc.start()
        child_conn.close()

    @property
    def pid(self) -> int | None:
        return self._proc.pid

    def is_alive(self) -> bool:
        return self._proc.is_alive()

    def run(self, exp_id: str, kwargs: dict, timeout: float | None = None) -> dict:
        """Run one job to completion; raise :class:`WorkerTimeout` /
        :class:`WorkerCrashed` / :class:`JobError` on the three failure
        modes. After a timeout or crash the caller must :meth:`restart`
        before reusing this worker."""
        self._conn.send((exp_id, dict(kwargs)))
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            step = 0.05
            if deadline is not None:
                step = min(step, max(0.0, deadline - time.monotonic()))
            try:
                ready = self._conn.poll(step)
            except (BrokenPipeError, OSError):
                raise WorkerCrashed(self.name, self._proc.exitcode) from None
            if ready:
                try:
                    reply = self._conn.recv()
                except (EOFError, OSError):
                    raise WorkerCrashed(self.name, self._proc.exitcode) from None
                if reply["ok"]:
                    return reply["payload"]
                raise JobError(reply["error"])
            if not self._proc.is_alive():
                raise WorkerCrashed(self.name, self._proc.exitcode)
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerTimeout(
                    f"{self.name}: no reply for {exp_id!r} within {timeout}s"
                )

    def restart(self) -> None:
        """Kill the child (it may be hung mid-job) and spawn a fresh one."""
        self.kill()
        self.restarts += 1
        self._spawn()

    def kill(self) -> None:
        if self._proc.is_alive():
            self._proc.kill()
        self._proc.join(timeout=5)
        self._conn.close()

    def close(self) -> None:
        """Polite shutdown: ask the loop to exit, then reap."""
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=2)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5)
        self._conn.close()


class SupervisedWorkerPool:
    """A fixed-size pool of :class:`WorkerProcess` with retry/restart.

    Thread-safe: workers are handed out through a queue, so the asyncio
    service (via ``asyncio.to_thread``) and the parallel runner (via a
    thread pool) can both drive :meth:`run_with_retry` concurrently.
    """

    def __init__(
        self,
        n_workers: int,
        runner_spec: str = DEFAULT_RUNNER,
        *,
        sanitize: bool | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.workers = [
            WorkerProcess(runner_spec, name=f"repro-serve-{i}", sanitize=sanitize)
            for i in range(n_workers)
        ]
        self._free: stdlib_queue.Queue[WorkerProcess] = stdlib_queue.Queue()
        for worker in self.workers:
            self._free.put(worker)
        self._closing = False

    def __len__(self) -> int:
        return len(self.workers)

    @property
    def restarts(self) -> int:
        return sum(w.restarts for w in self.workers)

    def run_with_retry(
        self,
        exp_id: str,
        kwargs: dict,
        *,
        timeout: float | None = None,
        retries: int = 0,
        on_retry=None,
        timeline=None,
        job_id: str = "",
    ) -> dict:
        """Run a job, retrying timeouts and crashes up to ``retries``
        times (restarting the worker each time). Job-body exceptions are
        deterministic and fail immediately. ``on_retry(exp_id, attempt,
        exc)`` fires before each retry (metrics hook). ``timeline``
        (a wall-clock :class:`repro.profiling.Timeline`) gets one
        ``worker-exec`` span per attempt, tagged with the worker's OS
        pid and correlated by ``job_id``."""
        last: Exception | None = None
        attempts = 0
        for attempt in range(retries + 1):
            if self._closing:
                raise JobFailed(exp_id, "pool shutting down", attempts)
            worker = self._free.get()
            attempts += 1
            exec_start = time.monotonic()
            exec_pid = worker.pid  # the attempt's child (restart changes it)
            outcome = "completed"
            try:
                return worker.run(exp_id, kwargs, timeout=timeout)
            except (WorkerTimeout, WorkerCrashed) as exc:
                last = exc
                outcome = "timeout" if isinstance(exc, WorkerTimeout) else "crash"
                if not self._closing:
                    worker.restart()
                if on_retry is not None and attempt < retries:
                    on_retry(exp_id, attempt, exc)
            except JobError as exc:
                outcome = "error"
                raise JobFailed(exp_id, str(exc), attempts) from exc
            finally:
                if timeline is not None:
                    timeline.complete(
                        "worker-exec", exec_start,
                        time.monotonic() - exec_start,
                        cat="serve", track=f"serve/{worker.name}",
                        job_id=job_id, exp_id=exp_id, attempt=attempt,
                        worker=worker.name, worker_pid=exec_pid,
                        outcome=outcome,
                    )
                self._free.put(worker)
        kind = "timed out" if isinstance(last, WorkerTimeout) else "crashed"
        raise JobFailed(exp_id, f"{kind}: {last}", attempts) from last

    def shutdown_now(self) -> None:
        """Abort: kill every child so blocked ``run()`` calls raise and
        their threads unwind (used on KeyboardInterrupt/SIGTERM)."""
        self._closing = True
        for worker in self.workers:
            worker.kill()

    def close(self) -> None:
        self._closing = True
        for worker in self.workers:
            worker.close()
