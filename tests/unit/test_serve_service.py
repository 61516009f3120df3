"""Service-level tests: backpressure, coalescing, timeout escalation,
graceful drain, cache integration, and the TCP protocol.

The worker pool runs this module's ``_test_runner`` instead of real
experiments (the runner spec is resolved inside the forked child, which
inherits this module via ``sys.modules``). Executions are counted
through an append-only log file, so "exactly one execution" is asserted
across process boundaries.
"""

import asyncio
import gc
import json
import multiprocessing
import time
import weakref

import pytest

from repro.bench.harness import ExperimentResult
from repro.bench.runner import ResultCache, _serialize
from repro.serve import (
    AdmissionError,
    JobFailed,
    ServeClient,
    ServiceConfig,
    SimulationService,
    serve_tcp,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker tests rely on fork inheriting this module",
)

RUNNER_SPEC = f"{__name__}:_test_runner"


def _test_runner(exp_id: str, kwargs: dict) -> dict:
    """Worker-side job body: optional execution log, delay, or hang."""
    kwargs = dict(kwargs)
    log = kwargs.pop("log", None)
    if log:
        with open(log, "a") as f:
            f.write(f"{exp_id}\n")
    if kwargs.pop("hang", False):
        time.sleep(600)
    delay = kwargs.pop("delay", 0)
    if delay:
        time.sleep(delay)
    return _serialize(
        ExperimentResult(exp_id, f"test {exp_id}", rows=[{"exp": exp_id}])
    )


def make_service(**overrides) -> SimulationService:
    defaults = dict(
        workers=2, capacity=8, runner_spec=RUNNER_SPEC, metrics_interval=0.0
    )
    defaults.update(overrides)
    return SimulationService(ServiceConfig(**defaults))


def run(coro):
    return asyncio.run(coro)


async def wait_until(predicate, timeout=5.0, interval=0.005):
    """Poll ``predicate`` until true; fail loudly on timeout (no fixed
    sleeps — keeps the suite deterministic on slow/loaded machines)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"condition not met within {timeout}s")
        await asyncio.sleep(interval)


async def wait_for_dispatch(svc, n=1):
    """Wait until ``n`` job(s) are on workers and the queue is empty."""
    await wait_until(
        lambda: (
            svc.metrics_snapshot()["in_flight"] >= n
            and svc.metrics_snapshot()["queue"]["depth"] == 0
        )
    )


class TestBackpressure:
    def test_rejects_when_queue_full_and_drains_cleanly(self):
        async def body():
            async with make_service(workers=1, capacity=2) as svc:
                first = svc.submit("busy", {"delay": 0.4})
                await wait_for_dispatch(svc)  # let it dequeue onto the worker
                accepted = [
                    svc.submit("q1", {"delay": 0}),
                    svc.submit("q2", {"delay": 0}),
                ]
                with pytest.raises(AdmissionError) as exc:
                    svc.submit("q3", {"delay": 0})
                assert exc.value.reason == "queue full"
                await svc.drain()
                for handle in [first, *accepted]:
                    assert (await handle.result(1)).rows
            snap = svc.metrics_snapshot()
            assert snap["jobs"]["rejected"] == {"queue full": 1}
            assert snap["jobs"]["completed"] == 3

        run(body())

    def test_per_class_limit(self):
        async def body():
            async with make_service(
                workers=1, capacity=8, class_limits={"interactive": 1}
            ) as svc:
                svc.submit("busy", {"delay": 0.3})
                await wait_for_dispatch(svc)
                svc.submit("i1", {}, job_class="interactive")
                with pytest.raises(AdmissionError) as exc:
                    svc.submit("i2", {}, job_class="interactive")
                assert exc.value.reason == "class limit reached"
                svc.submit("b1", {})  # batch seat unaffected
                await svc.drain()

        run(body())

    def test_unknown_experiment_rejected_at_admission(self):
        async def body():
            async with make_service(
                known_experiments=frozenset({"fig3"})
            ) as svc:
                with pytest.raises(AdmissionError) as exc:
                    svc.submit("nope", {})
                assert exc.value.reason == "unknown experiment"
                assert svc.metrics_snapshot()["jobs"]["rejected_total"] == 1

        run(body())


class TestCoalescing:
    def test_identical_concurrent_submissions_run_once(self, tmp_path):
        log = tmp_path / "exec.log"

        async def body():
            async with make_service(workers=2) as svc:
                kwargs = {"delay": 0.3, "log": str(log)}
                primary = svc.submit("same", kwargs)
                dupes = [svc.submit("same", kwargs) for _ in range(4)]
                assert all(h.coalesced for h in dupes)
                assert {h.job_id for h in dupes} == {primary.job_id}
                rows = (await primary.result(5)).rows
                for h in dupes:
                    assert (await h.result(1)).rows == rows
            snap = svc.metrics_snapshot()
            assert snap["jobs"]["coalesced"] == 4
            assert snap["jobs"]["executed"] == 1

        run(body())
        assert log.read_text().splitlines() == ["same"]

    def test_different_kwargs_do_not_coalesce(self):
        async def body():
            async with make_service(workers=2) as svc:
                a = svc.submit("same", {"delay": 0.2, "x": 1})
                b = svc.submit("same", {"delay": 0.2, "x": 2})
                assert not b.coalesced
                assert a.key != b.key
                await svc.drain()

        run(body())


class TestTimeoutEscalation:
    def test_timeout_retry_then_failure_without_stalling_others(self):
        async def body():
            async with make_service(workers=2) as svc:
                hung = svc.submit("hang", {"hang": True}, timeout=0.3, retries=1)
                ok = svc.submit("fine", {"delay": 0.1})
                assert (await ok.result(5)).rows  # not stalled by the hang
                with pytest.raises(JobFailed) as exc:
                    await hung.result(10)
                assert exc.value.attempts == 2
                assert "timed out" in exc.value.reason
            snap = svc.metrics_snapshot()
            assert snap["jobs"]["timeouts"] == 2  # both attempts
            assert snap["jobs"]["retries"] == 1
            assert snap["jobs"]["failed"] == 1
            assert snap["jobs"]["completed"] == 1
            assert snap["workers"]["restarts"] >= 2

        run(body())

    def test_hang_once_recovers_on_retry(self, tmp_path):
        flag = tmp_path / "hang-once"
        flag.touch()

        async def body():
            async with make_service(workers=1) as svc:
                handle = svc.submit(
                    "flaky",
                    {"_serve_hang_once": str(flag)},
                    timeout=0.5,
                    retries=1,
                )
                assert (await handle.result(10)).rows
            snap = svc.metrics_snapshot()
            assert snap["jobs"]["retries"] == 1
            assert snap["jobs"]["completed"] == 1
            assert snap["jobs"]["failed"] == 0

        # the default runner owns the _serve_* hooks
        from repro.serve.workers import DEFAULT_RUNNER

        global RUNNER_SPEC
        saved = RUNNER_SPEC
        RUNNER_SPEC = DEFAULT_RUNNER
        try:
            # route through a real (tiny) experiment
            import repro.bench.experiments as experiments

            def fake(scale=1.0, **kwargs):
                return ExperimentResult("flaky", "flaky", rows=[{"ok": 1}])

            fake.exp_id = "flaky"
            original = dict(experiments._REGISTRY)
            experiments._REGISTRY["flaky"] = fake
            try:
                run(body())
            finally:
                experiments._REGISTRY.clear()
                experiments._REGISTRY.update(original)
        finally:
            RUNNER_SPEC = saved
        assert not flag.exists()


class TestDrain:
    def test_drain_delivers_every_accepted_job(self, tmp_path):
        log = tmp_path / "exec.log"

        async def body():
            async with make_service(workers=2, capacity=16) as svc:
                handles = [
                    svc.submit(f"job{i}", {"log": str(log)}) for i in range(8)
                ]
                await svc.drain()
                assert all(h.done() for h in handles)
                for h in handles:
                    assert (await h.result(1)).rows
                with pytest.raises(AdmissionError) as exc:
                    svc.submit("late", {})
                assert exc.value.reason == "service draining"
            assert svc.metrics_snapshot()["jobs"]["completed"] == 8

        run(body())
        assert len(log.read_text().splitlines()) == 8

    def test_cancel_queued_job(self):
        async def body():
            async with make_service(workers=1, capacity=8) as svc:
                svc.submit("busy", {"delay": 0.3})
                await wait_for_dispatch(svc)
                doomed = svc.submit("queued", {})
                assert svc.cancel(doomed.job_id)
                await svc.drain()
                with pytest.raises(asyncio.CancelledError):
                    await doomed.result(1)
            assert svc.metrics_snapshot()["jobs"]["cancelled"] == 1

        run(body())


class TestJobRetention:
    def test_settled_results_are_released(self):
        """The service keeps no settled job: once the callers drop their
        handles, every result is garbage."""

        async def body():
            async with make_service(workers=2) as svc:
                refs = []
                for i in range(20):
                    handle = svc.submit(f"job{i}", {})
                    refs.append(weakref.ref(await handle.result(5)))
                del handle
                await svc.drain()
                gc.collect()
                assert [ref() for ref in refs] == [None] * len(refs)

        run(body())


class TestCacheIntegration:
    def test_completed_jobs_hit_cache_on_resubmit(self, tmp_path):
        log = tmp_path / "exec.log"
        cache = ResultCache(tmp_path / "cache")

        async def body():
            async with make_service(workers=1, cache=cache) as svc:
                first = svc.submit("cacheme", {"log": str(log)})
                rows = (await first.result(5)).rows
                second = svc.submit("cacheme", {"log": str(log)})
                assert second.cached
                assert (await second.result(1)).rows == rows
            snap = svc.metrics_snapshot()
            assert snap["cache"]["hits"] == 1
            assert snap["cache"]["hit_ratio"] == 0.5

        run(body())
        assert log.read_text().splitlines() == ["cacheme"]


class TestTcpProtocol:
    def test_submit_metrics_shutdown_roundtrip(self, tmp_path):
        async def body():
            service = make_service(workers=1)
            await service.start()
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            server = asyncio.ensure_future(
                serve_tcp(
                    service, "127.0.0.1", 0,
                    on_ready=lambda h, p: ready.set_result((h, p)),
                )
            )
            host, port = await asyncio.wait_for(ready, 5)

            def client_session():
                with ServeClient(host, port) as client:
                    assert client.ping()
                    reply = client.submit("tcp-job", {"delay": 0.05})
                    assert reply["ok"] and reply["result"]["rows"]
                    dup = client.submit("tcp-job", {"delay": 0.05})
                    assert dup["ok"]
                    metrics = client.metrics()
                    assert metrics["jobs"]["completed"] >= 1
                    assert client.shutdown()["ok"]

            await asyncio.to_thread(client_session)
            await asyncio.wait_for(server, 10)

        run(body())
