"""Tests for the runner's timeout/retry path, interrupt handling, and
the ``repro-bench cache`` subcommand."""

import multiprocessing
import signal
import threading

import pytest

import repro.bench.runner as runner
from repro.bench import experiments
from repro.bench.cli import main as cli_main
from repro.bench.harness import ExperimentResult
from repro.bench.runner import (
    ExperimentFailure,
    ExperimentInterrupted,
    ResultCache,
    run_experiment_cached,
    run_experiments_parallel,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised-pool tests rely on fork inheriting the patched registry",
)

DEADLINE_S = 60


@pytest.fixture(autouse=True)
def _per_test_deadline():
    """Hard wall-clock deadline per test: a regression that hangs the
    supervised pool (lost reply, dead retry loop) fails *this* test with
    a traceback instead of stalling the whole suite."""
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(f"test exceeded the {DEADLINE_S}s deadline")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _fake_experiment(exp_id):
    def run(scale=1.0, **kwargs):
        return ExperimentResult(
            exp_id, f"fake {exp_id}", rows=[{"value": len(exp_id)}]
        )

    return run


@pytest.fixture
def fake_registry(monkeypatch):
    registry = {e: _fake_experiment(e) for e in ("expA", "expB", "expC")}
    monkeypatch.setattr(experiments, "_REGISTRY", registry)
    return registry


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@needs_fork
class TestSupervisedTimeouts:
    def test_hung_experiment_fails_without_stalling_the_rest(self, fake_registry):
        # _serve_hang_s is stripped by the worker's default runner, so
        # only expB actually hangs; the pool kills and reports it.
        with pytest.raises(ExperimentFailure) as exc:
            run_experiments_parallel(
                ["expA", "expB", "expC"],
                jobs=2,
                timeout=0.4,
                kwargs_per_exp={"expB": {"_serve_hang_s": 60}},
            )
        assert set(exc.value.failures) == {"expB"}
        assert "timed out" in exc.value.failures["expB"]
        assert set(exc.value.completed) == {"expA", "expC"}
        assert exc.value.completed["expA"].rows == [{"value": 4}]

    def test_retry_recovers_a_transient_hang(self, fake_registry, tmp_path):
        flag = tmp_path / "hang-once"
        flag.touch()
        results = run_experiments_parallel(
            ["expA"],
            jobs=1,
            timeout=1.0,
            retries=1,
            kwargs_per_exp={"expA": {"_serve_hang_once": str(flag)}},
        )
        assert results["expA"].rows == [{"value": 4}]
        assert not flag.exists()

    def test_supervised_path_feeds_the_cache(self, fake_registry, cache):
        run_experiments_parallel(
            ["expA", "expB"], jobs=2, timeout=30.0, cache=cache
        )
        assert cache.get("expA") is not None
        assert cache.get("expB") is not None


class TestInterrupt:
    def test_interrupt_reports_completed_prefix(
        self, fake_registry, cache, monkeypatch
    ):
        # expA is already cached; the pool is interrupted before any
        # pending future completes.
        run_experiment_cached("expA", cache=cache)

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "as_completed", interrupted_wait)
        with pytest.raises(ExperimentInterrupted) as exc:
            run_experiments_parallel(
                ["expA", "expB", "expC"], jobs=2, cache=cache
            )
        assert set(exc.value.completed) == {"expA"}

    def test_inline_interrupt_reports_completed_prefix(self, monkeypatch):
        calls = []

        def flaky(exp_id):
            def run(scale=1.0, **kwargs):
                calls.append(exp_id)
                if exp_id == "expB":
                    raise KeyboardInterrupt
                return ExperimentResult(exp_id, exp_id, rows=[{}])

            return run

        monkeypatch.setattr(
            experiments,
            "_REGISTRY",
            {e: flaky(e) for e in ("expA", "expB", "expC")},
        )
        with pytest.raises(ExperimentInterrupted) as exc:
            run_experiments_parallel(["expA", "expB", "expC"], jobs=1)
        assert set(exc.value.completed) == {"expA"}
        assert calls == ["expA", "expB"]


def test_in_process_run_restores_the_sigterm_handler():
    before = signal.getsignal(signal.SIGTERM)
    assert cli_main(["run", "table1", "--jobs", "1", "--no-cache"]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


class TestCacheCli:
    def test_stats_and_invalidate(self, fake_registry, cache, capsys):
        run_experiment_cached("expA", cache=cache)
        run_experiment_cached("expB", cache=cache)
        run_experiment_cached("expA", cache=cache)  # a hit
        cache.save_session_stats()

        assert cli_main(["cache", "--cache-dir", str(cache.root)]) == 0
        out = capsys.readouterr().out
        assert "entries:     2" in out
        assert "1 hits / 2 misses" in out
        assert "expA" in out and "expB" in out

        code = cli_main(
            ["cache", "invalidate", "expA", "--cache-dir", str(cache.root)]
        )
        assert code == 0
        assert "invalidated 1" in capsys.readouterr().out
        assert cache.get("expA") is None
        assert cache.get("expB") is not None

    def test_stats_json_excludes_sidecar_from_entries(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache)
        cache.save_session_stats()
        stats = cache.stats()
        assert stats["entries"] == 1
        assert (cache.root / "_stats.json").exists()
        # full invalidation leaves the sidecar alone
        assert cache.invalidate() == 1
        assert (cache.root / "_stats.json").exists()

    def test_save_session_stats_is_idempotent(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache)
        cache.save_session_stats()
        cache.save_session_stats()  # counters were zeroed; no double count
        assert cache.stats()["lifetime_misses"] == 1
