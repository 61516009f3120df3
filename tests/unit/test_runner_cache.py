"""Unit tests for the cached, parallel experiment runner."""

import json

import pytest

from repro.bench import experiments
from repro.bench.cli import main as cli_main
from repro.bench.harness import ExperimentResult
from repro.bench.runner import (
    CACHE_SCHEMA,
    ResultCache,
    cache_key,
    run_experiment_cached,
    run_experiments_parallel,
)

CALLS: dict[str, int] = {}


def _fake_experiment(exp_id):
    def run(scale=1.0, **kwargs):
        CALLS[exp_id] = CALLS.get(exp_id, 0) + 1
        return ExperimentResult(
            exp_id,
            f"fake {exp_id}",
            rows=[{"scale": scale, "value": len(exp_id)}],
            notes=[f"note for {exp_id}"],
        )

    return run


def _recording_scale(seen: list):
    def run(scale=1.0, **kwargs):
        seen.append(scale)
        return ExperimentResult("expA", "fake expA", rows=[{"scale": scale}])

    return run


@pytest.fixture
def fake_registry(monkeypatch):
    """Replace the experiment registry with three fast fakes that count
    their invocations (in-process, so use jobs=1 when counting)."""
    registry = {e: _fake_experiment(e) for e in ("expA", "expB", "expC")}
    monkeypatch.setattr(experiments, "_REGISTRY", registry)
    CALLS.clear()
    return registry


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCacheKey:
    def test_key_depends_on_kwargs(self):
        assert cache_key("fig3", {"scale": 1.0}) != cache_key(
            "fig3", {"scale": 0.5}
        )

    def test_key_ignores_kwargs_order(self):
        assert cache_key("fig3", {"a": 1, "b": 2}) == cache_key(
            "fig3", {"b": 2, "a": 1}
        )

    def test_key_depends_on_exp_id(self):
        assert cache_key("fig3", {}) != cache_key("fig4", {})


class TestResultCache:
    def test_miss_then_hit(self, fake_registry, cache):
        assert cache.get("expA", scale=1.0) is None
        result = run_experiment_cached("expA", cache=cache, scale=1.0)
        hit = cache.get("expA", scale=1.0)
        assert hit is not None
        assert hit.exp_id == "expA"
        assert hit.rows == result.rows
        assert hit.notes == result.notes
        # Two misses: the explicit probe above plus the one inside
        # run_experiment_cached before it regenerated.
        assert cache.misses == 2 and cache.hits == 1

    def test_cached_run_does_not_reinvoke(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache, scale=1.0)
        run_experiment_cached("expA", cache=cache, scale=1.0)
        assert CALLS["expA"] == 1

    def test_different_kwargs_are_different_entries(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache, scale=1.0)
        run_experiment_cached("expA", cache=cache, scale=0.5)
        assert CALLS["expA"] == 2

    def test_force_reruns_and_overwrites(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache, scale=1.0)
        run_experiment_cached("expA", cache=cache, force=True, scale=1.0)
        assert CALLS["expA"] == 2

    def test_corrupt_entry_is_a_miss(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache, scale=1.0)
        path = cache.path_for("expA", {"scale": 1.0})
        path.write_text("{not json")
        assert cache.get("expA", scale=1.0) is None

    def test_stale_schema_is_a_miss(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache, scale=1.0)
        path = cache.path_for("expA", {"scale": 1.0})
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA - 1
        path.write_text(json.dumps(payload))
        assert cache.get("expA", scale=1.0) is None

    def test_invalidate_one_experiment(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache, scale=1.0)
        run_experiment_cached("expB", cache=cache, scale=1.0)
        assert cache.invalidate("expA") == 1
        assert cache.get("expA", scale=1.0) is None
        assert cache.get("expB", scale=1.0) is not None

    def test_invalidate_all(self, fake_registry, cache):
        run_experiment_cached("expA", cache=cache, scale=1.0)
        run_experiment_cached("expB", cache=cache, scale=1.0)
        assert cache.invalidate() == 2
        assert not list(cache.root.glob("*.json"))

    def test_without_cache_runs_directly(self, fake_registry):
        result = run_experiment_cached("expA", scale=1.0)
        assert result.exp_id == "expA" and CALLS["expA"] == 1


class TestParallelRunner:
    def test_second_invocation_all_from_cache(self, fake_registry, cache):
        first = run_experiments_parallel(jobs=1, cache=cache)
        assert sorted(first) == ["expA", "expB", "expC"]
        assert all(CALLS[e] == 1 for e in first)
        second = run_experiments_parallel(jobs=1, cache=cache)
        assert all(CALLS[e] == 1 for e in second), "cache was bypassed"
        assert cache.hits == 3
        for e in first:
            assert second[e].rows == first[e].rows

    def test_preserves_requested_order(self, fake_registry, cache):
        out = run_experiments_parallel(
            ["expC", "expA"], jobs=1, cache=cache
        )
        assert list(out) == ["expC", "expA"]

    def test_kwargs_reach_experiments(self, fake_registry):
        out = run_experiments_parallel(
            ["expA"], jobs=1, kwargs={"scale": 0.25}
        )
        assert out["expA"].rows[0]["scale"] == 0.25

    def test_per_experiment_overrides(self, fake_registry):
        out = run_experiments_parallel(
            ["expA", "expB"],
            jobs=1,
            kwargs={"scale": 1.0},
            kwargs_per_exp={"expB": {"scale": 0.5}},
        )
        assert out["expA"].rows[0]["scale"] == 1.0
        assert out["expB"].rows[0]["scale"] == 0.5

    def test_unknown_experiment_raises(self, fake_registry):
        with pytest.raises(KeyError):
            run_experiments_parallel(["nope"], jobs=1)

    def test_process_pool_smoke(self, cache):
        # Real registry + real pool: two cheap experiments across two
        # workers, then a fully cached second pass.
        ids = ["table1", "table2"]
        out = run_experiments_parallel(
            ids, jobs=2, cache=cache, kwargs={"scale": 1.0}
        )
        assert sorted(out) == sorted(ids)
        assert all(out[e].rows for e in ids)
        again = run_experiments_parallel(
            ids, jobs=2, cache=cache, kwargs={"scale": 1.0}
        )
        assert cache.hits == 2
        for e in ids:
            assert again[e].rows == out[e].rows


class TestCli:
    def test_run_subcommand(self, fake_registry, tmp_path, capsys):
        rc = cli_main(
            ["run", "--all", "--jobs", "1",
             "--cache-dir", str(tmp_path / "c")]
        )
        assert rc == 0
        assert "0 from cache, 3 regenerated" in capsys.readouterr().out
        rc = cli_main(
            ["run", "--all", "--jobs", "1",
             "--cache-dir", str(tmp_path / "c")]
        )
        assert rc == 0
        assert "3 from cache, 0 regenerated" in capsys.readouterr().out

    def test_run_invalidate(self, fake_registry, tmp_path, capsys):
        cli_main(["run", "expA", "--jobs", "1",
                  "--cache-dir", str(tmp_path / "c")])
        capsys.readouterr()
        rc = cli_main(["run", "expA", "--invalidate",
                       "--cache-dir", str(tmp_path / "c")])
        assert rc == 0
        assert "invalidated 1" in capsys.readouterr().out

    def test_classic_cli_still_works(self, fake_registry, capsys):
        rc = cli_main(["expA"])
        assert rc == 0
        assert "fake expA" in capsys.readouterr().out

    def test_classic_cli_scale_accepts_a_fraction(self, fake_registry):
        seen = []
        fake_registry["expA"] = _recording_scale(seen)
        assert cli_main(["expA", "--scale", "1/64"]) == 0
        assert seen == [1 / 64]

    def test_run_scale_accepts_a_fraction(self, fake_registry, tmp_path):
        seen = []
        fake_registry["expA"] = _recording_scale(seen)
        rc = cli_main(["run", "expA", "--scale", "1/64", "--jobs", "1",
                       "--cache-dir", str(tmp_path / "c")])
        assert rc == 0
        assert seen == [1 / 64]


class TestStatsNonMutating:
    """Regression: inspecting the cache must never write.

    An earlier design folded session counters into the ``_stats.json``
    sidecar from the read path, so ``repro-bench cache stats`` rewrote
    the sidecar (and created the cache directory) on every inspection.
    The contract now is: only ``save_session_stats`` writes.
    """

    def _tree_state(self, root):
        return sorted(
            (str(p), p.stat().st_mtime_ns, p.stat().st_size)
            for p in root.rglob("*")
        )

    def test_stats_on_absent_root_creates_nothing(self, tmp_path):
        root = tmp_path / "never-created"
        cache = ResultCache(root)
        cache.misses = 3  # session counters must not leak to disk
        cache.stats()
        assert not root.exists()

    def test_stats_leaves_populated_cache_untouched(
        self, fake_registry, cache
    ):
        run_experiment_cached("expA", cache=cache, scale=1.0)
        cache.save_session_stats()
        before = self._tree_state(cache.root)
        for _ in range(3):
            stats = cache.stats()
        assert self._tree_state(cache.root) == before
        assert stats["lifetime_misses"] >= 1

    def test_cli_stats_is_read_only(self, fake_registry, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        cli_main(["run", "expA", "--jobs", "1",
                  "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        before = self._tree_state(cache_dir)
        assert cli_main(["cache", "stats",
                         "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert self._tree_state(cache_dir) == before

    def test_save_session_stats_accumulates_and_resets(self, cache):
        cache.hits, cache.misses = 2, 5
        cache.save_session_stats()
        cache.hits, cache.misses = 1, 0
        cache.save_session_stats()
        stats = cache.stats()
        assert (stats["lifetime_hits"], stats["lifetime_misses"]) == (3, 5)
        assert cache.hits == 0 and cache.misses == 0


class TestRunPayloadCached:
    def test_miss_then_hit(self, fake_registry, cache):
        calls = []

        def producer():
            calls.append(1)
            return {"answer": 42}

        from repro.bench.runner import run_payload_cached

        first = run_payload_cached("plan_cal_x", producer, cache=cache)
        second = run_payload_cached("plan_cal_x", producer, cache=cache)
        assert first == second == {"answer": 42}
        assert len(calls) == 1

    def test_kwargs_key_separate_entries(self, fake_registry, cache):
        from repro.bench.runner import run_payload_cached

        a = run_payload_cached(
            "plan_cal_x", lambda: {"v": 1}, cache=cache, scale=1.0
        )
        b = run_payload_cached(
            "plan_cal_x", lambda: {"v": 2}, cache=cache, scale=0.5
        )
        assert (a["v"], b["v"]) == (1, 2)

    def test_registry_collision_rejected(self, fake_registry, cache):
        from repro.bench.runner import run_payload_cached

        with pytest.raises(ValueError, match="collides"):
            run_payload_cached("expA", lambda: {}, cache=cache)

    def test_non_dict_payload_rejected(self, fake_registry, cache):
        from repro.bench.runner import run_payload_cached

        with pytest.raises(TypeError):
            run_payload_cached("plan_cal_x", lambda: [1, 2], cache=cache)

    def test_force_reruns(self, fake_registry, cache):
        from repro.bench.runner import run_payload_cached

        run_payload_cached("plan_cal_x", lambda: {"v": 1}, cache=cache)
        out = run_payload_cached(
            "plan_cal_x", lambda: {"v": 2}, cache=cache, force=True
        )
        assert out["v"] == 2


class TestRunHooks:
    def test_hooks_observe_miss_and_hit(self, fake_registry, cache):
        from repro.bench.runner import (
            register_run_hook,
            unregister_run_hook,
        )

        seen = []
        register_run_hook(seen.append)
        try:
            run_experiment_cached("expA", cache=cache, scale=1.0)
            run_experiment_cached("expA", cache=cache, scale=1.0)
        finally:
            unregister_run_hook(seen.append)
        assert [(r.exp_id, r.cached) for r in seen] == [
            ("expA", False), ("expA", True),
        ]
        assert seen[0].wall_s >= 0.0
        assert seen[0].kwargs == {"scale": 1.0}

    def test_unregister_is_idempotent(self):
        from repro.bench.runner import unregister_run_hook

        unregister_run_hook(lambda r: None)  # never registered: no-op
