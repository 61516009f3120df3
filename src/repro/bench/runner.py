"""Cached, parallel experiment execution.

The experiment registry regenerates every table and figure of the paper
from scratch on each invocation, and a full sweep runs dozens of
application simulations. Two pieces make that tractable at paper scale:

* :class:`ResultCache` — a content-addressed on-disk cache of
  :class:`~repro.bench.harness.ExperimentResult` payloads. The cache key
  is a SHA-256 over ``(experiment id, experiment kwargs, the paper
  testbed's SystemConfig, the repro package version, cache schema)``, so
  any recalibration of the model, change of experiment parameters, or
  package upgrade invalidates stale entries automatically; explicit
  invalidation is available via :meth:`ResultCache.invalidate` or
  ``repro-bench run --invalidate``.
* :func:`run_experiments_parallel` — fans uncached experiments out
  across the supervised worker processes of :mod:`repro.serve`
  (experiments are independent, pure functions of their kwargs) and
  folds completed results back into the cache. Exposed on the command
  line as ``python -m repro.bench run --jobs N``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import Iterable

from .. import __version__
from ..sim.config import SystemConfig
from .experiments import experiment_descriptions, experiment_ids, run_experiment
from .harness import ExperimentResult

#: Bump to invalidate every existing cache entry after a change to the
#: serialisation layout or the key derivation.
CACHE_SCHEMA = 1

#: Sidecar file (not a cache entry) accumulating hit/miss totals across
#: processes, surfaced by ``repro-bench cache stats``.
STATS_FILE = "_stats.json"

#: Observers notified after every run served through this module (see
#: :func:`register_run_hook`). Calibration mode for the capacity planner:
#: ``repro.plan`` registers a hook to watch runs complete (host wall
#: time, cache disposition) without the runner importing the planner.
_RUN_HOOKS: list = []


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One completed (or cache-served) run, as seen by run hooks."""

    exp_id: str
    kwargs: dict
    wall_s: float
    cached: bool


def register_run_hook(hook) -> None:
    """Register ``hook(record: RunRecord)``; called after every run this
    module executes or serves from cache. Hooks must not raise."""
    if hook not in _RUN_HOOKS:
        _RUN_HOOKS.append(hook)


def unregister_run_hook(hook) -> None:
    try:
        _RUN_HOOKS.remove(hook)
    except ValueError:
        pass


def _notify_run_hooks(exp_id: str, kwargs: dict, wall_s: float, cached: bool):
    if not _RUN_HOOKS:
        return
    record = RunRecord(exp_id, dict(kwargs), wall_s, cached)
    for hook in list(_RUN_HOOKS):
        hook(record)


class ExperimentInterrupted(RuntimeError):
    """The run was interrupted (Ctrl-C / SIGTERM); ``completed`` holds
    every result finished before the interrupt."""

    def __init__(self, completed: dict[str, ExperimentResult]):
        super().__init__(
            f"interrupted after {len(completed)} completed experiment(s)"
        )
        self.completed = completed


class ExperimentFailure(RuntimeError):
    """One or more experiments timed out / crashed past their retry
    budget; the rest of the run is preserved in ``completed``."""

    def __init__(
        self,
        failures: dict[str, str],
        completed: dict[str, ExperimentResult],
    ):
        detail = "; ".join(f"{e}: {r}" for e, r in failures.items())
        super().__init__(f"{len(failures)} experiment(s) failed — {detail}")
        self.failures = failures
        self.completed = completed


def _default_cache_root() -> Path:
    env = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path("~/.cache").expanduser()
    return base / "repro-bench"


def config_fingerprint(config: SystemConfig | None = None) -> str:
    """Stable digest of every model constant the experiments consume.

    Folds in the declarative topology description (nodes, links,
    bandwidths) so cache entries produced under different fabric shapes
    can never collide, even if a future topology knob were derived
    outside ``SystemConfig`` itself."""
    from ..topology.model import Topology

    config = config or SystemConfig.paper_gh200()
    payload = json.dumps(
        {
            "config": dataclasses.asdict(config),
            "topology": Topology.from_config(config).describe(),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cache_key(exp_id: str, kwargs: dict) -> str:
    """Content-addressed key for one ``(experiment, kwargs)`` invocation."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "exp_id": exp_id,
            "kwargs": {k: kwargs[k] for k in sorted(kwargs)},
            "config": config_fingerprint(),
            "version": __version__,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _serialize(result: ExperimentResult) -> dict:
    return {
        "schema": CACHE_SCHEMA,
        "exp_id": result.exp_id,
        "title": result.title,
        "rows": result.rows,
        "notes": list(result.notes),
        "columns": result.columns,
    }


def _deserialize(payload: dict) -> ExperimentResult:
    return ExperimentResult(
        payload["exp_id"],
        payload["title"],
        rows=payload["rows"],
        notes=payload["notes"],
        columns=payload["columns"],
    )


class ResultCache:
    """On-disk experiment result cache (one JSON file per key)."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else _default_cache_root()
        self.hits = 0
        self.misses = 0

    def path_for(self, exp_id: str, kwargs: dict) -> Path:
        return self.root / f"{exp_id}-{cache_key(exp_id, kwargs)}.json"

    def get(self, exp_id: str, **kwargs) -> ExperimentResult | None:
        path = self.path_for(exp_id, kwargs)
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError("stale cache schema")
            result = _deserialize(payload)
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, result: ExperimentResult, **kwargs) -> Path:
        path = self.path_for(result.exp_id, kwargs)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(_serialize(result)))
        tmp.replace(path)
        return path

    def invalidate(self, exp_id: str | None = None) -> int:
        """Drop cached entries (all of them, or one experiment's).

        Returns the number of files removed.
        """
        pattern = f"{exp_id}-*.json" if exp_id else "*.json"
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob(pattern):
                if path.name.startswith(("_", ".")):
                    continue  # sidecars (stats file) are not entries
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def _entry_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.glob("*.json")
            if not p.name.startswith(("_", "."))
        )

    def _read_persisted_stats(self) -> dict:
        """Best-effort read of the lifetime hit/miss sidecar. Strictly
        read-only: a missing or corrupt sidecar yields zeros, and is
        *not* recreated — only :meth:`save_session_stats` ever writes,
        so read paths (``repro-bench cache stats``) never touch disk."""
        totals = {"hits": 0, "misses": 0}
        try:
            totals.update(json.loads((self.root / STATS_FILE).read_text()))
        except (OSError, ValueError):
            pass
        return totals

    def stats(self) -> dict:
        """Entry count/bytes (per experiment), plus this process's
        hit/miss counters and the persisted lifetime totals.

        Non-mutating by contract: inspecting the cache must never
        create directories, rewrite the sidecar, or perturb mtimes
        (guarded by a regression test)."""
        by_exp: dict[str, int] = {}
        total_bytes = 0
        entries = self._entry_paths()
        for path in entries:
            exp = path.name.rsplit("-", 1)[0]
            by_exp[exp] = by_exp.get(exp, 0) + 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        lifetime = self._read_persisted_stats()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total_bytes,
            "by_experiment": dict(sorted(by_exp.items())),
            "session_hits": self.hits,
            "session_misses": self.misses,
            "lifetime_hits": lifetime["hits"] + self.hits,
            "lifetime_misses": lifetime["misses"] + self.misses,
        }

    def save_session_stats(self) -> None:
        """Fold this process's hit/miss counters into the on-disk
        lifetime totals (and zero them, so saving twice is safe)."""
        if not (self.hits or self.misses):
            return
        path = self.root / STATS_FILE
        totals = self._read_persisted_stats()
        totals["hits"] += self.hits
        totals["misses"] += self.misses
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(totals))
        tmp.replace(path)
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"<ResultCache {self.root} hits={self.hits} misses={self.misses}>"
        )


def run_experiment_cached(
    exp_id: str,
    *,
    cache: ResultCache | None = None,
    force: bool = False,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment through the cache (or directly, if ``cache`` is
    None). ``force=True`` re-runs and overwrites the cached entry."""
    import time

    if cache is not None and not force:
        hit = cache.get(exp_id, **kwargs)
        if hit is not None:
            _notify_run_hooks(exp_id, kwargs, 0.0, cached=True)
            return hit
    t0 = time.perf_counter()
    result = run_experiment(exp_id, **kwargs)
    wall = time.perf_counter() - t0
    if cache is not None:
        cache.put(result, **kwargs)
    _notify_run_hooks(exp_id, kwargs, wall, cached=False)
    return result


def run_payload_cached(
    exp_id: str,
    producer,
    *,
    cache: ResultCache | None = None,
    force: bool = False,
    title: str = "",
    **kwargs,
) -> dict:
    """Cache an arbitrary JSON payload under the experiment-cache keying.

    The capacity planner's calibration vectors want exactly the result
    cache's invalidation semantics — keyed on kwargs + SystemConfig
    fingerprint + package version, dropped automatically on any model
    recalibration — without being registry experiments themselves.
    ``producer()`` returns a JSON-serialisable dict; it is invoked only
    on a miss (or ``force=True``), and the payload rides in ``rows[0]``
    of a regular cache entry. ``exp_id`` must not collide with a
    registry experiment id.
    """
    import time

    from .experiments import experiment_ids

    if exp_id in experiment_ids():
        raise ValueError(
            f"payload id {exp_id!r} collides with a registry experiment"
        )
    if cache is not None and not force:
        hit = cache.get(exp_id, **kwargs)
        if hit is not None and hit.rows:
            _notify_run_hooks(exp_id, kwargs, 0.0, cached=True)
            return hit.rows[0]
    t0 = time.perf_counter()
    payload = producer()
    wall = time.perf_counter() - t0
    if not isinstance(payload, dict):
        raise TypeError("producer must return a dict payload")
    if cache is not None:
        cache.put(
            ExperimentResult(exp_id, title or exp_id, rows=[payload]),
            **kwargs,
        )
    _notify_run_hooks(exp_id, kwargs, wall, cached=False)
    return payload


def _run_supervised(
    pending: list[str],
    kwargs_for,
    jobs: int,
    timeout: float | None,
    retries: int,
    cache: ResultCache | None,
    results: dict[str, ExperimentResult],
) -> None:
    """Drive the :mod:`repro.serve` supervised worker pool from a
    thread pool, so a hung or crashed experiment is killed and retried
    instead of stalling the whole run."""
    from ..serve.workers import JobFailed, SupervisedWorkerPool

    n_workers = min(jobs, len(pending)) or 1
    pool = SupervisedWorkerPool(n_workers)
    failures: dict[str, str] = {}
    try:
        with ThreadPoolExecutor(max_workers=n_workers) as threads:
            futures = {
                threads.submit(
                    pool.run_with_retry,
                    exp_id,
                    kwargs_for(exp_id),
                    timeout=timeout,
                    retries=retries,
                ): exp_id
                for exp_id in pending
            }
            try:
                for fut in as_completed(futures):
                    exp_id = futures[fut]
                    try:
                        results[exp_id] = _deserialize(fut.result())
                    except JobFailed as exc:
                        failures[exp_id] = exc.reason
                        continue
                    if cache is not None:
                        cache.put(results[exp_id], **kwargs_for(exp_id))
            except KeyboardInterrupt:
                pool.shutdown_now()  # unblocks the worker threads
                for fut in futures:
                    fut.cancel()
                raise ExperimentInterrupted(dict(results)) from None
    finally:
        pool.close()
    if failures:
        raise ExperimentFailure(failures, dict(results))


def run_experiments_parallel(
    exp_ids: Iterable[str] | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    force: bool = False,
    kwargs: dict | None = None,
    kwargs_per_exp: dict[str, dict] | None = None,
    timeout: float | None = None,
    retries: int = 0,
) -> dict[str, ExperimentResult]:
    """Run experiments across worker processes, serving cache hits first.

    ``kwargs`` applies to every experiment (e.g. ``{"scale": 0.01}``);
    ``kwargs_per_exp`` layers per-experiment overrides on top. Returns
    ``{exp_id: ExperimentResult}`` in the requested order. ``jobs=1``
    runs inline (no pool), which is also the fallback for a single
    pending experiment without a timeout or retry budget.

    ``timeout`` bounds each experiment's wall time and ``retries`` is
    the per-experiment retry budget for timeouts and worker crashes (a
    job past its budget raises :class:`ExperimentFailure` carrying
    everything that did finish).
    Ctrl-C / SIGTERM raises :class:`ExperimentInterrupted`, likewise
    carrying the completed prefix, after cancelling pending work and
    terminating the pool.
    """
    wanted = list(exp_ids) if exp_ids is not None else experiment_ids()
    unknown = [e for e in wanted if e not in experiment_ids()]
    if unknown:
        raise KeyError(f"unknown experiment(s): {unknown}")
    jobs = jobs or os.cpu_count() or 1

    def kwargs_for(exp_id: str) -> dict:
        merged = dict(kwargs or {})
        merged.update((kwargs_per_exp or {}).get(exp_id, {}))
        return merged

    results: dict[str, ExperimentResult] = {}
    pending: list[str] = []
    for exp_id in wanted:
        hit = None
        if cache is not None and not force:
            hit = cache.get(exp_id, **kwargs_for(exp_id))
        if hit is not None:
            results[exp_id] = hit
        else:
            pending.append(exp_id)

    if not pending:
        pass
    elif timeout is not None or retries > 0 or min(jobs, len(pending)) > 1:
        _run_supervised(
            pending, kwargs_for, jobs, timeout, retries, cache, results
        )
    else:
        try:
            for exp_id in pending:
                results[exp_id] = run_experiment(exp_id, **kwargs_for(exp_id))
                if cache is not None:
                    cache.put(results[exp_id], **kwargs_for(exp_id))
        except KeyboardInterrupt:
            raise ExperimentInterrupted(dict(results)) from None

    return {exp_id: results[exp_id] for exp_id in wanted if exp_id in results}


def _sigterm_as_interrupt():
    """Route SIGTERM through the KeyboardInterrupt path so a ``kill``
    gets the same cancel-pending/terminate-pool/report-completed
    treatment as Ctrl-C (main thread only; no-op elsewhere). Returns
    the previous handler for the caller to restore, or None."""
    if threading.current_thread() is not threading.main_thread():
        return None

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        return signal.signal(signal.SIGTERM, handler)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        return None


def main_run(argv: list[str] | None = None) -> int:
    """``repro-bench run`` / ``python -m repro.bench run`` entry point."""
    import argparse
    import time

    from .report import render_markdown, render_table
    from .trace_cmd import parse_scale

    parser = argparse.ArgumentParser(
        prog="repro-bench run",
        description="Run experiments in parallel with an on-disk result "
        "cache (second invocations are served from cache).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids ({', '.join(experiment_ids())})",
    )
    parser.add_argument(
        "--all", action="store_true", help="run the full registry"
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered experiment ids with descriptions and exit",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=os.cpu_count() or 1,
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--scale", type=parse_scale, default=1.0,
        help="problem/machine scale factor (accepts 1/64; 1.0 = the "
        "paper's testbed)",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-experiment wall-time bound (hung/crashed experiments "
        "are killed instead of stalling the pool)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry budget per experiment for timeouts/crashes",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache location (default: $REPRO_BENCH_CACHE_DIR or "
        "~/.cache/repro-bench)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the cache entirely"
    )
    parser.add_argument(
        "--force", action="store_true",
        help="re-run even on a cache hit and overwrite the entry",
    )
    parser.add_argument(
        "--invalidate", action="store_true",
        help="drop the cached entries for the selected experiments "
        "(all entries with --all) and exit",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown tables"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write all results to a JSON file"
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run with the memory-model invariant sanitizer enabled "
        "(REPRO_SANITIZE=1) in every worker; implies --force so cached "
        "results don't skip the checks",
    )
    from ..mem.arch import architecture_descriptions, architecture_names

    parser.add_argument(
        "--mem-arch",
        default="gh200",
        choices=architecture_names(),
        help="memory-architecture backend every experiment runs against "
        "(default: gh200; see --list for the registered backends)",
    )
    args = parser.parse_args(argv)

    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
        args.force = True

    if args.list:
        descriptions = experiment_descriptions()
        width = max(len(e) for e in descriptions)
        for exp_id, desc in descriptions.items():
            print(f"{exp_id:<{width}}  {desc}")
        print()
        print("memory-architecture backends (--mem-arch):")
        backends = architecture_descriptions()
        bwidth = max(len(b) for b in backends)
        for name, desc in backends.items():
            print(f"  {name:<{bwidth}}  {desc}")
        return 0

    wanted = list(args.experiments)
    if args.all or not wanted:
        wanted = experiment_ids()
    unknown = [e for e in wanted if e not in experiment_ids()]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}")

    cache = None if args.no_cache else ResultCache(args.cache_dir)

    if args.invalidate:
        if cache is None:
            parser.error("--invalidate conflicts with --no-cache")
        if args.all:
            removed = cache.invalidate()
        else:
            removed = sum(cache.invalidate(e) for e in wanted)
        print(f"invalidated {removed} cached result(s) under {cache.root}")
        return 0

    t0 = time.perf_counter()
    exit_code = 0
    failures: dict[str, str] = {}
    # The default backend is left out of the kwargs so cache entries
    # recorded before backends existed keep their keys.
    run_kwargs = {"scale": args.scale}
    if args.mem_arch != "gh200":
        run_kwargs["mem_arch"] = args.mem_arch
    previous_sigterm = _sigterm_as_interrupt()
    try:
        results = run_experiments_parallel(
            wanted,
            jobs=args.jobs,
            cache=cache,
            force=args.force,
            kwargs=run_kwargs,
            timeout=args.timeout,
            retries=args.retries,
        )
    except ExperimentInterrupted as exc:
        done = ", ".join(exc.completed) or "none"
        todo = ", ".join(e for e in wanted if e not in exc.completed)
        print(f"\ninterrupted — completed: {done}; not finished: {todo}")
        if cache is not None:
            cache.save_session_stats()
        return 130
    except ExperimentFailure as exc:
        results = exc.completed
        failures = exc.failures
        exit_code = 1
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    dt = time.perf_counter() - t0

    render = render_markdown if args.markdown else render_table
    for result in results.values():
        print(render(result))
        print()
    for exp_id, reason in failures.items():
        print(f"FAILED {exp_id}: {reason}")
    if cache is not None:
        print(
            f"[{len(results)} experiment(s) in {dt:.1f}s wall time; "
            f"{cache.hits} from cache, {cache.misses} regenerated "
            f"({cache.root})]"
        )
        cache.save_session_stats()
    else:
        print(f"[{len(results)} experiment(s) in {dt:.1f}s wall time]")

    if args.json:
        from .export import write_json

        print(f"wrote {write_json(list(results.values()), args.json)}")
    return exit_code


def main_cache(argv: list[str] | None = None) -> int:
    """``repro-bench cache`` entry point: stats + invalidation."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bench cache",
        description="Inspect or invalidate the on-disk experiment result "
        "cache shared by 'repro-bench run' and 'repro-bench serve'.",
    )
    parser.add_argument(
        "action", nargs="?", default="stats",
        choices=["stats", "invalidate"],
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="restrict 'invalidate' to these experiment ids "
        "(default: drop everything)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache location (default: $REPRO_BENCH_CACHE_DIR or "
        "~/.cache/repro-bench)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit stats as JSON"
    )
    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir)
    from ..sim.checkpoint import CheckpointStore

    ckpt_root = Path(args.cache_dir) / "checkpoints" if args.cache_dir else None
    ckpts = CheckpointStore(ckpt_root)

    if args.action == "invalidate":
        if args.experiments:
            removed = sum(cache.invalidate(e) for e in args.experiments)
            print(f"invalidated {removed} cached result(s) under {cache.root}")
        else:
            removed = cache.invalidate()
            dropped = ckpts.invalidate()
            print(
                f"invalidated {removed} cached result(s) and {dropped} "
                f"epoch checkpoint(s) under {cache.root}"
            )
        return 0

    if args.experiments:
        parser.error("experiment ids only apply to 'invalidate'")
    stats = cache.stats()
    ckpt_stats = ckpts.stats()
    if args.json:
        stats["checkpoints"] = ckpt_stats
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache root:  {stats['root']}")
    print(f"entries:     {stats['entries']} ({stats['bytes']} bytes)")
    print(
        f"lifetime:    {stats['lifetime_hits']} hits / "
        f"{stats['lifetime_misses']} misses"
    )
    print(
        f"checkpoints: {ckpt_stats['entries']} "
        f"({ckpt_stats['bytes']} bytes), "
        f"{ckpt_stats['lifetime_hits']} hits / "
        f"{ckpt_stats['lifetime_misses']} misses, "
        f"{ckpt_stats['lifetime_restored_bytes']} bytes restored"
    )
    if stats["by_experiment"]:
        width = max(len(e) for e in stats["by_experiment"])
        for exp_id, count in stats["by_experiment"].items():
            print(f"  {exp_id:<{width}}  {count} entr{'y' if count == 1 else 'ies'}")
    return 0
