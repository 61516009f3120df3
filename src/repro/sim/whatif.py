"""Incremental what-if re-simulation of recorded access traces.

:func:`repro.profiling.trace.replay` sweeps a configuration question —
"what if the migration threshold were 64?" — by re-running the whole
trace under each candidate. Most of that work is identical across
candidates: two runs diverging only at epoch ``k`` are byte-identical up
to the instant before epoch ``k``'s intervention is applied.

:func:`incremental_replay` exploits that. It checkpoints the full system
state (:class:`~repro.sim.checkpoint.SystemCheckpoint`) just before each
epoch boundary, content-addressed by the trace prefix and the
interventions applied so far. A later run with the same prefix restores
the deepest matching checkpoint and replays only the suffix — the
simulated result is *exactly* the one a full replay would produce (the
equivalence tests compare state fingerprints), only the wall-clock cost
shrinks to the divergent tail.

Interventions are ``(epoch, action, params)`` triples applied just
before the ``epoch``-th migration-servicing boundary (epoch numbers
start at 1; epoch 0 means "before the first record"):

* ``("set_migration_threshold", {"value": N})`` — Section 2.2.1 tuning;
* ``("set_migration_enable", {"value": bool})`` — counter migration off;
* ``("prefetch_to_gpu", {"alloc": name})`` — ``cudaMemPrefetchAsync``.

The serve tier exposes this as a job runner
(:func:`whatif_job_runner`, runner spec
``repro.sim.whatif:whatif_job_runner``) so a sweep of divergent configs
submitted to one service shares the checkpoint store across workers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Iterable, Sequence

from ..mem.pagetable import AllocKind
from ..sim.config import Processor, SystemConfig
from .checkpoint import CheckpointStore, CheckpointUnavailable, SystemCheckpoint


@dataclasses.dataclass(frozen=True)
class Intervention:
    """One configuration change applied at an epoch boundary."""

    epoch: int
    action: str
    params: tuple  # sorted (key, value) pairs — hashable and orderable

    _ACTIONS = (
        "set_migration_threshold",
        "set_migration_enable",
        "prefetch_to_gpu",
    )

    @staticmethod
    def coerce(spec) -> "Intervention":
        """Accept an :class:`Intervention`, a ``(epoch, action, params)``
        triple, or a ``{"epoch":, "action":, "params":}`` mapping (the
        JSON form serve jobs carry)."""
        if isinstance(spec, Intervention):
            return spec
        if isinstance(spec, dict):
            epoch, action = spec["epoch"], spec["action"]
            params = spec.get("params", {})
        else:
            epoch, action, params = spec
        if action not in Intervention._ACTIONS:
            raise ValueError(
                f"unknown intervention {action!r}; known: "
                f"{list(Intervention._ACTIONS)}"
            )
        if epoch < 0:
            raise ValueError("intervention epoch must be >= 0")
        return Intervention(
            int(epoch), action, tuple(sorted(dict(params).items()))
        )

    def as_key(self) -> list:
        return [self.epoch, self.action, [list(kv) for kv in self.params]]

    def apply(self, gh, allocs: dict) -> None:
        params = dict(self.params)
        if self.action == "set_migration_threshold":
            gh.set_migration_threshold(int(params["value"]))
        elif self.action == "set_migration_enable":
            gh.config.migration_enable = bool(params["value"])
        elif self.action == "prefetch_to_gpu":
            alloc = allocs[params["alloc"]]
            t = gh.mem.prefetch_async(alloc, now=gh.now)
            gh.clock.advance(t, activity=f"whatif:prefetch:{alloc.name}")


def _epoch_boundaries(records, epoch_every: int) -> dict[int, int]:
    """Map record index -> epoch ordinal (1-based) for every record whose
    processing fires ``begin_epoch`` under the replay loop's cadence."""
    boundaries: dict[int, int] = {}
    gpu = 0
    for i, rec in enumerate(records):
        if rec.processor == Processor.GPU.value:
            gpu += 1
            if gpu % max(epoch_every, 1) == 0:
                boundaries[i] = len(boundaries) + 1
    return boundaries


def _prefix_digests(records, boundaries: dict[int, int]) -> dict[int, str]:
    """Digest of the serialised record prefix before each epoch boundary."""
    h = hashlib.sha256()
    digests: dict[int, str] = {}
    for i, rec in enumerate(records):
        e = boundaries.get(i)
        if e is not None:
            digests[e] = h.hexdigest()
        h.update(rec.to_json().encode())
        h.update(b"\n")
    return digests


def checkpoint_keys(
    trace,
    config: SystemConfig,
    *,
    epoch_every: int = 1,
    interventions: Sequence = (),
) -> dict[int, str]:
    """The content-addressed key of every epoch checkpoint a replay of
    ``trace`` under ``config`` would produce (epoch ordinal -> key)."""
    from ..bench.runner import config_fingerprint

    records = list(trace)
    ivs = [Intervention.coerce(s) for s in interventions]
    boundaries = _epoch_boundaries(records, epoch_every)
    digests = _prefix_digests(records, boundaries)
    cfg_fp = config_fingerprint(config)
    keys: dict[int, str] = {}
    for e, digest in digests.items():
        earlier = [iv.as_key() for iv in ivs if iv.epoch < e]
        keys[e] = CheckpointStore.key(cfg_fp, epoch_every, digest, earlier)
    return keys


def incremental_replay(
    trace,
    config: SystemConfig | None = None,
    *,
    epoch_every: int = 1,
    interventions: Iterable = (),
    store: CheckpointStore | None = None,
    checkpoint_every: int = 1,
    timeline=None,
) -> dict:
    """Replay ``trace`` onto a fresh system, reusing epoch checkpoints.

    Result-identical to :func:`repro.profiling.trace.replay` plus the
    interventions; with a ``store``, the deepest checkpoint whose key
    matches is restored and only the suffix is simulated. Returns the
    replay summary extended with checkpoint telemetry and the final
    state fingerprint (``None`` when the end state is not capturable).

    ``checkpoint_every`` thins the capture cadence: only epochs whose
    ordinal is a multiple are checkpointed (restores still match any
    stored epoch).
    """
    from ..core.runtime import GraceHopperSystem
    from ..profiling.timeline import maybe_timeline

    config = config or SystemConfig.paper_gh200()
    records = list(trace)
    ivs = [Intervention.coerce(s) for s in interventions]
    by_epoch: dict[int, list[Intervention]] = {}
    for iv in ivs:
        by_epoch.setdefault(iv.epoch, []).append(iv)
    boundaries = _epoch_boundaries(records, epoch_every)
    keys = (
        checkpoint_keys(
            trace, config, epoch_every=epoch_every, interventions=ivs
        )
        if store is not None
        else {}
    )
    tl = timeline if timeline is not None else maybe_timeline(
        config, time.perf_counter, name="whatif"
    )

    gh = GraceHopperSystem(config)
    allocs: dict[str, object] = {}

    def _ensure_alloc(rec):
        alloc = allocs.get(rec.alloc_name)
        if alloc is None:
            alloc = gh.mem.allocate(
                AllocKind(rec.alloc_kind), rec.alloc_bytes, name=rec.alloc_name
            )
            allocs[rec.alloc_name] = alloc
        return alloc

    # -- fast-forward: restore the deepest matching checkpoint -------------
    start_index = 0
    gpu_batches = 0
    restored_epoch = 0
    if store is not None:
        by_ordinal = sorted(boundaries.items())  # (index, epoch), ascending
        for i_e, e in reversed(by_ordinal):
            if not store.contains(keys[e]):
                continue
            ckpt = store.get(keys[e])
            if ckpt is None:  # stale spill raced away
                continue
            t0 = time.perf_counter()
            for rec in records[:i_e]:
                _ensure_alloc(rec)
            try:
                ckpt.restore(gh)
            except CheckpointUnavailable:
                break  # incompatible snapshot: fall back to a full replay
            if tl is not None:
                tl.complete(
                    f"checkpoint-restore:epoch{e}",
                    t0,
                    time.perf_counter() - t0,
                    cat="whatif",
                    track="whatif/checkpoint",
                    restored_bytes=ckpt.nbytes,
                )
            start_index = i_e
            gpu_batches = e * max(epoch_every, 1) - 1
            restored_epoch = e
            break
        if restored_epoch == 0 and boundaries:
            # No reusable prefix: a full replay. Count it as one store
            # miss so sweep telemetry shows cold runs next to warm ones.
            store.misses += 1

    # -- replay (the suffix, or everything) --------------------------------
    stored = 0
    t_replay = time.perf_counter()
    if start_index == 0:
        for iv in by_epoch.get(0, ()):
            iv.apply(gh, allocs)
    for i in range(start_index, len(records)):
        rec = records[i]
        e = boundaries.get(i)
        if e is not None:
            if (
                store is not None
                and e > restored_epoch
                and e % max(checkpoint_every, 1) == 0
                and not store.contains(keys[e])
            ):
                try:
                    store.put(keys[e], SystemCheckpoint.capture(gh))
                    stored += 1
                except CheckpointUnavailable:
                    store.skipped += 1
            for iv in by_epoch.get(e, ()):
                iv.apply(gh, allocs)
        alloc = _ensure_alloc(rec)
        proc = Processor(rec.processor)
        if proc is Processor.GPU:
            gpu_batches += 1
            if gpu_batches % max(epoch_every, 1) == 0:
                gh.mem.begin_epoch()
        result = gh.mem.access(
            proc, alloc, rec.pageset(), rec.shape(),
            write=rec.write, now=gh.now,
        )
        cost = (
            result.fault_seconds
            + result.remote_seconds
            + result.transfer_seconds
            + result.hbm_bytes / gh.config.hbm_bandwidth
            + result.lpddr_bytes / gh.config.cpu_memory_bandwidth
        )
        gh.clock.advance(cost, activity=f"replay:{rec.alloc_name}")
    if tl is not None:
        tl.complete(
            "checkpoint-replay",
            t_replay,
            time.perf_counter() - t_replay,
            cat="whatif",
            track="whatif/checkpoint",
            batches=len(records) - start_index,
            resumed_epoch=restored_epoch,
        )

    try:
        fingerprint = SystemCheckpoint.capture(gh).fingerprint()
    except CheckpointUnavailable:
        fingerprint = None
    summary = {
        "replay_seconds": gh.now,
        "allocations": len(allocs),
        "batches": len(records),
        "batches_replayed": len(records) - start_index,
        "epochs": len(boundaries),
        "resumed_epoch": restored_epoch,
        "c2c_read_bytes": gh.counters.total.c2c_read_bytes,
        "pages_migrated_h2d": gh.counters.total.pages_migrated_h2d,
        "eviction_bytes": gh.counters.total.eviction_bytes,
        "state_fingerprint": fingerprint,
        "checkpoints": {
            "stored": stored,
            "hits": store.hits if store is not None else 0,
            "misses": store.misses if store is not None else 0,
            "restored_bytes": store.restored_bytes if store is not None else 0,
        },
    }
    return summary


# -- serve-tier job runner ---------------------------------------------------

#: Runner spec for :class:`repro.serve.service.ServiceConfig`.
WHATIF_RUNNER = "repro.sim.whatif:whatif_job_runner"


def whatif_job_runner(exp_id: str, kwargs: dict) -> dict:
    """Serve-tier job runner: one incremental what-if replay per job.

    ``kwargs`` (all JSON-able, so jobs coalesce and cache by content):

    * ``trace_path`` — JSONL access trace (required);
    * ``scale`` — capacity scale factor (default: the paper testbed);
    * ``page_size`` — system page size in bytes (default 4096);
    * ``epoch_every`` / ``checkpoint_every`` — cadences (default 1);
    * ``interventions`` — list of intervention mappings/triples;
    * ``checkpoint_root`` — shared checkpoint store directory
      (default: the bench cache root's ``checkpoints/``).

    Returns a serialised :class:`~repro.bench.harness.ExperimentResult`
    payload with a ``"_checkpoint"`` metadata side-channel the service
    strips into its metrics.
    """
    from ..bench.harness import ExperimentResult
    from ..bench.runner import _serialize
    from ..profiling.trace import AccessTrace

    trace_path = kwargs["trace_path"]
    trace = AccessTrace.load(trace_path)
    page_size = int(kwargs.get("page_size", 4096))
    scale = kwargs.get("scale")
    if scale is not None:
        config = SystemConfig.scaled(float(scale), page_size=page_size)
    else:
        config = SystemConfig.paper_gh200(page_size=page_size)
    store = CheckpointStore(kwargs.get("checkpoint_root"))
    summary = incremental_replay(
        trace,
        config,
        epoch_every=int(kwargs.get("epoch_every", 1)),
        interventions=kwargs.get("interventions", ()),
        store=store,
        checkpoint_every=int(kwargs.get("checkpoint_every", 1)),
    )
    ckpt_meta = {
        "hits": store.hits,
        "misses": store.misses,
        "stores": store.stores,
        "restored_bytes": store.restored_bytes,
        "resumed_epoch": summary["resumed_epoch"],
        "batches_replayed": summary["batches_replayed"],
    }
    store.save_session_stats()
    row = {k: v for k, v in summary.items() if k != "checkpoints"}
    result = ExperimentResult(
        exp_id,
        f"what-if replay of {trace_path}",
        rows=[row],
        notes=[
            f"resumed at epoch {summary['resumed_epoch']} of "
            f"{summary['epochs']}; replayed "
            f"{summary['batches_replayed']}/{summary['batches']} batches"
        ],
    )
    payload = _serialize(result)
    payload["_checkpoint"] = ckpt_meta
    return payload
