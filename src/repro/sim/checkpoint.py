"""Epoch state checkpoints for incremental what-if re-simulation.

A :class:`SystemCheckpoint` is a deep snapshot of everything a
:class:`~repro.core.runtime.GraceHopperSystem` mutates while replaying an
access trace: the simulated clock, hardware counters (the only record
of NVLink-C2C traffic), physical pool occupancy, and every allocation's
page-state arrays. Restoring one onto a *fresh* system (with the same
allocations recreated) puts it into a byte-identical state, so a what-if
configuration that diverges from an already-simulated run only at epoch
``k`` can restore the epoch-``k`` checkpoint and replay just the suffix
instead of the whole trace (see :mod:`repro.sim.whatif`).

Checkpoints are content-addressed by :meth:`CheckpointStore.key` — a
SHA-256 over the model configuration, the epoch cadence, the digest of
the trace prefix, and every intervention applied *before* the epoch —
so two sweeps sharing a prefix share its checkpoints, exactly like
:class:`~repro.bench.runner.ResultCache` entries. The store keeps
checkpoints in memory for the current process and spills them to
pickles under the bench cache root for cross-process reuse, with a
``_ckpt_stats.json`` sidecar accumulating lifetime hit/miss totals.

Fidelity rules (enforced by :meth:`SystemCheckpoint.capture`):

* no tick listeners may be registered (the memory profiler samples
  relative wall-in-sim offsets a rewind would corrupt);
* no kernel may be in flight on the counter capture facility.

Callers treat a :class:`CheckpointUnavailable` as "skip this epoch", not
as an error: exactness is preserved because restoring is optional.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path

import numpy as np

from ..mem.pagetable import TAG_PREFIX

#: Bump to invalidate persisted checkpoints after any change to the
#: captured state set or its serialisation.
CKPT_SCHEMA = 6

STATS_FILE = "_ckpt_stats.json"

#: Pool tags carrying an allocation id suffix (``sys:<aid>`` etc.).
#: Allocation ids come from a process-global counter, so they differ
#: between the capturing and the restoring process; restore remaps them
#: through the allocation *name*.
_AID_TAG_PREFIXES = frozenset(TAG_PREFIX.values())


class CheckpointUnavailable(RuntimeError):
    """The system is in a state that cannot be checkpointed exactly."""


@dataclasses.dataclass
class _AllocState:
    """Snapshot of one :class:`~repro.mem.pagetable.Allocation`."""

    name: str
    aid: int
    kind: str
    nbytes: int
    state: np.ndarray
    loc_counts: np.ndarray
    gpu_block_counts: np.ndarray
    block_last_touch: np.ndarray
    counters_base: int
    counters_extra: np.ndarray | None
    counters_peak: int
    freed: bool
    oversubscription_pinned: bool


@dataclasses.dataclass
class _PoolState:
    used: int
    peak: int
    by_tag: dict


class SystemCheckpoint:
    """A restorable snapshot of one simulated system's mutable state."""

    def __init__(self):
        self.schema = CKPT_SCHEMA
        self.clock_now: float = 0.0
        self.counters_total = None
        self.kernel_records: list = []
        self.pools: dict[str, _PoolState] = {}
        self.allocs: dict[str, _AllocState] = {}

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(cls, gh) -> "SystemCheckpoint":
        """Snapshot ``gh``; raises :class:`CheckpointUnavailable` when the
        system holds state a restore could not reproduce exactly."""
        clock = gh.clock
        if clock._listeners:
            raise CheckpointUnavailable("tick listeners registered")
        counters = gh.counters
        if counters._kernel_start_snapshot is not None:
            raise CheckpointUnavailable("kernel capture in flight")

        ck = cls()
        ck.clock_now = clock.now
        ck.counters_total = counters.total.snapshot()
        ck.kernel_records = list(counters.kernel_records)

        mem = gh.mem
        for side, pool in (("cpu", mem.physical.cpu), ("gpu", mem.physical.gpu)):
            ck.pools[side] = _PoolState(pool.used, pool.peak, dict(pool.by_tag))

        for alloc in mem.allocations.values():
            if alloc.name in ck.allocs:
                raise CheckpointUnavailable(
                    f"duplicate allocation name {alloc.name!r}; restore is "
                    "name-keyed"
                )
            c = alloc.counters
            ck.allocs[alloc.name] = _AllocState(
                name=alloc.name,
                aid=alloc.aid,
                kind=alloc.kind.value,
                nbytes=alloc.nbytes,
                state=alloc.state.copy(),
                loc_counts=alloc._loc_counts.copy(),
                gpu_block_counts=alloc._gpu_block_counts.copy(),
                block_last_touch=alloc.block_last_touch.copy(),
                counters_base=c.base,
                counters_extra=None if c.extra is None else c.extra.copy(),
                counters_peak=c.peak,
                freed=alloc.freed,
                oversubscription_pinned=alloc.oversubscription_pinned,
            )
        return ck

    # -- restore -----------------------------------------------------------

    def restore(self, gh) -> None:
        """Overwrite ``gh``'s mutable state with this snapshot, in place.

        ``gh`` must hold the same set of live allocations by name, kind
        and size (typically recreated by replaying the trace's allocation
        prefix); allocation *ids* may differ — pool tags are remapped.
        """
        mem = gh.mem
        live = {alloc.name: alloc for alloc in mem.allocations.values()}
        missing = sorted(set(self.allocs) - set(live))
        if missing:
            raise CheckpointUnavailable(
                f"allocations absent from the target system: {missing}"
            )
        aid_map: dict[int, int] = {}
        for name, st in self.allocs.items():
            alloc = live[name]
            if alloc.kind.value != st.kind or alloc.nbytes != st.nbytes:
                raise CheckpointUnavailable(
                    f"allocation {name!r} differs from the captured one "
                    f"({alloc.kind.value}/{alloc.nbytes} vs "
                    f"{st.kind}/{st.nbytes})"
                )
            aid_map[st.aid] = alloc.aid
            alloc.state[:] = st.state
            alloc._runs = None  # not captured; relearned from state
            alloc._loc_counts[:] = st.loc_counts
            alloc._gpu_block_counts[:] = st.gpu_block_counts
            alloc.block_last_touch[:] = st.block_last_touch
            alloc._touch = None  # not captured; relearned from the array
            alloc.counters.base = st.counters_base
            alloc.counters.extra = (
                None if st.counters_extra is None else st.counters_extra.copy()
            )
            alloc.counters.peak = st.counters_peak
            alloc.freed = st.freed
            alloc.oversubscription_pinned = st.oversubscription_pinned

        for side, pool in (("cpu", mem.physical.cpu), ("gpu", mem.physical.gpu)):
            st = self.pools[side]
            pool.used = st.used
            pool.peak = st.peak
            pool.by_tag = {
                _remap_tag(tag, aid_map): v for tag, v in st.by_tag.items()
            }

        counters = gh.counters
        counters.total = self.counters_total.snapshot()
        counters.kernel_records = list(self.kernel_records)
        counters._kernel_start_snapshot = None

        gh.clock._now = self.clock_now

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 over the captured state, array bytes included.

        Two checkpoints fingerprint identically iff a restore from either
        produces the same simulation from there on — the hook the
        incremental-vs-full exactness tests compare.
        """
        h = hashlib.sha256()
        # Allocation ids come from a process-global counter, so pool tags
        # like ``sys:<aid>`` differ between runs that are otherwise
        # byte-identical; fingerprint them by allocation *name* instead.
        aid_names = {st.aid: name for name, st in self.allocs.items()}

        def _named_pool(st: _PoolState) -> dict:
            by_tag = {}
            for tag, v in st.by_tag.items():
                prefix, sep, suffix = tag.partition(":")
                if (sep and prefix in _AID_TAG_PREFIXES and suffix.isdigit()
                        and int(suffix) in aid_names):
                    tag = f"{prefix}:{aid_names[int(suffix)]}"
                by_tag[tag] = v
            return {"used": st.used, "peak": st.peak,
                    "by_tag": _as_jsonable(by_tag)}

        scalars = {
            "schema": self.schema,
            "now": repr(self.clock_now),
            "counters": _as_jsonable(self.counters_total),
            "kernel_records": len(self.kernel_records),
            "pools": {
                side: _named_pool(st) for side, st in sorted(self.pools.items())
            },
        }
        h.update(json.dumps(scalars, sort_keys=True, default=repr).encode())
        for name in sorted(self.allocs):
            st = self.allocs[name]
            h.update(
                json.dumps(
                    {
                        "name": st.name,
                        "kind": st.kind,
                        "nbytes": st.nbytes,
                        "base": st.counters_base,
                        "freed": st.freed,
                        "pinned": st.oversubscription_pinned,
                    },
                    sort_keys=True,
                    default=repr,
                ).encode()
            )
            for arr in (
                st.state,
                st.loc_counts,
                st.gpu_block_counts,
                st.block_last_touch,
            ):
                h.update(arr.tobytes())
            if st.counters_extra is not None:
                h.update(st.counters_extra.tobytes())
        return h.hexdigest()

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint (array payloads)."""
        total = 0
        for st in self.allocs.values():
            total += (
                st.state.nbytes
                + st.loc_counts.nbytes
                + st.gpu_block_counts.nbytes
                + st.block_last_touch.nbytes
            )
            if st.counters_extra is not None:
                total += st.counters_extra.nbytes
        return total


def _remap_tag(tag: str, aid_map: dict[int, int]) -> str:
    prefix, sep, suffix = tag.partition(":")
    if sep and prefix in _AID_TAG_PREFIXES and suffix.isdigit():
        new = aid_map.get(int(suffix))
        if new is not None:
            return f"{prefix}:{new}"
    return tag


def _as_jsonable(obj) -> dict:
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _as_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _as_jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, float):
        return repr(obj)
    return obj


# -- the store ---------------------------------------------------------------


def _default_checkpoint_root() -> Path:
    from ..bench.runner import _default_cache_root

    return _default_cache_root() / "checkpoints"


class CheckpointStore:
    """Content-addressed checkpoint cache: in-memory plus pickle spill."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else _default_checkpoint_root()
        self._memory: dict[str, SystemCheckpoint] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.skipped = 0
        self.restored_bytes = 0

    # -- keys --------------------------------------------------------------

    @staticmethod
    def key(
        config_fp: str,
        epoch_every: int,
        prefix_digest: str,
        interventions: list,
    ) -> str:
        """Key for the checkpoint taken before epoch ``e``.

        ``prefix_digest`` covers every trace record processed before the
        epoch boundary; ``interventions`` lists only those applied at
        earlier epochs — later divergence leaves the key (and therefore
        the reusable prefix) unchanged.
        """
        payload = json.dumps(
            {
                "schema": CKPT_SCHEMA,
                "config": config_fp,
                "epoch_every": epoch_every,
                "prefix": prefix_digest,
                "interventions": interventions,
            },
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.ckpt"

    # -- access ------------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Presence probe that does not touch the hit/miss counters."""
        return key in self._memory or self.path_for(key).is_file()

    def get(self, key: str) -> SystemCheckpoint | None:
        ck = self._memory.get(key)
        if ck is None:
            try:
                with self.path_for(key).open("rb") as fh:
                    ck = pickle.load(fh)
                if getattr(ck, "schema", None) != CKPT_SCHEMA:
                    ck = None
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError):
                ck = None
            if ck is not None:
                self._memory[key] = ck
        if ck is None:
            self.misses += 1
            return None
        self.hits += 1
        self.restored_bytes += ck.nbytes
        return ck

    def put(self, key: str, ckpt: SystemCheckpoint) -> None:
        self._memory[key] = ckpt
        self.stores += 1
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(ckpt, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)

    def invalidate(self) -> int:
        """Drop every stored checkpoint; returns files removed."""
        self._memory.clear()
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.ckpt"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        entries = (
            sorted(self.root.glob("*.ckpt")) if self.root.is_dir() else []
        )
        total_bytes = 0
        for path in entries:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        lifetime = {"hits": 0, "misses": 0, "stores": 0, "restored_bytes": 0}
        try:
            lifetime.update(json.loads((self.root / STATS_FILE).read_text()))
        except (OSError, ValueError):
            pass
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total_bytes,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_stores": self.stores,
            "session_skipped": self.skipped,
            "session_restored_bytes": self.restored_bytes,
            "lifetime_hits": lifetime["hits"] + self.hits,
            "lifetime_misses": lifetime["misses"] + self.misses,
            "lifetime_stores": lifetime["stores"] + self.stores,
            "lifetime_restored_bytes": (
                lifetime["restored_bytes"] + self.restored_bytes
            ),
        }

    def save_session_stats(self) -> None:
        """Fold session counters into the on-disk lifetime totals (and
        zero them, so saving twice is safe)."""
        if not (self.hits or self.misses or self.stores or self.restored_bytes):
            return
        path = self.root / STATS_FILE
        totals = {"hits": 0, "misses": 0, "stores": 0, "restored_bytes": 0}
        try:
            totals.update(json.loads(path.read_text()))
        except (OSError, ValueError):
            pass
        totals["hits"] += self.hits
        totals["misses"] += self.misses
        totals["stores"] += self.stores
        totals["restored_bytes"] += self.restored_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(totals))
        tmp.replace(path)
        self.hits = self.misses = self.stores = self.restored_bytes = 0
