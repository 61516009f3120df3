"""Gateway-resident shared cache tier.

One cache for the whole fleet, layered over the PR-1 on-disk
:class:`~repro.bench.runner.ResultCache`:

* **read-through** — a lookup tries the in-memory LRU first, then the
  disk cache (promoting a disk hit into memory), and only a full miss
  reaches a replica;
* **write-back** — replica results land in memory immediately (the next
  identical request is a hit before any I/O happens) and are flushed to
  the disk cache by a background thread, so a gateway restart warm-starts
  from disk.

Every access is attributed to the replica that *owns* the key on the
hash ring at that moment, giving per-replica hit/byte accounting: which
slice of the keyspace is hot, and how many bytes the cache served on a
replica's behalf.
"""

from __future__ import annotations

import contextlib
import json
import queue
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..bench.runner import ResultCache, _deserialize, _serialize

#: Default bounds of the in-memory LRU.
MAX_ENTRIES = 65536
MAX_BYTES = 256 << 20


@dataclass
class ReplicaCacheAccount:
    """Cache traffic attributed to one replica's keyspace slice."""

    hits: int = 0  # memory + promoted disk hits
    disk_hits: int = 0  # subset of hits served read-through
    misses: int = 0  # went to the replica
    bytes_served: int = 0  # payload bytes answered from cache
    stores: int = 0  # write-backs of this replica's results
    bytes_stored: int = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "bytes_served": self.bytes_served,
            "stores": self.stores,
            "bytes_stored": self.bytes_stored,
        }


@dataclass
class _Entry:
    payload: dict
    nbytes: int
    exp_id: str
    kwargs: dict = field(default_factory=dict)


class SharedCacheTier:
    """In-memory LRU over an optional on-disk :class:`ResultCache`."""

    def __init__(
        self,
        disk: ResultCache | None = None,
        *,
        max_entries: int = MAX_ENTRIES,
        max_bytes: int = MAX_BYTES,
    ):
        self.disk = disk
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._mem: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        self.evictions = 0
        self.accounts: dict[str, ReplicaCacheAccount] = {}
        self._dirty: queue.Queue = queue.Queue()
        self._flusher: threading.Thread | None = None
        if disk is not None:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="cluster-cache-flush",
                daemon=True,
            )
            self._flusher.start()

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def _account(self, replica_id: str) -> ReplicaCacheAccount:
        account = self.accounts.get(replica_id)
        if account is None:
            account = self.accounts[replica_id] = ReplicaCacheAccount()
        return account

    def get_memory(self, key: str, replica_id: str) -> dict | None:
        """Memory-tier lookup (safe on the event loop). A miss here is
        *not* yet accounted — :meth:`get_disk` or :meth:`miss` settles
        it, so one request never counts twice."""
        entry = self._mem.get(key)
        if entry is None:
            return None
        self._mem.move_to_end(key)
        account = self._account(replica_id)
        account.hits += 1
        account.bytes_served += entry.nbytes
        return entry.payload

    def get_disk(
        self, key: str, exp_id: str, kwargs: dict, replica_id: str
    ) -> dict | None:
        """Read-through: disk lookup + promotion into memory. Blocking
        (call via ``asyncio.to_thread``); accounts the hit, but leaves
        the miss to :meth:`miss`."""
        if self.disk is None:
            return None
        result = self.disk.get(exp_id, **kwargs)
        if result is None:
            return None
        payload = _serialize(result)
        nbytes = self._insert(key, payload, exp_id, kwargs)
        account = self._account(replica_id)
        account.hits += 1
        account.disk_hits += 1
        account.bytes_served += nbytes
        return payload

    def miss(self, replica_id: str) -> None:
        """Record one full miss (the request is being forwarded)."""
        self._account(replica_id).misses += 1

    def put(
        self, key: str, payload: dict, exp_id: str, kwargs: dict,
        replica_id: str,
    ) -> None:
        """Write-back: memory immediately, disk asynchronously."""
        nbytes = self._insert(key, payload, exp_id, kwargs)
        account = self._account(replica_id)
        account.stores += 1
        account.bytes_stored += nbytes
        if self.disk is not None:
            self._dirty.put((payload, kwargs))

    def _insert(
        self, key: str, payload: dict, exp_id: str, kwargs: dict
    ) -> int:
        old = self._mem.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        nbytes = len(json.dumps(payload, default=repr))
        self._mem[key] = _Entry(payload, nbytes, exp_id, dict(kwargs))
        self._bytes += nbytes
        while self._mem and (
            len(self._mem) > self.max_entries or self._bytes > self.max_bytes
        ):
            _, evicted = self._mem.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1
        return nbytes

    # ------------------------------------------------------------------
    # Write-back flusher
    # ------------------------------------------------------------------

    def _flush_loop(self) -> None:
        while True:
            item = self._dirty.get()
            if item is None:
                break
            payload, kwargs = item
            with contextlib.suppress(Exception):  # cache I/O is advisory
                self.disk.put(_deserialize(payload), **kwargs)
            self._dirty.task_done()

    def flush(self, timeout: float = 10.0) -> None:
        """Block until every queued write-back reached disk."""
        if self.disk is None:
            return
        waiter = threading.Thread(target=self._dirty.join, daemon=True)
        waiter.start()
        waiter.join(timeout)

    def close(self) -> None:
        self.flush()
        if self._flusher is not None:
            self._dirty.put(None)
            self._flusher.join(timeout=5)
            self._flusher = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def entries(self) -> int:
        return len(self._mem)

    @property
    def bytes(self) -> int:
        return self._bytes

    def snapshot(self) -> dict:
        return {
            "entries": len(self._mem),
            "bytes": self._bytes,
            "evictions": self.evictions,
            "dirty": self._dirty.qsize(),
            "disk": getattr(self.disk, "root", None) and str(self.disk.root),
            "per_replica": {
                rid: account.snapshot()
                for rid, account in sorted(self.accounts.items())
            },
        }
