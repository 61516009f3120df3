"""The cluster gateway: one front door for a replica fleet.

The gateway is the same :class:`~repro.serve.frontend.Frontend` as a
single :class:`~repro.serve.service.SimulationService` — admission into
a :class:`~repro.serve.queue.BoundedPriorityQueue` with capacity and
per-class seat limits, coalescing, dispatch and settlement — with a
replica-forwarding ``_run``, the shared cache's memory tier as its
submit-time lookup, and two gateway-level shedding policies:

* **shed batch before interactive** — once queue depth crosses
  ``shed_batch_above × capacity``, batch submissions are rejected
  (``load shed``) while interactive ones keep being admitted until the
  queue is actually full;
* **per-tenant quotas** — a tenant with ``tenant_quota`` jobs already
  outstanding is rejected (``tenant quota exceeded``) regardless of
  queue headroom, so one aggressive client cannot monopolise the fleet.

Admitted requests are routed by consistent hash
(:class:`~repro.cluster.ring.HashRing`) to one of N replica
``SimulationService`` processes, behind a gateway-wide coalescing map
(the same in-flight what-if submitted twice — even toward two different
replicas across a remap window — runs exactly once) and the shared
cache tier (:class:`~repro.cluster.shared_cache.SharedCacheTier`,
read-through/write-back with per-replica accounting). A health loop
pings every replica; a dead local replica is respawned and rejoins the
ring under its old identity, so its keyspace slice maps back unchanged.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from dataclasses import dataclass

from ..bench.runner import ResultCache
from ..serve.frontend import Frontend
from ..serve.metrics import logger as serve_logger
from ..serve.protocol import (
    AsyncReplicaConnection,
    ReplicaUnavailable,
    serve_tcp,
)
from ..serve.queue import AdmissionError, Job
from .replicas import LocalReplicaProcess, Replica
from .ring import HashRing
from .shared_cache import SharedCacheTier

logger = serve_logger.getChild("cluster")

REASON_TENANT_QUOTA = "tenant quota exceeded"
REASON_LOAD_SHED = "load shed"
REASON_NO_REPLICAS = "no healthy replicas"

#: Re-route attempts after a replica connection loss.
ROUTE_RETRIES = 5
#: Seconds the health loop waits for a replica's ``ping`` reply.
PING_TIMEOUT = 2.0


def request_key(exp_id: str, kwargs: dict) -> str:
    """Canonical routing/coalescing/cache key for one what-if."""
    return exp_id + "|" + json.dumps(
        kwargs, sort_keys=True, separators=(",", ":"), default=repr
    )


@dataclass
class GatewayConfig:
    """Tunables for one gateway instance."""

    #: Local replicas to spawn (ignored when ``addresses`` is set).
    replicas: int = 2
    #: Pre-existing replica endpoints (``host:port``); mixed fleets are
    #: allowed by listing addresses *and* setting ``replicas`` > 0.
    addresses: tuple[str, ...] = ()
    workers_per_replica: int = 2
    replica_capacity: int = 64
    #: Passed through to local replicas (``--runner``); None = registry.
    runner_spec: str | None = None
    #: Per-job timeout local replicas apply to their workers.
    replica_timeout: float | None = None
    capacity: int = 256
    class_limits: dict[str, int] | None = None
    #: Queue-depth fraction above which batch jobs are shed.
    shed_batch_above: float = 0.75
    #: Max outstanding (queued + forwarded) jobs per tenant.
    tenant_quota: int | None = None
    #: Concurrent forwards per replica (should not exceed the replica's
    #: own queue capacity).
    max_outstanding_per_replica: int = 8
    health_interval: float = 1.0
    #: Disk tier under the shared cache (None = memory only).
    cache: ResultCache | None = None
    known_experiments: frozenset[str] | None = None
    vnodes: int = 64
    spawn_timeout: float = 60.0


class Gateway(Frontend):
    """Routes what-if requests across a health-checked replica fleet."""

    key_fn = staticmethod(request_key)
    job_prefix = "gw"
    banner = "repro-cluster gateway"

    def __init__(self, config: GatewayConfig | None = None, **overrides):
        super().__init__(config or GatewayConfig(**overrides))
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.cache = SharedCacheTier(self.config.cache)
        self.replicas: dict[str, Replica] = {}
        self._replica_slots: dict[str, asyncio.Semaphore] = {}
        self._health_task: asyncio.Task | None = None
        self._membership_changed: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        cfg = self.config
        self._membership_changed = asyncio.Event()
        specs: list[tuple[str, str | None]] = [
            (f"r{i}", None) for i in range(cfg.replicas)
        ]
        specs += [
            (f"remote{i}", addr) for i, addr in enumerate(cfg.addresses)
        ]
        if not specs:
            raise ValueError("gateway needs at least one replica")
        await asyncio.gather(
            *(self._bring_up(rid, addr) for rid, addr in specs)
        )
        if not self.ring.members:
            raise RuntimeError("no replica came up")
        self._start_dispatch(
            max(1, cfg.max_outstanding_per_replica * len(self.replicas))
        )
        if cfg.health_interval:
            self._health_task = asyncio.create_task(
                self._health_loop(), name="cluster-health"
            )
        logger.info(
            "gateway: started (%d replicas, capacity=%d, vnodes=%d)",
            len(self.replicas), cfg.capacity, cfg.vnodes,
        )

    async def _bring_up(self, replica_id: str, address: str | None) -> None:
        """Spawn (local) or dial (remote) one replica and ring it in."""
        cfg = self.config
        replica = self.replicas.get(replica_id)
        if replica is None:
            replica = self.replicas[replica_id] = Replica(replica_id)
            self._replica_slots[replica_id] = asyncio.Semaphore(
                cfg.max_outstanding_per_replica
            )
        try:
            if address is None:
                replica.spawn_kwargs = {
                    "workers": cfg.workers_per_replica,
                    "capacity": cfg.replica_capacity,
                    "runner_spec": cfg.runner_spec,
                    "timeout": cfg.replica_timeout,
                    "spawn_timeout": cfg.spawn_timeout,
                }
                replica.proc = await asyncio.to_thread(
                    LocalReplicaProcess, replica_id, **replica.spawn_kwargs
                )
                replica.host, replica.port = (
                    replica.proc.host, replica.proc.port,
                )
            else:
                host, _, port = address.partition(":")
                replica.host, replica.port = host, int(port)
            replica.conn = await AsyncReplicaConnection.open(
                replica.host, replica.port
            )
        except Exception:
            logger.exception("gateway: replica %s failed to come up",
                             replica_id)
            replica.healthy = False
            return
        replica.healthy = True
        self.ring.add(replica_id)
        self._membership_changed.set()
        self._membership_changed = asyncio.Event()
        logger.info("gateway: replica %s up at %s", replica_id,
                    replica.address)

    def _mark_unhealthy(self, replica: Replica) -> None:
        if not replica.healthy:
            return
        replica.healthy = False
        self.ring.remove(replica.replica_id)
        logger.warning("gateway: replica %s removed from ring",
                       replica.replica_id)
        if replica.conn is not None:
            conn = replica.conn
            replica.conn = None
            task = asyncio.create_task(conn.close())
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        # Event-driven recovery: start the respawn right away instead of
        # waiting for the next health tick (the tick is the fallback for
        # respawn attempts that themselves failed).
        self._schedule_respawn(replica)

    def _schedule_respawn(self, replica: Replica) -> None:
        if replica.respawning:
            return
        replica.respawning = True
        task = asyncio.create_task(
            self._respawn_guard(replica),
            name=f"cluster-respawn-{replica.replica_id}",
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _respawn_guard(self, replica: Replica) -> None:
        try:
            await self._respawn(replica)
        finally:
            replica.respawning = False

    async def _health_loop(self) -> None:
        cfg = self.config
        while True:
            await asyncio.sleep(cfg.health_interval)
            for replica in list(self.replicas.values()):
                if not replica.healthy:
                    # A previous respawn attempt failed; try again.
                    self._schedule_respawn(replica)
                    continue
                conn = replica.conn
                dead = (
                    (replica.proc is not None and not replica.proc.alive())
                    or conn is None
                    or conn.closed
                )
                if not dead:
                    try:
                        await conn.ping(PING_TIMEOUT)
                    except (ReplicaUnavailable, asyncio.TimeoutError):
                        dead = True
                if dead:
                    self._mark_unhealthy(replica)

    async def _respawn(self, replica: Replica) -> None:
        """Replace a dead local replica (new process, same identity) or
        re-dial a remote one; either way it rejoins the ring under its
        old id, so the keyspace maps back exactly as before."""
        if replica.proc is not None:
            await asyncio.to_thread(replica.proc.kill)
            replica.proc = None
        if replica.local:
            replica.respawns += 1
            await self._bring_up(replica.replica_id, None)
        else:
            await self._bring_up(replica.replica_id, replica.address)

    async def kill_replica(self, replica_id: str) -> int:
        """Fault injection: SIGKILL a local replica's process (the
        health loop will respawn it). Returns the killed pid."""
        replica = self.replicas[replica_id]
        if replica.proc is None:
            raise ValueError(f"{replica_id} is not a local replica")
        pid = replica.proc.pid
        await asyncio.to_thread(replica.proc.kill)
        return pid

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        for replica in self.replicas.values():
            if replica.conn is not None:
                await replica.conn.close()
                replica.conn = None
        await asyncio.gather(
            *(
                asyncio.to_thread(replica.proc.terminate)
                for replica in self.replicas.values()
                if replica.proc is not None
            ),
            return_exceptions=True,
        )
        await asyncio.to_thread(self.cache.close)
        self._started = False

    # ------------------------------------------------------------------
    # Front hooks: memory-tier lookup, shedding policy, forwarding
    # ------------------------------------------------------------------

    def _cached(self, exp_id: str, kwargs: dict, key: str):
        """Memory tier only; disk read-through happens after routing
        (off the event loop), so its hits are accounted per replica."""
        payload = self.cache.get_memory(key, self._owner_for(key))
        if payload is not None:
            self.metrics.memory_hits += 1
        return payload

    def _refusal(self, job_class: str, tenant: str) -> tuple[str, str] | None:
        cfg = self.config
        if cfg.tenant_quota is not None:
            outstanding = self.tenant_outstanding.get(tenant, 0)
            if outstanding >= cfg.tenant_quota:
                return (
                    REASON_TENANT_QUOTA,
                    f"{tenant}: {outstanding}/{cfg.tenant_quota} outstanding",
                )
        if (
            job_class == "batch"
            and self.queue.depth()
            >= cfg.shed_batch_above * cfg.capacity
        ):
            return (
                REASON_LOAD_SHED,
                f"queue {self.queue.depth()}/{cfg.capacity}, batch shed "
                f"above {cfg.shed_batch_above:.0%}",
            )
        return None

    def _owner_for(self, key: str) -> str:
        try:
            return self.ring.lookup(key)
        except LookupError:
            return "?"  # empty ring: cache accounting parks on '?'

    async def _run(self, job: Job) -> None:
        """Route by key (disk read-through on the first attempt),
        forward to the replica, write the result back to the cache."""
        missed = False
        for attempt in range(ROUTE_RETRIES + 1):
            replica = await self._route(job.key, attempt)
            if replica is None:
                continue
            async with self._replica_slots[replica.replica_id]:
                conn = replica.conn  # pin: _mark_unhealthy clears the attr
                if not replica.healthy or conn is None:
                    continue  # lost it while waiting for the slot
                if attempt == 0 and self.cache.disk is not None:
                    payload = await asyncio.to_thread(
                        self.cache.get_disk, job.key, job.exp_id,
                        job.kwargs, replica.replica_id,
                    )
                    if payload is not None:
                        self.metrics.disk_hits += 1
                        self._resolve(job, payload)
                        return
                if not missed:
                    self.cache.miss(replica.replica_id)
                    missed = True
                replica.forwarded += 1
                self.metrics.forwarded += 1
                try:
                    reply = await conn.request({
                        "op": "submit",
                        "exp_id": job.exp_id,
                        "kwargs": job.kwargs,
                        "job_class": job.job_class,
                        "wait": True,
                    })
                except ReplicaUnavailable:
                    replica.errors += 1
                    self.metrics.requeued += 1
                    self._mark_unhealthy(replica)
                    continue
            if reply.get("rejected"):
                # Replica-side admission pressure: brief backoff, retry.
                replica.errors += 1
                self.metrics.requeued += 1
                await asyncio.sleep(0.05 * (attempt + 1))
                continue
            if not reply.get("ok"):
                replica.errors += 1
                self._fail(
                    job,
                    RuntimeError(reply.get("error", "replica failure")),
                )
                return
            payload = reply.get("result")
            replica.completed += 1
            if payload is not None:
                self.cache.put(
                    job.key, payload, job.exp_id, job.kwargs,
                    replica.replica_id,
                )
            self._resolve(job, payload)
            return
        self._fail(
            job,
            AdmissionError(
                REASON_NO_REPLICAS,
                f"{job.exp_id} after {ROUTE_RETRIES + 1} attempts",
            ),
        )

    async def _route(self, key: str, attempt: int) -> Replica | None:
        """Ring lookup, with a bounded wait for membership to recover
        when the ring is empty or points at a replica mid-respawn."""
        try:
            rid = self.ring.lookup(key)
        except LookupError:
            rid = None
        replica = self.replicas.get(rid) if rid is not None else None
        if replica is not None and replica.healthy and replica.conn is not None:
            return replica
        event = self._membership_changed
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(event.wait(), 0.25 * (attempt + 1))
        return None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        snap["tenants"] = dict(sorted(self.tenant_outstanding.items()))
        snap["ring"] = sorted(self.ring.members)
        snap["replicas"] = {
            rid: replica.snapshot()
            for rid, replica in sorted(self.replicas.items())
        }
        snap["respawns"] = sum(
            r.respawns for r in self.replicas.values()
        )
        snap["shared_cache"] = self.cache.snapshot()
        return snap

    async def extra_op(self, op: str) -> dict | None:
        """The ``cluster`` wire op: ring, replicas and the shared cache."""
        if op != "cluster":
            return None
        return {
            "ring": sorted(self.ring.members),
            "replicas": {
                rid: replica.snapshot()
                for rid, replica in sorted(self.replicas.items())
            },
            "replica_metrics": await self.replica_metrics(),
            "shared_cache": self.cache.snapshot(),
        }

    async def replica_metrics(self) -> dict[str, dict]:
        """Fetch each healthy replica's own ``metrics`` snapshot (e.g.
        per-replica ``jobs.executed`` for exactly-once verification)."""
        out: dict[str, dict] = {}
        for rid, replica in sorted(self.replicas.items()):
            if replica.conn is None or replica.conn.closed:
                continue
            with contextlib.suppress(
                ReplicaUnavailable, asyncio.TimeoutError
            ):
                out[rid] = await replica.conn.metrics()
        return out


async def serve_gateway_tcp(
    gateway: Gateway,
    host: str = "127.0.0.1",
    port: int = 8640,
    on_ready=None,
) -> None:
    """Serve the gateway until a ``shutdown`` op; drains the fleet
    first. The serve protocol (:func:`repro.serve.protocol.serve_tcp`),
    plus a ``cluster`` op for fleet status."""
    await serve_tcp(gateway, host, port, on_ready)
