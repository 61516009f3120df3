"""Distributed serving tier: gateway, replica fleet, shared cache.

``repro.serve`` made the experiment registry a single long-lived
service; this package is the next layer up, toward the ROADMAP's
million-user north star. A :class:`Gateway` consistent-hash-routes
JSON-lines requests across N replica
:class:`~repro.serve.service.SimulationService` processes (spawned
locally or addressed by ``host:port``), behind a shared
read-through/write-back cache tier with per-replica hit/byte
accounting, gateway-wide exactly-once coalescing, health-checked
replica respawn with hash-ring remapping, and load-shedding policies
(shed batch before interactive, per-tenant quotas). The gateway is the
service's own :class:`~repro.serve.frontend.Frontend` with a
replica-forwarding ``_run``, served by the same wire protocol.
``repro.cluster.traffic`` proves it: a seeded bursty Zipf traffic
generator replays ≥10⁶ requests and reports goodput + p50/p99/p999
curves vs replica count (``repro-bench cluster bench``).

The gateway/fleet shape follows the hierarchy-of-simulations idiom the
ROADMAP names as exemplar: higher tiers are built *from* lower-tier
services, not around them — a replica is exactly the PR-3 service,
untouched, and the cluster tier only routes, never alters, results.
"""

from ..serve.protocol import AsyncReplicaConnection, ReplicaUnavailable
from .gateway import (
    REASON_LOAD_SHED,
    REASON_NO_REPLICAS,
    REASON_TENANT_QUOTA,
    Gateway,
    GatewayConfig,
    request_key,
    serve_gateway_tcp,
)
from .replicas import LocalReplicaProcess, Replica
from .ring import HashRing, ring_hash
from .shared_cache import ReplicaCacheAccount, SharedCacheTier
from .traffic import (
    SYNTHETIC_EXP_ID,
    SYNTHETIC_RUNNER,
    RequestStream,
    TrafficMix,
    generate_stream,
    key_cost_ms,
    run_scaling,
    run_traffic,
    scaling_table,
    synthetic_job_runner,
)

__all__ = [
    "AsyncReplicaConnection",
    "Gateway",
    "GatewayConfig",
    "HashRing",
    "LocalReplicaProcess",
    "REASON_LOAD_SHED",
    "REASON_NO_REPLICAS",
    "REASON_TENANT_QUOTA",
    "Replica",
    "ReplicaCacheAccount",
    "ReplicaUnavailable",
    "RequestStream",
    "SYNTHETIC_EXP_ID",
    "SYNTHETIC_RUNNER",
    "SharedCacheTier",
    "TrafficMix",
    "generate_stream",
    "key_cost_ms",
    "request_key",
    "ring_hash",
    "run_scaling",
    "run_traffic",
    "scaling_table",
    "serve_gateway_tcp",
    "synthetic_job_runner",
]
