"""Multi-superchip fabric topology, routing, and sharded execution.

The paper characterises one GH200 superchip; its deployment context is
multi-superchip nodes (quad-GH200) whose NUMA/NVLink fabric exposes
cross-superchip paths with very different bandwidth and latency from the
local NVLink-C2C link. This package models that fabric *declaratively*
(:class:`Topology`), routes multi-hop transfers over it with per-link
charging and BSP-style contention (:class:`FabricRouter`), and runs
domain-sharded multi-GPU workloads on N lockstepped superchip simulators
(:class:`ShardedSystem`). The default single-superchip topology leaves
every paper experiment bit-for-bit unchanged.
"""

from .model import LinkSpec, Superchip, Topology
from .routing import ExchangeOutcome, FabricRouter, Route
from .sharded import ShardedSystem

__all__ = [
    "LinkSpec",
    "Superchip",
    "Topology",
    "Route",
    "FabricRouter",
    "ExchangeOutcome",
    "ShardedSystem",
]
