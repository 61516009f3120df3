"""NUMA topology and placement policies.

Grace Hopper exposes its two memories as NUMA nodes (Section 2.1): node 0
is the Grace CPU's LPDDR5X, node 1 the GPU's HBM3, reachable from either
processor over NVLink-C2C. Beyond the default first-touch policy the
OS offers explicit placement — ``numa_alloc_onnode`` (Table 1),
``membind``, and page interleaving — which the Grace tuning guide
discusses for bandwidth-hungry CPU workloads (interleaving LPDDR5X and
HBM3 raises aggregate bandwidth at the cost of average latency).

This module implements those policies over the simulator's allocations so
placement studies can be scripted; the paper's own experiments only use
first-touch, which remains the default elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..sim.config import Location, SystemConfig
from .pagetable import Allocation, AllocKind
from .pageset import PageSet
from .physical import PhysicalMemory


class NumaNode(Enum):
    """The two NUMA nodes of the superchip."""

    CPU_DDR = 0
    GPU_HBM = 1

    @property
    def location(self) -> Location:
        return Location.CPU if self is NumaNode.CPU_DDR else Location.GPU


class NumaPolicy(Enum):
    DEFAULT = "default"  # first-touch (the testbed configuration)
    BIND = "bind"  # all pages on one node, fail on exhaustion
    PREFERRED = "preferred"  # one node preferred, spill to the other
    INTERLEAVE = "interleave"  # round-robin pages across both nodes


@dataclass(frozen=True)
class NumaTopology:
    """Node inventory with the access characteristics of Section 2.1."""

    config: SystemConfig

    def nodes(self) -> list[NumaNode]:
        return [NumaNode.CPU_DDR, NumaNode.GPU_HBM]

    def capacity(self, node: NumaNode) -> int:
        return (
            self.config.cpu_memory_bytes
            if node is NumaNode.CPU_DDR
            else self.config.gpu_memory_bytes
        )

    def local_bandwidth(self, node: NumaNode) -> float:
        return (
            self.config.cpu_memory_bandwidth
            if node is NumaNode.CPU_DDR
            else self.config.hbm_bandwidth
        )

    def cpu_visible_bandwidth(self, node: NumaNode) -> float:
        """Bandwidth a CPU thread pool sees reading this node."""
        if node is NumaNode.CPU_DDR:
            return self.config.cpu_memory_bandwidth
        return self.config.c2c_d2h_bandwidth * self.config.remote_access_efficiency

    def interleaved_cpu_bandwidth(self) -> float:
        """Aggregate CPU-visible bandwidth of 1:1 page interleaving.

        Interleaving streams from both nodes concurrently; the achievable
        rate is twice the slower stream (pages alternate strictly)."""
        return 2 * min(
            self.cpu_visible_bandwidth(NumaNode.CPU_DDR),
            self.cpu_visible_bandwidth(NumaNode.GPU_HBM),
        )


class NumaAllocator:
    """Explicit placement of system-page-table allocations."""

    def __init__(self, config: SystemConfig, physical: PhysicalMemory):
        self.config = config
        self.physical = physical
        self.topology = NumaTopology(config)

    def place(
        self,
        alloc: Allocation,
        policy: NumaPolicy,
        node: NumaNode = NumaNode.CPU_DDR,
    ) -> None:
        """Apply an explicit placement policy to an allocation's unmapped
        pages (DEFAULT leaves them to first-touch). A placement that does
        not fit raises :class:`~repro.mem.physical.OutOfMemoryError` with
        no page mapped."""
        if alloc.kind not in (AllocKind.SYSTEM, AllocKind.NUMA_CPU):
            raise ValueError("NUMA placement applies to system allocations")
        unmapped = alloc.subset(PageSet.full(alloc.n_pages), Location.UNMAPPED)
        if policy is NumaPolicy.DEFAULT or not unmapped:
            return
        place = self.physical.place
        if policy is NumaPolicy.BIND:
            place(alloc, (unmapped, node.location))
            return
        if policy is NumaPolicy.PREFERRED:
            pool = self.physical.pool(node.location)
            first = unmapped.take_first(pool.free // self.config.system_page_size)
            other = (
                NumaNode.GPU_HBM if node is NumaNode.CPU_DDR else NumaNode.CPU_DDR
            )
            place(
                alloc,
                (first, node.location),
                (unmapped.difference(first), other.location),
            )
            return
        if policy is NumaPolicy.INTERLEAVE:
            idx = unmapped.indices()
            place(
                alloc,
                (PageSet.of(idx[::2]), Location.CPU),
                (PageSet.of(idx[1::2]), Location.GPU),
            )
            return
        raise ValueError(f"unhandled policy {policy}")  # pragma: no cover
