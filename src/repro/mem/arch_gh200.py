"""The GH200 memory-architecture backend (the paper's design point).

Two NUMA pools (LPDDR5X + HBM3) with a driver baseline on the GPU side,
accessor-side first-touch placement through the SMMU with CPU spill,
access-counter delayed migration over NVLink-C2C for system memory, and
the UVM on-demand migrate/evict/remote-map machinery for managed memory.

This module owns GH200's remote-access economics: a system or pinned
access batch reads the other pool at cacheline grain over NVLink-C2C,
and every GPU access to a page outside HBM feeds the access counters
that drive delayed migration.
"""

from __future__ import annotations

from ..sim.config import Location, Processor
from .arch import MemoryArchitecture
from .coherence import remote_traffic
from .faults import FaultHandler
from .migration import AccessCounterMigrator
from .physical import PhysicalMemory
from .subsystem import AccessResult


def _count_gpu_accesses(mem, alloc, pages, wire: int, n_pages: int) -> None:
    """Feed the access counters: ``wire`` bytes of GPU traffic spread
    over the ``n_pages`` non-HBM ``pages``."""
    per_page = max(1, (wire // n_pages) // mem.config.cacheline_bytes_gpu)
    mem.migrator.record_gpu_accesses(alloc, pages, per_page)


class GH200Architecture(MemoryArchitecture):
    """Split-pool, delayed-migration GH200 backend (default)."""

    name = "gh200"
    description = (
        "NVIDIA GH200: split LPDDR5X/HBM3 pools, first-touch SMMU faults, "
        "access-counter delayed migration over NVLink-C2C (the paper's "
        "testbed; default)"
    )
    physical_cls = PhysicalMemory
    fault_handler_cls = FaultHandler
    migrator_cls = AccessCounterMigrator

    def system_access(self, mem, processor, alloc, pages, shape, write):
        res = AccessResult()
        mem.first_touch(res, processor, alloc, pages)
        counts = alloc.split_counts(pages)
        on_gpu = processor is Processor.GPU
        local_loc = Location.GPU if on_gpu else Location.CPU
        remote_loc = Location.CPU if on_gpu else Location.GPU
        n_local = int(counts[local_loc])
        n_remote = int(counts[remote_loc])
        # Remote-mapped pages sit in CPU memory.
        if on_gpu:
            n_remote += int(counts[Location.CPU_PINNED])
        else:
            n_local += int(counts[Location.CPU_PINNED])
        mem.charge_local(res, processor, shape.useful_bytes * n_local, write)

        if n_remote:
            wire = remote_traffic(mem.config, processor, shape, n_remote)
            res.remote_bytes += wire
            res.remote_seconds += mem.link.remote_access_time(wire, processor)
            mem.counters.traffic("c2c" if on_gpu else "cpu_remote", wire, write)
            if on_gpu:
                _count_gpu_accesses(
                    mem, alloc, alloc.subset(pages, remote_loc), wire, n_remote
                )

        n_far = int(counts[Location.REMOTE])
        wire = mem.peer_access(res, processor, alloc, shape, n_far)
        if wire is not None and on_gpu:
            _count_gpu_accesses(
                mem, alloc, alloc.subset(pages, Location.REMOTE), wire, n_far
            )
        return res

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        if processor is Processor.GPU:
            return mem.managed.gpu_access(
                alloc, pages, shape, write=write, now=now
            )
        return mem.managed.cpu_access(alloc, pages, shape, write=write, now=now)

    def pinned_access(self, mem, processor, alloc, pages, shape, write):
        res = AccessResult()
        if processor is Processor.CPU:
            mem.charge_local(
                res, processor, shape.useful_bytes * pages.count, write
            )
        else:
            # Zero-copy: the GPU reads host memory at cacheline grain.
            wire = remote_traffic(mem.config, processor, shape, pages.count)
            res.remote_bytes = wire
            res.remote_seconds = mem.link.remote_access_time(wire, processor)
            mem.counters.traffic("c2c", wire, write)
        return res

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        return mem.managed.prefetch_to_gpu(alloc, pages, now)
