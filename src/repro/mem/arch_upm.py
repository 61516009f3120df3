"""The MI300A-style unified-physical-memory (UPM) backend.

The MI300A study (PAPERS.md, arXiv 2508.12743) describes the opposite
design point to GH200: CPU cores and GPU compute units share **one**
physical HBM pool behind one address space. That single decision removes
most of the machinery the GH200 model exists to price:

* **no placement races** — first touch maps a page into the one pool
  regardless of which engine faulted, so there is no accessor-side
  placement policy and no CPU spill tier;
* **no migration** — a page is always as close to the GPU as it will
  ever be; the access-counter migrator, UVM on-demand migration,
  eviction, and remote pinning all collapse to no-ops;
* **uniform fault economics** — a GPU first-touch needs no cross-chip
  SMMU replay round-trip; both engines pay one OS-fault-path-like cost
  (:attr:`~repro.sim.config.SystemConfig.upm_fault_cost`) plus page
  zeroing;
* **different bandwidth roofline** — both engines stream from the same
  pool, the GPU at the HBM roofline and the CPU at its own attainable
  rate. Counter names keep the Grace vocabulary: ``hbm_*`` is
  GPU-issued local traffic, ``lpddr_*`` CPU-issued local traffic.

Capacity is the flip side: the unified pool holds ``cpu + gpu`` bytes
total, but there is no second tier to spill to, so exhausting it is
fatal (single chip) or spills across the fabric to peer chips (sharded
topologies), exactly like DDR exhaustion on GH200.

Oversubscription experiments still make sense cross-architecture:
:meth:`UpmArchitecture.oversubscription_reference_free` reports the
*notional GPU-share* of the pool (what an HBM3 tier of the configured
GPU size would offer), so a balloon sized for ratio ``R`` leaves the
same reference free space as on GH200 — and the UPM runs then proceed
flat, because the working set still fits the unified pool. That flat
line *is* the cross-architecture result.
"""

from __future__ import annotations

from ..sim.config import Location, Processor, SystemConfig
from .arch import MemoryArchitecture
from .faults import FaultHandler, FaultOutcome
from .migration import MigrationReport
from .pagetable import TAG_PREFIX, AllocKind
from .physical import MemoryPool, OutOfMemoryError, PhysicalMemory
from .subsystem import AccessResult

#: Returned by every ``local_location`` call (an enum member lookup costs
#: about ten times a global).
_LOC_GPU = Location.GPU


class UnifiedPhysicalMemory(PhysicalMemory):
    """One physical pool exposed as both NUMA endpoints.

    ``cpu`` and ``gpu`` reference the *same* :class:`MemoryPool` of
    ``cpu_memory_bytes + gpu_memory_bytes`` capacity, so every placement
    helper, tag ledger, and capacity check inherited from
    :class:`PhysicalMemory` keeps working — they just all answer about
    the one pool. The driver baseline is reserved once.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        pool = MemoryPool(
            "UnifiedHBM",
            config.cpu_memory_bytes + config.gpu_memory_bytes,
        )
        self.cpu = pool
        self.gpu = pool
        pool.reserve(config.gpu_driver_baseline_bytes, tag="driver")


class NullMigrator:
    """The migration policy of a single pool: there is none.

    Mirrors the :class:`~repro.mem.migration.AccessCounterMigrator`
    surface (recording, epoch servicing, fabric attachment) as no-ops so
    the subsystem needs no backend-specific branches.
    """

    def __init__(self, *_components):
        self.fabric_port = None

    def record_gpu_accesses(self, alloc, pages, accesses_per_page) -> None:
        return None

    def service(self, allocations) -> MigrationReport:
        return MigrationReport()


class UpmFaultHandler(FaultHandler):
    """Uniform first-touch servicing against the unified pool.

    Both engines' faults land pages in the same pool at the same cost.
    A GPU first-touch still counts as a replayable fault (the hardware
    still walks and replays; it just never crosses C2C).
    """

    #: The one pool's pages are recorded at ``Location.GPU``.
    prepopulate_location = Location.GPU

    def first_touch(self, alloc, unmapped, accessor: Processor) -> FaultOutcome:
        out = FaultOutcome()
        if not unmapped:
            return out
        page_size = self.config.system_page_size
        pool = self.physical.gpu  # the one unified pool
        fit = unmapped.take_first(pool.free // page_size)
        spill = unmapped.difference(fit)
        if fit:
            alloc.set_location(fit, Location.GPU)
            pool.reserve(fit.count * page_size, tag=alloc.tag)
            out.pages_on_gpu = fit.count
        if spill:
            if self.fabric_port is None or alloc.kind is not AllocKind.SYSTEM:
                raise OutOfMemoryError(
                    f"{alloc.name}: unified pool exhausted with "
                    f"{spill.count * page_size} bytes still to place"
                )
            out.pages_on_cpu += self._spill_to_peers(alloc, spill)

        n = unmapped.count
        if accessor is Processor.GPU:
            self.counters.bump(gpu_replayable_faults=n)
        else:
            self.counters.bump(cpu_page_faults=n)
        out.seconds += n * self.config.upm_fault_cost
        out.seconds += (n * page_size) / self.config.fault_zeroing_bandwidth
        return out


class UpmArchitecture(MemoryArchitecture):
    """Single-pool, migration-free MI300A-style backend."""

    name = "upm"
    description = (
        "AMD MI300A-style unified physical memory: one CPU+GPU pool, no "
        "migration or eviction, uniform first-touch fault economics"
    )
    physical_cls = UnifiedPhysicalMemory
    fault_handler_cls = UpmFaultHandler
    migrator_cls = NullMigrator

    def local_location(self, processor: Processor) -> Location:
        # Every mapped page lives in the one pool, so an allocation fully
        # mapped into it is local to either engine. Pages are recorded at
        # Location.GPU on first touch.
        return _LOC_GPU

    def system_access(self, mem, processor, alloc, pages, shape, write):
        res = AccessResult()
        mem.first_touch(res, processor, alloc, pages)
        counts = alloc.split_counts(pages)
        n_local = (
            int(counts[Location.GPU])
            + int(counts[Location.CPU])
            + int(counts[Location.CPU_PINNED])
        )
        mem.charge_local(res, processor, shape.useful_bytes * n_local, write)
        # Pages spilled to a peer chip's pool: fabric-grain access, but
        # never migrated home (no migrator to pull them).
        mem.peer_access(res, processor, alloc, shape, int(counts[Location.REMOTE]))
        return res

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        # Same path as system memory: uniform fault economics is the
        # point of the design. Only the LRU bookkeeping differs.
        if processor is Processor.GPU:
            alloc.touch_blocks(pages, now)
        return self.system_access(mem, processor, alloc, pages, shape, write)

    def pinned_access(self, mem, processor, alloc, pages, shape, write):
        # "Pinned host memory" is the same pool the GPU computes from:
        # zero-copy at the GPU roofline, no C2C hop.
        res = AccessResult()
        mem.charge_local(res, processor, shape.useful_bytes * pages.count, write)
        return res

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        # Everything already lives in the one pool; prefetch is free.
        return 0.0

    def oversubscription_reference_free(self, mem) -> int:
        # The notional GPU-share of the pool: what a discrete HBM3 tier
        # of the configured size would have free. Balloon sizing against
        # this keeps oversubscription ratios comparable across backends.
        cfg = mem.config
        dev = TAG_PREFIX[AllocKind.DEVICE] + ":"
        dev_bytes = sum(
            n for tag, n in mem.physical.gpu.by_tag.items() if tag.startswith(dev)
        )
        return max(
            cfg.gpu_memory_bytes - cfg.gpu_driver_baseline_bytes - dev_bytes, 0
        )
