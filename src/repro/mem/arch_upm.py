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

from contextlib import contextmanager

from ..sim.config import Location, Processor, SystemConfig
from .arch import MemoryArchitecture, register_architecture
from .faults import FaultHandler, FaultOutcome
from .managed import ManagedOutcome
from .migration import MigrationReport
from .pagetable import AllocKind
from .physical import MemoryPool, OutOfMemoryError, PhysicalMemory
from .subsystem import AccessResult


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
    surface (recording, deferral, epoch servicing, fabric attachment) as
    no-ops so the subsystem and the batched executor need no
    backend-specific branches.
    """

    def __init__(self, config, physical, link, tlbs, counters):
        self.config = config
        self.physical = physical
        self.link = link
        self.tlbs = tlbs
        self.counters = counters
        self.fabric_port = None

    def record_gpu_accesses(self, alloc, pages, accesses_per_page) -> None:
        return None

    @contextmanager
    def deferred(self):
        yield

    def service(self, allocations) -> MigrationReport:
        return MigrationReport()


class UpmFaultHandler(FaultHandler):
    """Uniform first-touch servicing against the unified pool.

    Both engines' faults land pages in the same pool at the same cost.
    The SMMU ledger still records a replayable fault per GPU first-touch
    (the hardware still walks and replays; it just never crosses C2C),
    which keeps the sanitizer's exact fault-conservation invariants
    backend-independent.
    """

    def _tag(self, alloc) -> str:
        prefix = "mng:" if alloc.kind is AllocKind.MANAGED else "sys:"
        return f"{prefix}{alloc.aid}"

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
            pool.reserve(fit.count * page_size, tag=self._tag(alloc))
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
            self.smmu.stats.replayable_faults += n
            self.smmu.stats.page_walks += n
            self.counters.bump(gpu_replayable_faults=n)
        else:
            self.smmu.stats.cpu_faults += n
            self.counters.bump(cpu_page_faults=n)
        out.seconds += n * self.config.upm_fault_cost
        out.seconds += (n * page_size) / self.config.fault_zeroing_bandwidth
        return out

    def prepopulate(self, alloc, pages) -> float:
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if not unmapped:
            return 0.0
        nbytes = unmapped.count * self.config.system_page_size
        alloc.set_location(unmapped, Location.GPU)
        self.physical.gpu.reserve(nbytes, tag=self._tag(alloc))
        zero = nbytes / self.config.fault_zeroing_bandwidth
        return self.smmu.bulk_populate(unmapped.count) + zero


@register_architecture
class UpmArchitecture(MemoryArchitecture):
    """Single-pool, migration-free MI300A-style backend."""

    name = "upm"
    description = (
        "AMD MI300A-style unified physical memory: one CPU+GPU pool, no "
        "migration or eviction, uniform first-touch fault economics"
    )

    # -- construction ------------------------------------------------------

    def make_physical(self, config):
        return UnifiedPhysicalMemory(config)

    def make_fault_handler(self, config, physical, smmu, counters):
        return UpmFaultHandler(config, physical, smmu, counters)

    def make_migrator(self, config, physical, link, tlbs, counters):
        return NullMigrator(config, physical, link, tlbs, counters)

    # -- access paths ------------------------------------------------------

    def local_location(self, processor: Processor) -> Location:
        # Every mapped page lives in the one pool; the batched fast path
        # may treat either engine's access to a fully-mapped allocation
        # as local. Pages are recorded at Location.GPU on first touch.
        return Location.GPU

    def system_access(self, mem, processor, alloc, pages, shape, write):
        res = AccessResult()
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            fault = mem.faults.first_touch(alloc, unmapped, processor)
            res.fault_seconds += fault.seconds
            if mem.timeline is not None:
                mem.timeline.complete(
                    "first-touch", mem.timeline.now(), fault.seconds,
                    cat="mem", track="mem/fault",
                    alloc=alloc.name, processor=processor.name,
                    pages=unmapped.count,
                    pages_on_gpu=fault.pages_on_gpu,
                    pages_on_cpu=fault.pages_on_cpu,
                )

        counts = alloc.split_counts(pages)
        n_local = (
            int(counts[Location.GPU])
            + int(counts[Location.CPU])
            + int(counts[Location.CPU_PINNED])
        )
        local_bytes = shape.useful_bytes * n_local
        if processor is Processor.GPU:
            res.hbm_bytes += local_bytes
            mem.counters.bump(
                **{("hbm_write_bytes" if write else "hbm_read_bytes"): local_bytes}
            )
        else:
            res.lpddr_bytes += local_bytes
            mem.counters.bump(
                **{("lpddr_write_bytes" if write else "lpddr_read_bytes"): local_bytes}
            )

        n_far = int(counts[Location.REMOTE])
        if n_far and mem.fabric_port is not None:
            # Pages spilled to a peer chip's pool: fabric-grain access,
            # but never migrated home (no migrator to pull them).
            wire = mem.fabric.remote_traffic(processor, shape, n_far)
            res.remote_bytes += wire
            res.remote_seconds += mem.fabric_port.remote_access(
                wire, alloc, processor
            )

        res.consumed_bytes = shape.useful_bytes * pages.count
        return res

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        out = ManagedOutcome()
        if processor is Processor.GPU:
            alloc.touch_blocks(pages, now)
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            # Same handler as system memory: uniform fault economics is
            # the point of the design.
            fault = mem.faults.first_touch(alloc, unmapped, processor)
            out.fault_seconds += fault.seconds

        counts = alloc.split_counts(pages)
        n_local = (
            int(counts[Location.GPU])
            + int(counts[Location.CPU])
            + int(counts[Location.CPU_PINNED])
        )
        local_bytes = shape.useful_bytes * n_local
        if processor is Processor.GPU:
            out.hbm_bytes += local_bytes
            mem.counters.bump(
                **{("hbm_write_bytes" if write else "hbm_read_bytes"): local_bytes}
            )
        else:
            out.lpddr_bytes += local_bytes
            mem.counters.bump(
                **{("lpddr_write_bytes" if write else "lpddr_read_bytes"): local_bytes}
            )
        return mem._from_managed(out, pages, shape)

    def pinned_access(self, mem, processor, alloc, pages, shape, write):
        res = AccessResult()
        useful = shape.useful_bytes * pages.count
        res.consumed_bytes = useful
        if processor is Processor.CPU:
            res.lpddr_bytes = useful
            mem.counters.bump(
                **{("lpddr_write_bytes" if write else "lpddr_read_bytes"): useful}
            )
        else:
            # "Pinned host memory" is the same pool the GPU computes
            # from: zero-copy at the GPU roofline, no C2C hop.
            res.hbm_bytes = useful
            mem.counters.bump(
                **{("hbm_write_bytes" if write else "hbm_read_bytes"): useful}
            )
        return res

    def host_register(self, mem, alloc) -> float:
        from .pageset import PageSet

        return mem.faults.prepopulate(alloc, PageSet.full(alloc.n_pages))

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        # Everything already lives in the one pool; prefetch is free.
        return 0.0

    def oversubscription_reference_free(self, mem) -> int:
        # The notional GPU-share of the pool: what a discrete HBM3 tier
        # of the configured size would have free. Balloon sizing against
        # this keeps oversubscription ratios comparable across backends.
        cfg = mem.config
        dev_bytes = sum(
            n for tag, n in mem.physical.gpu.by_tag.items()
            if tag.startswith("dev:")
        )
        return max(
            cfg.gpu_memory_bytes - cfg.gpu_driver_baseline_bytes - dev_bytes, 0
        )
