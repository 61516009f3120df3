"""The unified memory subsystem: one façade over the whole memory model.

Dispatches every access batch by allocation kind:

* **system** (``malloc``) — first-touch fault handling through the SMMU,
  then cacheline-granularity local/remote traffic with access-counter
  updates feeding the delayed migration engine (Sections 2.1-2.2);
* **managed** (``cudaMallocManaged``) — delegated to
  :class:`~repro.mem.managed.ManagedMemoryManager` (Section 2.3);
* **device** (``cudaMalloc``) — GPU-local only; CPU access is rejected,
  matching the non-coherent row of Table 1;
* **host-pinned / numa** — CPU-resident; GPU accesses are zero-copy
  remote reads over NVLink-C2C.

The kernel executor calls :meth:`begin_epoch` before each launch so the
driver can service pending access-counter notifications (migrations land
*between* kernel launches, with their stall charged to the epoch that
runs concurrently with them).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interconnect.copyengine import CopyEngine
from ..interconnect.nvlink import NvlinkC2C
from ..profiling.counters import HardwareCounters
from ..sim.config import Location, Processor, SystemConfig
from .arch import resolve_arch
from .coherence import AccessShape, CoherenceFabric
from .gmmu import Gmmu
from .managed import ManagedMemoryManager, ManagedOutcome
from .migration import MigrationReport
from .pagetable import (
    Allocation,
    AllocKind,
    GpuPageTable,
    SystemPageTable,
)
from .pageset import PageSet
from .smmu import Smmu
from .tlb import TlbHierarchy


@dataclass
class AccessResult:
    """Cost and traffic of one access batch, for the kernel cost model."""

    fault_seconds: float = 0.0
    remote_seconds: float = 0.0
    transfer_seconds: float = 0.0
    hbm_bytes: int = 0
    lpddr_bytes: int = 0
    remote_bytes: int = 0
    consumed_bytes: int = 0

    def merge(self, other: "AccessResult") -> "AccessResult":
        self.fault_seconds += other.fault_seconds
        self.remote_seconds += other.remote_seconds
        self.transfer_seconds += other.transfer_seconds
        self.hbm_bytes += other.hbm_bytes
        self.lpddr_bytes += other.lpddr_bytes
        self.remote_bytes += other.remote_bytes
        self.consumed_bytes += other.consumed_bytes
        return self


class MemorySubsystem:
    """Owns all memory-model state of one simulated superchip."""

    def __init__(self, config: SystemConfig, counters: HardwareCounters):
        self.config = config
        self.counters = counters
        #: The memory-architecture backend (strategy object) selected by
        #: ``config.mem_arch``; owns the physical layout, fault path,
        #: migration policy, and per-kind access economics.
        self.arch = resolve_arch(config.mem_arch)
        self.physical = self.arch.make_physical(config)
        self.link = NvlinkC2C(config)
        self.copy_engine = CopyEngine(config, self.link)
        self.tlbs = TlbHierarchy(config)
        self.smmu = Smmu(config, self.tlbs)
        self.gmmu = Gmmu(config)
        self.fabric = CoherenceFabric(config)
        self.system_table = SystemPageTable(config)
        self.gpu_table = GpuPageTable(config)
        self.faults = self.arch.make_fault_handler(
            config, self.physical, self.smmu, counters
        )
        self.migrator = self.arch.make_migrator(
            config, self.physical, self.link, self.tlbs, counters
        )
        self.managed = ManagedMemoryManager(
            config,
            self.physical,
            self.link,
            self.gmmu,
            self.tlbs,
            self.fabric,
            counters,
        )
        #: Set by :meth:`attach_fabric` on multi-superchip nodes.
        self.fabric_port = None
        #: Opt-in structured event timeline (wired by the runtime along
        #: with ``managed.timeline`` / ``link.timeline``); ``None`` keeps
        #: the access path emission-free.
        self.timeline = None
        #: Opt-in invariant checker (``SystemConfig.sanitize=True`` or
        #: ``REPRO_SANITIZE=1``); ``None`` means zero overhead.
        self.sanitizer = None
        from ..check.sanitizer import MemSanitizer, sanitize_requested

        if sanitize_requested(config):
            self.sanitizer = MemSanitizer(self)

    # -- multi-superchip fabric -----------------------------------------------

    def attach_fabric(self, port) -> None:
        """Connect this superchip to an inter-chip fabric.

        ``port`` is duck-typed (see :class:`repro.topology.FabricPort`) so
        this package never imports :mod:`repro.topology`. It gives the
        fault path somewhere to spill first-touch placement, the migrator
        a path to pull hot peer-resident pages home, and the access path a
        cost model for :attr:`Location.REMOTE` pages.
        """
        self.fabric_port = port
        self.faults.fabric_port = port
        self.migrator.fabric_port = port

    # -- allocation lifecycle ------------------------------------------------

    def allocate(
        self,
        kind: AllocKind,
        nbytes: int,
        *,
        name: str = "",
        materialize: bool = False,
    ) -> Allocation:
        alloc = Allocation(
            kind, nbytes, self.config, name=name, materialize=materialize
        )
        if kind in (AllocKind.SYSTEM, AllocKind.MANAGED):
            self.system_table.register(alloc)
            if kind is AllocKind.MANAGED:
                self.gpu_table.register(alloc)
                self.managed.register(alloc)
        elif kind is AllocKind.DEVICE:
            # Reserve first: an allocation that does not fit raises
            # OutOfMemoryError and leaves no trace in the page tables.
            self.physical.gpu.reserve(alloc.bytes_at(Location.GPU), f"dev:{alloc.aid}")
            self.gpu_table.register(alloc)
        else:  # pinned / numa, reserved first likewise
            self.physical.cpu.reserve(alloc.bytes_at(Location.CPU), f"pin:{alloc.aid}")
            self.system_table.register(alloc)
        if self.sanitizer is not None:
            self.sanitizer.after_alloc(alloc)
        return alloc

    def free(self, alloc: Allocation) -> float:
        """Release an allocation; returns the teardown time."""
        if alloc.freed:
            raise RuntimeError(f"{alloc.name}: double free")
        seconds = 0.0
        if alloc.kind in (AllocKind.SYSTEM, AllocKind.MANAGED):
            seconds += self.system_table.teardown_cost(alloc)
            tag = ("sys:" if alloc.kind is AllocKind.SYSTEM else "mng:") + str(
                alloc.aid
            )
            for loc, pool in (
                (Location.CPU, self.physical.cpu),
                (Location.CPU_PINNED, self.physical.cpu),
                (Location.GPU, self.physical.gpu),
            ):
                nbytes = alloc.bytes_at(loc)
                if nbytes:
                    pool.release(nbytes, tag=tag)
            if alloc.remote_pages_by_node:
                page_size = alloc.page_size
                for node, n_pages in list(alloc.remote_pages_by_node.items()):
                    self.fabric_port.pool(node).release(
                        n_pages * page_size, tag=tag
                    )
                alloc.remote_pages_by_node.clear()
            self.system_table.unregister(alloc)
            if alloc.kind is AllocKind.MANAGED:
                self.gpu_table.unregister(alloc)
                self.managed.unregister(alloc)
                seconds += self.config.cuda_free_call_cost
        elif alloc.kind is AllocKind.DEVICE:
            self.physical.gpu.release(alloc.bytes_at(Location.GPU), f"dev:{alloc.aid}")
            self.gpu_table.unregister(alloc)
            seconds += self.config.cuda_free_call_cost
        else:
            self.physical.cpu.release(alloc.bytes_at(Location.CPU), f"pin:{alloc.aid}")
            self.system_table.unregister(alloc)
        alloc.freed = True
        self.counters.bump(tlb_shootdowns=1)
        if self.sanitizer is not None:
            self.sanitizer.after_free(alloc)
        return seconds

    # -- epoch servicing -------------------------------------------------------

    def begin_epoch(self) -> MigrationReport:
        """Service pending access-counter notifications (Section 2.2.1)."""
        report = self.migrator.service(self.system_table.live_allocations())
        if self.timeline is not None:
            now = self.timeline.now()
            self.timeline.instant(
                "epoch", cat="sim", track="sim/epoch",
                pages_migrated=report.pages_migrated,
            )
            if report.pages_migrated:
                # The DMA runs concurrently with the upcoming epoch; the
                # span covers the transfer window from epoch start.
                self.timeline.complete(
                    "migrate-batch", now, report.transfer_seconds,
                    cat="mem", track="mem/migration",
                    pages=report.pages_migrated,
                    bytes=report.bytes_migrated,
                    stall_seconds=report.stall_seconds,
                )
        if self.sanitizer is not None:
            self.sanitizer.begin_epoch()
        return report

    # -- the access path ----------------------------------------------------------

    def access(
        self,
        processor: Processor,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        *,
        write: bool = False,
        now: float = 0.0,
    ) -> AccessResult:
        if alloc.freed:
            raise RuntimeError(f"{alloc.name}: use after free")
        pages = pages.clip(alloc.n_pages)
        if not pages:
            return AccessResult()
        if alloc.kind is AllocKind.MANAGED:
            res = self.arch.managed_access(
                self, processor, alloc, pages, shape, write, now
            )
        elif alloc.kind is AllocKind.DEVICE:
            # Device memory is architecture-independent: GPU-local,
            # CPU-inaccessible (same PermissionError on every backend).
            res = self._device_access(processor, alloc, pages, shape, write)
        elif alloc.kind in (AllocKind.HOST_PINNED, AllocKind.NUMA_CPU):
            res = self.arch.pinned_access(
                self, processor, alloc, pages, shape, write
            )
        else:
            res = self.arch.system_access(
                self, processor, alloc, pages, shape, write
            )
        if self.sanitizer is not None:
            self.sanitizer.after_access(alloc, now)
        return res

    def access_batch(
        self,
        processor: Processor,
        batch,
        *,
        now: float = 0.0,
    ) -> AccessResult:
        """Process one epoch's :class:`~repro.mem.batch.AccessBatch`.

        Result-identical to calling :meth:`access` per descriptor in
        order, but descriptors whose allocation is homogeneously resident
        on the accessing processor — the steady state for every warm
        epoch — are charged with pure integer byte/counter arithmetic,
        never touching the fault, residency, or migration machinery.
        Migrator counter bumps from the remaining descriptors are applied
        once at the end of the batch (they are only read at the next
        :meth:`begin_epoch`). With the sanitizer active the per-descriptor
        path runs unconditionally so after-access invariants fire at the
        same points as the unbatched loop.
        """
        total = AccessResult()
        if self.sanitizer is not None or "access" in self.__dict__:
            # Sanitized runs keep per-descriptor invariant checks; an
            # instance-level ``access`` wrapper (the trace recorder) must
            # see every descriptor.
            for i, alloc in enumerate(batch.allocs):
                total.merge(
                    self.access(
                        processor, alloc, batch.pages[i], batch.shape(i),
                        write=bool(batch.write[i]), now=now,
                    )
                )
            return total
        on_gpu = processor is Processor.GPU
        local_loc = self.arch.local_location(processor)
        with self.migrator.deferred():
            for i, alloc in enumerate(batch.allocs):
                if alloc.freed:
                    raise RuntimeError(f"{alloc.name}: use after free")
                pages = batch.pages[i].clip(alloc.n_pages)
                if not pages:
                    continue
                kind = alloc.kind
                write = bool(batch.write[i])
                useful = int(batch.useful_bytes[i])
                if (
                    kind in (AllocKind.SYSTEM, AllocKind.MANAGED)
                    and alloc.is_homogeneous(local_loc)
                ):
                    local_bytes = useful * pages.count
                    if on_gpu:
                        if kind is AllocKind.MANAGED:
                            alloc.touch_blocks(pages, now)
                        total.hbm_bytes += local_bytes
                        self.counters.bump(**{
                            (
                                "hbm_write_bytes" if write else "hbm_read_bytes"
                            ): local_bytes
                        })
                    else:
                        total.lpddr_bytes += local_bytes
                        self.counters.bump(**{
                            (
                                "lpddr_write_bytes"
                                if write
                                else "lpddr_read_bytes"
                            ): local_bytes
                        })
                    total.consumed_bytes += local_bytes
                    continue
                total.merge(
                    self.access(
                        processor, alloc, pages, batch.shape(i),
                        write=write, now=now,
                    )
                )
        return total

    # -- per-kind paths --------------------------------------------------------------

    def _system_access(
        self,
        processor: Processor,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        write: bool,
    ) -> AccessResult:
        res = AccessResult()
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            fault = self.faults.first_touch(alloc, unmapped, processor)
            res.fault_seconds += fault.seconds
            if self.timeline is not None:
                self.timeline.complete(
                    "first-touch", self.timeline.now(), fault.seconds,
                    cat="mem", track="mem/fault",
                    alloc=alloc.name, processor=processor.name,
                    pages=unmapped.count,
                    pages_on_gpu=fault.pages_on_gpu,
                    pages_on_cpu=fault.pages_on_cpu,
                )

        counts = alloc.split_counts(pages)
        local_loc = Location.GPU if processor is Processor.GPU else Location.CPU
        remote_loc = Location.CPU if processor is Processor.GPU else Location.GPU

        n_local = int(counts[local_loc])
        n_remote = int(counts[remote_loc])
        if local_loc is Location.GPU:
            n_remote += int(counts[Location.CPU_PINNED])
        else:
            n_local += int(counts[Location.CPU_PINNED])

        local_bytes = shape.useful_bytes * n_local
        if processor is Processor.GPU:
            res.hbm_bytes += local_bytes
            self.counters.bump(
                **{("hbm_write_bytes" if write else "hbm_read_bytes"): local_bytes}
            )
        else:
            res.lpddr_bytes += local_bytes
            self.counters.bump(
                **{("lpddr_write_bytes" if write else "lpddr_read_bytes"): local_bytes}
            )

        if n_remote:
            remote_pages = alloc.subset(pages, remote_loc)
            wire = self.fabric.remote_traffic(processor, shape, n_remote)
            res.remote_bytes += wire
            res.remote_seconds += self.link.remote_access_time(wire, processor)
            if processor is Processor.GPU:
                self.counters.bump(
                    **{("c2c_write_bytes" if write else "c2c_read_bytes"): wire}
                )
                accesses_per_page = max(
                    1,
                    (wire // max(n_remote, 1)) // self.config.cacheline_bytes_gpu,
                )
                self.migrator.record_gpu_accesses(
                    alloc, remote_pages, accesses_per_page
                )
            else:
                self.counters.bump(
                    **{
                        (
                            "cpu_remote_write_bytes"
                            if write
                            else "cpu_remote_read_bytes"
                        ): wire
                    }
                )

        n_far = int(counts[Location.REMOTE])
        if n_far and self.fabric_port is not None:
            # Pages resident on a *peer superchip's* DDR: cacheline-grain
            # access over the inter-chip fabric (multi-hop, derated).
            far_pages = alloc.subset(pages, Location.REMOTE)
            wire = self.fabric.remote_traffic(processor, shape, n_far)
            res.remote_bytes += wire
            res.remote_seconds += self.fabric_port.remote_access(
                wire, alloc, processor
            )
            if processor is Processor.GPU:
                accesses_per_page = max(
                    1,
                    (wire // max(n_far, 1)) // self.config.cacheline_bytes_gpu,
                )
                self.migrator.record_gpu_accesses(
                    alloc, far_pages, accesses_per_page
                )

        res.consumed_bytes = shape.useful_bytes * pages.count
        return res

    def _device_access(
        self,
        processor: Processor,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        write: bool,
    ) -> AccessResult:
        if processor is Processor.CPU:
            raise PermissionError(
                f"{alloc.name}: cudaMalloc memory is not CPU-accessible "
                "(Table 1: not cache coherent); use cudaMemcpy"
            )
        res = AccessResult()
        res.hbm_bytes = shape.useful_bytes * pages.count
        res.consumed_bytes = res.hbm_bytes
        self.counters.bump(
            **{("hbm_write_bytes" if write else "hbm_read_bytes"): res.hbm_bytes}
        )
        return res

    def _pinned_access(
        self,
        processor: Processor,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        write: bool,
    ) -> AccessResult:
        res = AccessResult()
        useful = shape.useful_bytes * pages.count
        res.consumed_bytes = useful
        if processor is Processor.CPU:
            res.lpddr_bytes = useful
            self.counters.bump(
                **{("lpddr_write_bytes" if write else "lpddr_read_bytes"): useful}
            )
        else:
            wire = self.fabric.remote_traffic(processor, shape, pages.count)
            res.remote_bytes = wire
            res.remote_seconds = self.link.remote_access_time(wire, processor)
            self.counters.bump(
                **{("c2c_write_bytes" if write else "c2c_read_bytes"): wire}
            )
        return res

    def _from_managed(
        self, out: ManagedOutcome, pages: PageSet, shape: AccessShape
    ) -> AccessResult:
        return AccessResult(
            fault_seconds=out.fault_seconds,
            remote_seconds=out.remote_seconds,
            transfer_seconds=out.transfer_seconds,
            hbm_bytes=out.hbm_bytes,
            lpddr_bytes=out.lpddr_bytes,
            remote_bytes=out.remote_bytes,
            consumed_bytes=shape.useful_bytes * pages.count,
        )

    # -- optimisation APIs (Section 5.1.2, 2.3.2) -------------------------------------

    def host_register(self, alloc: Allocation) -> float:
        """``cudaHostRegister``: pre-populate the system PTEs CPU-side."""
        if alloc.kind is not AllocKind.SYSTEM:
            raise ValueError("host_register applies to system allocations")
        return self.arch.host_register(self, alloc)

    def prefetch_async(
        self, alloc: Allocation, pages: PageSet | None = None, *, now: float = 0.0
    ) -> float:
        """``cudaMemPrefetchAsync`` toward the GPU for managed memory."""
        if alloc.kind is not AllocKind.MANAGED:
            raise ValueError("prefetch_async applies to managed allocations")
        pages = PageSet.full(alloc.n_pages) if pages is None else pages
        pages = pages.clip(alloc.n_pages)
        seconds = self.arch.prefetch_async(self, alloc, pages, now)
        if self.timeline is not None:
            self.timeline.complete(
                "prefetch", now, seconds, cat="mem", track="mem/prefetch",
                alloc=alloc.name, pages=pages.count,
            )
        return seconds

    # -- introspection (profiler back-end) ---------------------------------------------

    def process_rss_bytes(self) -> int:
        """Resident set size: CPU-resident pages of all live allocations
        (what /proc/<pid>/smaps_rollup reports, Section 3.2)."""
        total = 0
        for table in (self.system_table,):
            for alloc in table.live_allocations():
                total += alloc.bytes_at(Location.CPU)
                total += alloc.bytes_at(Location.CPU_PINNED)
        return total

    def gpu_used_bytes(self) -> int:
        """GPU used memory as nvidia-smi reports it (driver baseline plus
        cudaMalloc, managed, and system GPU-resident pages)."""
        return self.physical.gpu_used_memory()
