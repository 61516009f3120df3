"""The unified memory subsystem: one façade over the whole memory model.

Dispatches every access by allocation kind:

* **system** (``malloc``), **managed** (``cudaMallocManaged``) and
  **host-pinned / numa** — to the selected
  :class:`~repro.mem.arch.MemoryArchitecture` backend, which decides
  fault placement, migration and remote-access economics;
* **device** (``cudaMalloc``) — GPU-local only on every backend; CPU
  access is rejected, matching the non-coherent row of Table 1.

A system or managed allocation whose every page already sits where the
accessing processor reads locally
(:meth:`~repro.mem.arch.MemoryArchitecture.local_location`) is charged
its local traffic without a backend call, the steady state of every
warm epoch.

The accounting every backend shares lives here: :class:`AccessResult`,
local-traffic charging (:meth:`MemorySubsystem.charge_local`),
first-touch servicing with its timeline span
(:meth:`MemorySubsystem.first_touch`) and peer-chip fabric access
(:meth:`MemorySubsystem.peer_access`).

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
from .coherence import AccessShape, remote_traffic
from .migration import MigrationReport
from .pagetable import (
    Allocation,
    AllocKind,
    GpuPageTable,
    SystemPageTable,
)
from .pageset import PageSet

#: Module-level aliases of the enum members the per-descriptor path
#: compares with: an enum member lookup costs about ten times a global.
_SYSTEM, _MANAGED, _DEVICE = AllocKind.SYSTEM, AllocKind.MANAGED, AllocKind.DEVICE
_CPU, _GPU = Processor.CPU, Processor.GPU


@dataclass
class AccessResult:
    """Cost and traffic of one access (or the sum over an epoch's
    accesses), for the kernel cost model."""

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
        self.arch = arch = resolve_arch(config.mem_arch)
        self.physical = arch.physical_cls(config)
        self.link = NvlinkC2C(config)
        self.copy_engine = CopyEngine(config, self.link)
        self.system_table = SystemPageTable(config)
        self.gpu_table = GpuPageTable(config)
        self.faults = arch.fault_handler_cls(config, self.physical, counters)
        self.migrator = arch.migrator_cls(
            config, self.physical, self.link, counters
        )
        # managed.py builds on this module's AccessResult.
        from .managed import ManagedMemoryManager

        self.managed = ManagedMemoryManager(
            config, self.physical, self.link, counters
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
            self.physical.gpu.reserve(alloc.bytes_at(Location.GPU), alloc.tag)
            self.gpu_table.register(alloc)
        else:  # pinned / numa, reserved first likewise
            self.physical.cpu.reserve(alloc.bytes_at(Location.CPU), alloc.tag)
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
            for loc, pool in (
                (Location.CPU, self.physical.cpu),
                (Location.CPU_PINNED, self.physical.cpu),
                (Location.GPU, self.physical.gpu),
            ):
                nbytes = alloc.bytes_at(loc)
                if nbytes:
                    pool.release(nbytes, tag=alloc.tag)
            if alloc.remote_pages_by_node:
                page_size = alloc.page_size
                for node, n_pages in list(alloc.remote_pages_by_node.items()):
                    self.fabric_port.pool(node).release(
                        n_pages * page_size, tag=alloc.tag
                    )
                alloc.remote_pages_by_node.clear()
            self.system_table.unregister(alloc)
            if alloc.kind is AllocKind.MANAGED:
                self.gpu_table.unregister(alloc)
                self.managed.unregister(alloc)
                seconds += self.config.cuda_free_call_cost
        elif alloc.kind is AllocKind.DEVICE:
            self.physical.gpu.release(alloc.bytes_at(Location.GPU), alloc.tag)
            self.gpu_table.unregister(alloc)
            seconds += self.config.cuda_free_call_cost
        else:
            self.physical.cpu.release(alloc.bytes_at(Location.CPU), alloc.tag)
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
        """Charge one descriptor: ``processor`` reads (or writes) ``pages``
        of ``alloc``, each page with the traffic ``shape`` describes."""
        if alloc.freed:
            raise RuntimeError(f"{alloc.name}: use after free")
        pages = pages.clip(alloc.n_pages)
        if not pages:
            return AccessResult()
        kind = alloc.kind
        consumed = shape.useful_bytes * pages.count
        if kind is _SYSTEM or kind is _MANAGED:
            if alloc.is_homogeneous(self.arch.local_location(processor)):
                # Every page already sits where the processor reads
                # locally. Each backend's own path would only charge the
                # local traffic and, for managed memory on the GPU, touch
                # the LRU blocks.
                if kind is _MANAGED and processor is _GPU:
                    alloc.touch_blocks(pages, now)
                res = AccessResult()
                self.charge_local(res, processor, consumed, write)
            elif kind is _MANAGED:
                res = self.arch.managed_access(
                    self, processor, alloc, pages, shape, write, now
                )
            else:
                res = self.arch.system_access(
                    self, processor, alloc, pages, shape, write
                )
        elif kind is _DEVICE:
            # Device memory is architecture-independent: GPU-local,
            # CPU-inaccessible (same PermissionError on every backend).
            if processor is _CPU:
                raise PermissionError(
                    f"{alloc.name}: cudaMalloc memory is not CPU-accessible "
                    "(Table 1: not cache coherent); use cudaMemcpy"
                )
            res = AccessResult()
            self.charge_local(res, processor, consumed, write)
        else:
            res = self.arch.pinned_access(
                self, processor, alloc, pages, shape, write
            )
        res.consumed_bytes = consumed
        if self.sanitizer is not None:
            self.sanitizer.after_access(alloc, now)
        return res

    def access_batch(
        self,
        processor: Processor,
        descriptors,
        *,
        now: float = 0.0,
    ) -> AccessResult:
        """Charge one epoch: the sum of :meth:`access` over its
        ``(alloc, pages, shape, write)`` descriptors, in order."""
        total = AccessResult()
        for alloc, pages, shape, write in descriptors:
            total.merge(
                self.access(processor, alloc, pages, shape, write=write, now=now)
            )
        return total

    # -- accounting every backend shares ------------------------------------------

    def charge_local(
        self, res: AccessResult, processor: Processor, nbytes: int, write: bool
    ) -> None:
        """Charge ``nbytes`` of traffic local to ``processor``: HBM for the
        GPU, LPDDR for the CPU."""
        if processor is _GPU:
            res.hbm_bytes += nbytes
            self.counters.traffic("hbm", nbytes, write)
        else:
            res.lpddr_bytes += nbytes
            self.counters.traffic("lpddr", nbytes, write)

    def first_touch(
        self,
        res: AccessResult,
        processor: Processor,
        alloc: Allocation,
        pages: PageSet,
    ) -> None:
        """Service first-touch faults on the unmapped part of ``pages``
        through the backend's fault handler, as one ``first-touch`` span."""
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if not unmapped:
            return
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

    def peer_access(
        self,
        res: AccessResult,
        processor: Processor,
        alloc: Allocation,
        shape: AccessShape,
        n_far: int,
    ) -> int | None:
        """Cacheline-grain access to ``n_far`` pages resident on peer
        superchips, over the inter-chip fabric (multi-hop, derated).
        Returns the wire bytes, or ``None`` when nothing was accessed."""
        if not n_far or self.fabric_port is None:
            return None
        wire = remote_traffic(self.config, processor, shape, n_far)
        res.remote_bytes += wire
        res.remote_seconds += self.fabric_port.remote_access(
            wire, alloc, processor
        )
        return wire

    # -- optimisation APIs (Section 5.1.2, 2.3.2) -------------------------------------

    def host_register(self, alloc: Allocation) -> float:
        """``cudaHostRegister``: pre-populate the system PTEs CPU-side."""
        if alloc.kind is not AllocKind.SYSTEM:
            raise ValueError("host_register applies to system allocations")
        return self.faults.prepopulate(alloc, PageSet.full(alloc.n_pages))

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
