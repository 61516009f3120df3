"""The discrete-GPU shared-virtual-memory (SVM) backend.

The SVM study (PAPERS.md, arXiv 2405.06811) describes the design point
the paper's GH200 is an answer to: a conventional discrete GPU sharing
an address space with the host over a PCIe-class link. Three properties
define its economics, and this backend models exactly those:

* **no cacheline-grain remote access** — there is no hardware-coherent
  load/store path across the link. Every touch of a non-resident page
  is a page fault followed by a *page-granularity* transfer; the
  ``c2c_*``/``cpu_remote_*`` remote-access counters therefore never
  move under this backend (the differential test asserts it);
* **eager fault-driven migration** — a faulting access pulls the whole
  page to the faulting processor's pool immediately (there is no
  access-counter machinery to defer the decision), so ping-pong access
  patterns pay the full transfer both ways every time;
* **PCIe-class link + driver-mediated faults** — transfers run at
  :attr:`~repro.sim.config.SystemConfig.svm_link_gbps` (an order of
  magnitude below NVLink-C2C) and every fault costs
  :attr:`~repro.sim.config.SystemConfig.svm_fault_cost` (a driver
  round-trip, far above both the GH200 replayable fault and an OS
  anonymous fault).

Capacity pressure is where the design collapses: when an access batch
does not fit the device pool, resident pages of other allocations are
evicted back over the link (LIFO-free page order, registration-ordered
victims), and any batch larger than the device pool itself degenerates
to streaming the overflow in and straight back out — the thrash cliff
the ``repro-bench compare`` tables quantify against ``gh200``/``upm``.

First touch always lands host-side (the OS services faults from host
DRAM; the device pool is filled by migration, not placement), so
:attr:`~repro.sim.config.SystemConfig.first_touch_policy` and
:attr:`~repro.sim.config.SystemConfig.migration_enable` have no effect
under this backend. The counter vocabulary keeps the Grace names:
``hbm_*`` is device-local traffic, ``lpddr_*`` host-local traffic,
``migration_*``/``eviction_*`` the page transfers over the link.
"""

from __future__ import annotations

from ..sim.config import Location, Processor
from .arch import MemoryArchitecture
from .arch_upm import NullMigrator
from .coherence import remote_traffic
from .faults import FaultHandler, FaultOutcome
from .pagetable import AllocKind
from .pageset import PageSet
from .physical import OutOfMemoryError, PhysicalMemory
from .subsystem import AccessResult


class SvmFaultHandler(FaultHandler):
    """Driver-mediated fault servicing: placement is always host-side.

    The device pool is populated by the access path's eager migration,
    never by the fault handler — a discrete GPU's SMMU faults are
    serviced by the host OS out of host DRAM. GPU faults still count as
    replayable faults (the hardware raises one; it is the *service* path
    that differs).
    """

    def first_touch(self, alloc, unmapped, accessor: Processor) -> FaultOutcome:
        out = FaultOutcome()
        if not unmapped:
            return out
        page_size = self.config.system_page_size
        cpu_part = unmapped
        spill_part = PageSet.empty()
        if (
            self.fabric_port is not None
            and alloc.kind is AllocKind.SYSTEM
            and cpu_part.count * page_size > self.physical.cpu.free
        ):
            local_fit = cpu_part.take_first(self.physical.cpu.free // page_size)
            spill_part = cpu_part.difference(local_fit)
            cpu_part = local_fit
        if cpu_part:
            nbytes = cpu_part.count * page_size
            if nbytes > self.physical.cpu.free:
                raise OutOfMemoryError(
                    f"{alloc.name}: host pool exhausted with "
                    f"{nbytes} bytes still to place"
                )
            alloc.set_location(cpu_part, Location.CPU)
            self.physical.cpu.reserve(nbytes, tag=alloc.tag)
            out.pages_on_cpu = cpu_part.count
        if spill_part:
            out.pages_on_cpu += self._spill_to_peers(alloc, spill_part)

        n = unmapped.count
        if accessor is Processor.GPU:
            # The GPU raised a replayable fault per page; service is a
            # driver round-trip over the link, not an SMMU replay.
            self.counters.bump(gpu_replayable_faults=n)
            out.seconds += n * self.config.svm_fault_cost
        else:
            out.seconds += self._cpu_fault_time(n)
            self.counters.bump(cpu_page_faults=n)
        out.seconds += (n * page_size) / self.config.fault_zeroing_bandwidth
        return out


class SvmArchitecture(MemoryArchitecture):
    """Discrete-GPU SVM backend: split pools over a PCIe-class link."""

    name = "svm"
    description = (
        "Discrete-GPU shared virtual memory: split host/device pools over "
        "a PCIe-class link, page-fault-only sharing (no cacheline remote "
        "access), eager fault-driven migration with device-pool eviction"
    )
    physical_cls = PhysicalMemory
    fault_handler_cls = SvmFaultHandler
    # Migration *is* the access mechanism (eager, on-fault); there is no
    # delayed access-counter policy to service between epochs.
    migrator_cls = NullMigrator

    # -- eviction ----------------------------------------------------------

    def _evict_device(self, mem, needed: int, protect_alloc, protect_pages):
        """Make room for ``needed`` bytes in the device pool.

        Evicts device-resident pages of other live system/managed
        allocations (registration order, lowest pages first) back to the
        host over the link; the accessed batch's own pages are protected.
        Returns the eviction seconds (transfer at the derated writeback
        rate plus one TLB shootdown per victim range).
        """
        cfg = mem.config
        gpu = mem.physical.gpu
        if needed <= gpu.free:
            return 0.0
        page_size = cfg.system_page_size
        target = needed - gpu.free
        seconds = 0.0
        for victim in list(mem.system_table.live_allocations()):
            if target <= 0:
                break
            if victim.kind not in (AllocKind.SYSTEM, AllocKind.MANAGED):
                continue
            cand = victim.subset(PageSet.full(victim.n_pages), Location.GPU)
            if victim is protect_alloc:
                cand = cand.difference(protect_pages)
            take = cand.take_first(-(-target // page_size))
            if not take:
                continue
            nbytes = mem.physical.move(victim, take, Location.CPU)
            t = cfg.svm_transfer_time(nbytes) / cfg.eviction_bandwidth_fraction
            mem.link.account_external(nbytes, Processor.GPU, t, "dma")
            seconds += t
            seconds += cfg.tlb_shootdown_time(take.count)  # GPU TLB
            mem.counters.bump(
                eviction_bytes=nbytes,
                migration_d2h_bytes=nbytes,
                pages_evicted=take.count,
                pages_migrated_d2h=take.count,
                tlb_shootdowns=1,
            )
            target -= nbytes
        return seconds

    # -- access paths ------------------------------------------------------

    def _gpu_access(self, mem, alloc, pages, shape, write):
        cfg = mem.config
        page_size = cfg.system_page_size
        res = AccessResult()
        # Snapshot before fault servicing: host-resident pages at batch
        # start each raise their own fault (freshly faulted pages already
        # paid theirs in first_touch).
        counts = alloc.split_counts(pages)
        mem.first_touch(res, Processor.GPU, alloc, pages)
        n_stale = int(counts[Location.CPU]) + int(counts[Location.CPU_PINNED])
        if n_stale:
            mem.counters.bump(gpu_replayable_faults=n_stale)
            res.fault_seconds += n_stale * cfg.svm_fault_cost

        # Eager migration: everything host-resident (stale + just
        # faulted) moves to the device pool, evicting other allocations'
        # pages when full; what still cannot fit streams in and straight
        # back out (the oversubscription thrash cliff).
        move = alloc.subset(pages, Location.CPU)
        if move:
            res.fault_seconds += self._evict_device(
                mem, move.count * page_size, alloc, pages
            )
            fit = move.take_first(mem.physical.gpu.free // page_size)
            rest = move.difference(fit)
            if fit:
                nbytes = mem.physical.move(alloc, fit, Location.GPU)
                t = cfg.svm_transfer_time(nbytes)
                mem.link.account_external(nbytes, Processor.CPU, t, "migration")
                res.transfer_seconds += t
                mem.counters.bump(
                    migration_h2d_bytes=nbytes,
                    pages_migrated_h2d=fit.count,
                )
            if rest:
                nbytes = rest.count * page_size
                t_in = cfg.svm_transfer_time(nbytes)
                t_out = (
                    cfg.svm_transfer_time(nbytes)
                    / cfg.eviction_bandwidth_fraction
                )
                mem.link.account_external(
                    nbytes, Processor.CPU, t_in, "migration"
                )
                mem.link.account_external(nbytes, Processor.GPU, t_out, "dma")
                res.transfer_seconds += t_in + t_out
                mem.counters.bump(
                    migration_h2d_bytes=nbytes,
                    migration_d2h_bytes=nbytes,
                    eviction_bytes=nbytes,
                    pages_migrated_h2d=rest.count,
                    pages_migrated_d2h=rest.count,
                    pages_evicted=rest.count,
                )

        n_far = int(counts[Location.REMOTE])
        mem.peer_access(res, Processor.GPU, alloc, shape, n_far)
        mem.charge_local(
            res, Processor.GPU, shape.useful_bytes * (pages.count - n_far), write
        )
        return res

    def _cpu_access(self, mem, alloc, pages, shape, write):
        cfg = mem.config
        res = AccessResult()
        mem.first_touch(res, Processor.CPU, alloc, pages)

        # Device-resident pages fault host-side and migrate back over
        # the link — the ping-pong cost the eager policy cannot avoid.
        gpu_set = alloc.subset(pages, Location.GPU)
        if gpu_set:
            n = gpu_set.count
            mem.counters.bump(cpu_page_faults=n)
            res.fault_seconds += n * cfg.svm_fault_cost
            nbytes = mem.physical.move(alloc, gpu_set, Location.CPU)
            t = cfg.svm_transfer_time(nbytes)
            mem.link.account_external(nbytes, Processor.GPU, t, "dma")
            res.transfer_seconds += t
            res.fault_seconds += cfg.tlb_shootdown_time(n)  # GPU TLB
            mem.counters.bump(
                migration_d2h_bytes=nbytes,
                pages_migrated_d2h=n,
                tlb_shootdowns=1,
            )

        n_far = int(alloc.split_counts(pages)[Location.REMOTE])
        mem.peer_access(res, Processor.CPU, alloc, shape, n_far)
        mem.charge_local(
            res, Processor.CPU, shape.useful_bytes * (pages.count - n_far), write
        )
        return res

    def system_access(self, mem, processor, alloc, pages, shape, write):
        if processor is Processor.GPU:
            return self._gpu_access(mem, alloc, pages, shape, write)
        return self._cpu_access(mem, alloc, pages, shape, write)

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        # Managed memory adds nothing on an SVM machine: cudaMallocManaged
        # *is* fault-driven page migration, which is how every allocation
        # behaves here. Only the LRU bookkeeping differs.
        if processor is Processor.GPU:
            alloc.touch_blocks(pages, now)
            return self._gpu_access(mem, alloc, pages, shape, write)
        return self._cpu_access(mem, alloc, pages, shape, write)

    def pinned_access(self, mem, processor, alloc, pages, shape, write):
        res = AccessResult()
        if processor is Processor.CPU:
            mem.charge_local(
                res, processor, shape.useful_bytes * pages.count, write
            )
        else:
            # Pinned host memory stays host-resident; the GPU reads it by
            # DMA over the link at page granularity (classic zero-copy,
            # minus the cacheline-coherent path GH200 adds).
            wire = remote_traffic(mem.config, processor, shape, pages.count)
            t = mem.config.svm_transfer_time(wire)
            mem.link.account_external(wire, Processor.CPU, t, "remote")
            res.remote_bytes = wire
            res.remote_seconds = t
            mem.counters.traffic("c2c", wire, write)
        return res

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        cfg = mem.config
        page_size = cfg.system_page_size
        cpu_pages = alloc.subset(pages, Location.CPU)
        if not cpu_pages:
            return 0.0
        seconds = self._evict_device(
            mem, cpu_pages.count * page_size, alloc, pages
        )
        fit = cpu_pages.take_first(mem.physical.gpu.free // page_size)
        if fit:
            nbytes = mem.physical.move(alloc, fit, Location.GPU)
            t = cfg.svm_transfer_time(nbytes)
            mem.link.account_external(nbytes, Processor.CPU, t, "migration")
            mem.counters.bump(
                migration_h2d_bytes=nbytes, pages_migrated_h2d=fit.count
            )
            seconds += t
        return seconds
