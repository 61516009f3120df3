"""Automatic delayed access-counter-based migration (system memory).

Section 2.2.1: hardware counters track GPU accesses to memory ranges;
when a counter exceeds a user-configurable threshold (default 256) the
GPU raises a *notification* interrupt, handled by the driver on the CPU,
which decides whether to migrate the pages of the associated virtual
memory region from CPU to GPU memory.

Model highlights, matching the behaviour the paper measures:

* counters accumulate *across* kernel launches, so with 4 KB pages a
  streaming kernel that touches each page once per iteration
  (64 accesses of 128 B per 4 KB page... 32 GPU cachelines) needs several
  iterations to cross the 256 threshold, while at 64 KB pages a single
  iteration (512 cachelines) crosses it immediately — this asymmetry is
  why Figure 7's 64 KB runs suffer not-sufficiently-reused migrations and
  the 4 KB runs mostly avoid them;
* the driver services notifications between kernel epochs with a bounded
  per-epoch byte budget, spreading a large working-set migration over
  several iterations (SRAD's iterations 2-4 in Figure 10);
* migrations stall concurrent accesses to in-flight pages
  (:attr:`SystemConfig.migration_stall_factor`), the "temporary latency
  increase" of Section 5.2;
* no GPU-to-CPU counter migration is performed, matching the Section 6
  observation that CPU reads of GPU-resident data never triggered one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..interconnect.nvlink import NvlinkC2C
from ..profiling.counters import HardwareCounters
from ..sim.config import Location, Processor, SystemConfig
from .pagetable import Allocation, AllocKind
from .pageset import PageSet
from .physical import PhysicalMemory


@dataclass
class MigrationReport:
    """Outcome of one notification-servicing window."""

    pages_migrated: int = 0
    bytes_migrated: int = 0
    transfer_seconds: float = 0.0
    stall_seconds: float = 0.0


class AccessCounterMigrator:
    """Driver-side servicing of access-counter notifications."""

    def __init__(
        self,
        config: SystemConfig,
        physical: PhysicalMemory,
        link: NvlinkC2C,
        counters: HardwareCounters,
    ):
        self.config = config
        self.physical = physical
        self.link = link
        self.counters = counters

    # -- notification side -------------------------------------------------

    def record_gpu_accesses(
        self, alloc: Allocation, cpu_pages: PageSet, accesses_per_page: int
    ) -> None:
        """Bump hardware access counters for GPU accesses to CPU-resident
        pages of a system allocation."""
        if alloc.kind is not AllocKind.SYSTEM or not self.config.migration_enable:
            return
        alloc.counters.add(cpu_pages, accesses_per_page)

    # -- servicing side -------------------------------------------------------

    def service(self, allocations: Iterable[Allocation]) -> MigrationReport:
        """Service pending notifications before a kernel epoch.

        Walks ``allocations`` in order (the subsystem passes its registry)
        and migrates CPU-resident pages of system allocations whose
        counters crossed the threshold, bounded by the per-epoch byte
        budget. Returns the transfer time and the stall charged to the
        upcoming epoch.
        """
        report = MigrationReport()
        if not self.config.migration_enable:
            return report
        budget_pages = (
            self.config.migration_epoch_budget_bytes // self.config.system_page_size
        )
        for alloc in allocations:
            if budget_pages <= 0:
                break
            if alloc.kind is not AllocKind.SYSTEM or alloc.freed:
                continue
            if alloc.pages_at(Location.CPU) == 0:
                continue
            counters = alloc.counters
            if (
                counters.extra is None
                and counters.base < self.config.migration_threshold
            ):
                # No per-page counters and the uniform count is below the
                # threshold: ``crossed`` is provably empty, so skip before
                # materialising the (potentially huge) residency subsets.
                continue
            pages = alloc.subset(PageSet.full(alloc.n_pages), Location.CPU)
            hot = alloc.counters.crossed(pages, self.config.migration_threshold)
            if not hot:
                continue
            self.counters.bump(migration_notifications=1)
            # Notifications are per VA *region*: the driver migrates the
            # pages belonging to the associated region (Section 2.2.1), so
            # cold pages sharing a region with hot ones move too — the
            # migration amplification Section 5.2 blames for the 64 KB
            # compute-time losses.
            hot_regions = hot.align_down(self.config.pages_per_gpu_page).clip(
                alloc.n_pages
            )
            candidates = alloc.subset(hot_regions, Location.CPU)
            take = candidates.take_first(budget_pages)
            budget_pages -= self._migrate_to_gpu(alloc, take, report)
        return report

    def _migrate_to_gpu(
        self, alloc: Allocation, pages: PageSet, report: MigrationReport
    ) -> int:
        """Move ``pages`` CPU->GPU, respecting free GPU capacity."""
        page_size = self.config.system_page_size
        fit_pages = self.physical.gpu.free // page_size
        pages = pages.take_first(fit_pages)
        if not pages:
            return 0
        nbytes = self.physical.move(alloc, pages, Location.GPU)
        alloc.counters.reset(
            pages.align_down(self.config.pages_per_gpu_page).clip(alloc.n_pages)
        )
        transfer = self.link.migration_time(nbytes, Processor.CPU, Processor.GPU)
        stall = (
            nbytes
            * self.config.migration_stall_factor
            / self.config.c2c_h2d_bandwidth
        )
        # Invalidate the GPU's ATS-TBU entries for the moved pages.
        shootdown = self.config.tlb_shootdown_time(pages.count)
        report.pages_migrated += pages.count
        report.bytes_migrated += nbytes
        report.transfer_seconds += transfer + self.config.migration_range_cost
        report.stall_seconds += stall + shootdown
        self.counters.bump(
            migration_h2d_bytes=nbytes,
            pages_migrated_h2d=pages.count,
            tlb_shootdowns=1,
        )
        return pages.count
