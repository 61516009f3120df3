"""First-touch page-fault handling for system-allocated memory.

Section 2.2: ``malloc`` creates PTEs lazily; the first access to each
virtual page faults, and the OS places the page on the faulting
processor's memory node (first-touch policy). On Grace Hopper a GPU
first-touch arrives as an SMMU replayable fault — triggered on the GPU,
*handled on the CPU* — whose per-page service cost dominates GPU-side
initialisation of system memory (Sections 5.1.2 and the Figure 9
breakdown).

The fault costs are charged here, where they are taken: a GPU
replayable fault per page (ATS request, SMMU walk, OS service, replay),
a CPU anonymous fault per page plus the AutoNUMA hinting term
(:meth:`FaultHandler._cpu_fault_time`), and bulk PTE population outside
the fault path (:meth:`FaultHandler.prepopulate`). The counts go to
:class:`~repro.profiling.counters.HardwareCounters`, the one record of
hardware events.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiling.counters import HardwareCounters
from ..sim.config import FirstTouchPolicy, Location, Processor, SystemConfig
from .pagetable import Allocation
from .pageset import PageSet
from .physical import PhysicalMemory


@dataclass
class FaultOutcome:
    seconds: float = 0.0
    pages_on_gpu: int = 0
    pages_on_cpu: int = 0


class FaultHandler:
    """OS fault-path servicing for the system page table."""

    #: Where :meth:`prepopulate` places pages.
    prepopulate_location = Location.CPU

    def __init__(
        self,
        config: SystemConfig,
        physical: PhysicalMemory,
        counters: HardwareCounters,
    ):
        self.config = config
        self.physical = physical
        self.counters = counters

    def first_touch(
        self, alloc: Allocation, unmapped: PageSet, accessor: Processor
    ) -> FaultOutcome:
        """Service first-touch faults on ``unmapped`` pages of ``alloc``.

        Returns the serviced cost and where pages landed. GPU first-touch
        places on GPU memory while capacity lasts and spills to CPU memory
        afterwards (the balloon-induced oversubscription scenarios exercise
        the spill path). CPU pages that do not fit raise
        :class:`~repro.mem.physical.OutOfMemoryError` before any page,
        GPU or CPU, is mapped.
        """
        out = FaultOutcome()
        if not unmapped:
            return out
        page_size = self.config.system_page_size
        want_gpu = (
            accessor is Processor.GPU
            and self.config.first_touch_policy is FirstTouchPolicy.ACCESSOR
        )

        gpu_part = PageSet.empty()
        if want_gpu:
            fit_pages = self.physical.gpu.free // page_size
            gpu_part = unmapped.take_first(fit_pages)
        cpu_part = unmapped.difference(gpu_part)

        self.physical.place(
            alloc, (gpu_part, Location.GPU), (cpu_part, Location.CPU)
        )
        out.pages_on_gpu = gpu_part.count
        out.pages_on_cpu = cpu_part.count

        n = unmapped.count
        if accessor is Processor.GPU:
            # One SMMU replayable fault per page: ATS request, walk miss,
            # fault delivery to the OS, PTE creation, replay. The term that
            # makes 4 KB pages 16x dearer to GPU-initialise than 64 KB.
            out.seconds += n * self.config.gpu_replayable_fault_cost
            self.counters.bump(gpu_replayable_faults=n)
        else:
            out.seconds += self._cpu_fault_time(n)
            self.counters.bump(cpu_page_faults=n)

        # Anonymous pages are zeroed in the fault path (clear_page);
        # per-byte, page-size independent — the term that caps the paper's
        # Figure 9 init-phase page-size speedup at ~5x instead of 16x.
        out.seconds += (n * page_size) / self.config.fault_zeroing_bandwidth
        return out

    def _cpu_fault_time(self, n: int) -> float:
        """``n`` anonymous-page faults taken by CPU first-touch."""
        cost = n * self.config.cpu_fault_cost
        if self.config.autonuma_enable:
            # AutoNUMA hinting faults are why the tuning guide disables it
            # (Section 3 testbed configuration).
            cost += n * self.config.autonuma_hint_fault_cost
        return cost

    def prepopulate(self, alloc: Allocation, pages: PageSet) -> float:
        """Populate PTEs CPU-side outside the fault path
        (``cudaHostRegister`` or an artificial pre-init loop,
        Section 5.1.2). Pages land at :attr:`prepopulate_location`."""
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if not unmapped:
            return 0.0
        self.physical.place(alloc, (unmapped, self.prepopulate_location))
        nbytes = unmapped.count * self.config.system_page_size
        zero = nbytes / self.config.fault_zeroing_bandwidth
        return unmapped.count * self.config.bulk_pte_populate_cost + zero
