"""First-touch page-fault handling for system-allocated memory.

Section 2.2: ``malloc`` creates PTEs lazily; the first access to each
virtual page faults, and the OS places the page on the faulting
processor's memory node (first-touch policy). On Grace Hopper a GPU
first-touch arrives as an SMMU replayable fault — triggered on the GPU,
*handled on the CPU* — whose per-page service cost dominates GPU-side
initialisation of system memory (Sections 5.1.2 and the Figure 9
breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiling.counters import HardwareCounters
from ..sim.config import FirstTouchPolicy, Location, Processor, SystemConfig
from .pagetable import Allocation
from .pageset import PageSet
from .physical import OutOfMemoryError, PhysicalMemory
from .smmu import Smmu


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
        smmu: Smmu,
        counters: HardwareCounters,
    ):
        self.config = config
        self.physical = physical
        self.smmu = smmu
        self.counters = counters
        #: Fabric port of the owning superchip when part of a
        #: :class:`~repro.topology.ShardedSystem` (duck-typed; ``None`` on
        #: the default single-superchip system, which keeps the original
        #: fail-on-CPU-exhaustion behaviour).
        self.fabric_port = None

    def first_touch(
        self, alloc: Allocation, unmapped: PageSet, accessor: Processor
    ) -> FaultOutcome:
        """Service first-touch faults on ``unmapped`` pages of ``alloc``.

        Returns the serviced cost and where pages landed. GPU first-touch
        places on GPU memory while capacity lasts and spills to CPU memory
        afterwards (the balloon-induced oversubscription scenarios exercise
        the spill path).
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

        if gpu_part:
            nbytes = gpu_part.count * page_size
            alloc.set_location(gpu_part, Location.GPU)
            self.physical.gpu.reserve(nbytes, tag=alloc.tag)
            out.pages_on_gpu = gpu_part.count
        if cpu_part:
            spill_part = PageSet.empty()
            if (
                self.fabric_port is not None
                and cpu_part.count * page_size > self.physical.cpu.free
            ):
                # On a multi-superchip node the OS spills first-touch
                # placement to a peer chip's DDR instead of failing.
                local_fit = cpu_part.take_first(self.physical.cpu.free // page_size)
                spill_part = cpu_part.difference(local_fit)
                cpu_part = local_fit
            if cpu_part:
                nbytes = cpu_part.count * page_size
                alloc.set_location(cpu_part, Location.CPU)
                self.physical.cpu.reserve(nbytes, tag=alloc.tag)
                out.pages_on_cpu = cpu_part.count
            if spill_part:
                out.pages_on_cpu += self._spill_to_peers(alloc, spill_part)

        n = unmapped.count
        if accessor is Processor.GPU:
            out.seconds += self.smmu.gpu_first_touch_fault(n)
            self.counters.bump(gpu_replayable_faults=n)
        else:
            out.seconds += self.smmu.cpu_first_touch_fault(n)
            self.counters.bump(cpu_page_faults=n)

        # Anonymous pages are zeroed in the fault path (clear_page);
        # per-byte, page-size independent — the term that caps the paper's
        # Figure 9 init-phase page-size speedup at ~5x instead of 16x.
        out.seconds += (n * page_size) / self.config.fault_zeroing_bandwidth
        return out

    def _spill_to_peers(self, alloc: Allocation, pages: PageSet) -> int:
        """Place ``pages`` on peer superchips' DDR (nearest first)."""
        page_size = self.config.system_page_size
        placed = 0
        for node in self.fabric_port.peer_ddr_nodes():
            if not pages:
                break
            pool = self.fabric_port.pool(node)
            take = pages.take_first(pool.free // page_size)
            if not take:
                continue
            nbytes = take.count * page_size
            alloc.set_location(take, Location.REMOTE)
            alloc.add_remote(node, take.count)
            pool.reserve(nbytes, tag=alloc.tag)
            self.counters.bump(pages_spilled_remote=take.count)
            placed += take.count
            pages = pages.difference(take)
        if pages:
            raise OutOfMemoryError(
                f"{alloc.name}: first-touch spill exhausted every chip's DDR"
            )
        return placed

    def prepopulate(self, alloc: Allocation, pages: PageSet) -> float:
        """Populate PTEs CPU-side outside the fault path
        (``cudaHostRegister`` or an artificial pre-init loop,
        Section 5.1.2). Pages land at :attr:`prepopulate_location`."""
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if not unmapped:
            return 0.0
        loc = self.prepopulate_location
        nbytes = unmapped.count * self.config.system_page_size
        alloc.set_location(unmapped, loc)
        self.physical.pool(loc).reserve(nbytes, tag=alloc.tag)
        zero = nbytes / self.config.fault_zeroing_bandwidth
        return self.smmu.bulk_populate(unmapped.count) + zero
