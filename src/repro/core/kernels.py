"""Kernel launches and CPU phases over the simulated memory system.

A kernel launch is described by *access descriptors* — which pages of
which arrays it reads and writes, and with what per-page shape — plus a
floating-point workload. The executor:

1. services pending access-counter notifications (migrations land between
   launches, their stall charged to the overlapping epoch — Section 5.2);
2. charges lazy CUDA context initialisation to the first launch when no
   CUDA API has created the context yet (the system-memory behaviour the
   paper observes in Section 4);
3. feeds every access through the memory subsystem, composing the kernel
   duration from compute, HBM, remote-C2C, fault, and stall components;
4. optionally runs a real numpy ``compute`` callable so functional
   results stay verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..devices.cpu import CpuDevice
from ..devices.gpu import GpuDevice
from ..mem.coherence import AccessShape
from ..mem.pageset import PageSet
from ..mem.subsystem import AccessResult, MemorySubsystem
from ..profiling.counters import HardwareCounters
from ..sim.config import Processor, SystemConfig
from ..sim.engine import SimClock
from .unified_array import UnifiedArray


@dataclass(frozen=True)
class ArrayAccess:
    """One array's page touches within a kernel or CPU phase."""

    array: UnifiedArray
    pages: PageSet
    shape: AccessShape
    write: bool = False

    @staticmethod
    def read(
        array: UnifiedArray,
        pages: PageSet | None = None,
        *,
        fraction: float = 1.0,
        density: float = 1.0,
        element_bytes: int | None = None,
    ) -> "ArrayAccess":
        return ArrayAccess._make(array, pages, fraction, density, element_bytes, False)

    @staticmethod
    def write_(
        array: UnifiedArray,
        pages: PageSet | None = None,
        *,
        fraction: float = 1.0,
        density: float = 1.0,
        element_bytes: int | None = None,
    ) -> "ArrayAccess":
        return ArrayAccess._make(array, pages, fraction, density, element_bytes, True)

    @staticmethod
    def _make(array, pages, fraction, density, element_bytes, write):
        pages = array.all_pages() if pages is None else pages
        shape = AccessShape(
            useful_bytes=array.bytes_per_page(fraction),
            element_bytes=element_bytes or array.itemsize,
            density=density,
        )
        return ArrayAccess(array, pages, shape, write)


def _descriptors(accesses: Sequence[ArrayAccess]):
    """``(alloc, pages, shape, write)`` per access, as
    :meth:`MemorySubsystem.access_batch` takes them."""
    return ((a.array.alloc, a.pages, a.shape, a.write) for a in accesses)


@dataclass
class KernelRecord:
    """What one launch did, for tests and the benchmark harness."""

    name: str
    start: float
    duration: float
    result: AccessResult
    stall_seconds: float
    migrated_bytes: int
    context_init_seconds: float = 0.0


@dataclass
class PhaseRecord:
    name: str
    start: float
    duration: float
    result: AccessResult


class KernelExecutor:
    """Executes GPU kernels and CPU phases against the memory model."""

    def __init__(
        self,
        config: SystemConfig,
        clock: SimClock,
        mem: MemorySubsystem,
        gpu: GpuDevice,
        cpu: CpuDevice,
        counters: HardwareCounters,
    ):
        self.config = config
        self.clock = clock
        self.mem = mem
        self.gpu = gpu
        self.cpu = cpu
        self.counters = counters

    # -- GPU kernels ------------------------------------------------------------

    def launch(
        self,
        name: str,
        accesses: Sequence[ArrayAccess],
        *,
        flops: float = 0.0,
        reuse: float = 1.0,
        atomics: int = 0,
        compute: Callable[[], None] | None = None,
    ) -> KernelRecord:
        """Launch one GPU kernel; advances the simulated clock."""
        report = self.mem.begin_epoch()
        stall = report.stall_seconds
        migrated = report.bytes_migrated

        ctx_time = self.gpu.context_init_time()

        self.counters.begin_kernel(name, self.clock.now)
        total = self.mem.access_batch(
            Processor.GPU, _descriptors(accesses), now=self.clock.now
        )

        if compute is not None:
            compute()

        l1l2 = self.gpu.cache.feed(
            total.consumed_bytes,
            from_hbm=total.hbm_bytes,
            from_c2c=total.remote_bytes,
            reuse=reuse,
        )
        self.counters.bump(l1l2_bytes=l1l2)

        duration = self.gpu.kernel_time(
            flops=flops,
            hbm_bytes=total.hbm_bytes,
            remote_bytes_time=total.remote_seconds + total.transfer_seconds,
            fault_time=total.fault_seconds,
            stall_time=stall,
            atomics=atomics,
            l1l2_bytes=l1l2,
        )
        duration += ctx_time
        start = self.clock.now
        self.clock.advance(duration, activity=f"kernel:{name}")
        self.counters.end_kernel(self.clock.now)
        return KernelRecord(
            name=name,
            start=start,
            duration=duration,
            result=total,
            stall_seconds=stall,
            migrated_bytes=migrated,
            context_init_seconds=ctx_time,
        )

    # -- CPU phases ------------------------------------------------------------------

    def cpu_phase(
        self,
        name: str,
        accesses: Sequence[ArrayAccess] = (),
        *,
        threads: int = 1,
        fixed_time: float = 0.0,
        compute: Callable[[], None] | None = None,
    ) -> PhaseRecord:
        """Run a CPU-side phase (initialisation loops, reductions)."""
        total = self.mem.access_batch(
            Processor.CPU, _descriptors(accesses), now=self.clock.now
        )
        if compute is not None:
            compute()
        # Remote bytes are still consumed by the CPU threads at their own
        # processing rate (a single thread does not stream faster just
        # because the data is remote); the link time adds on top.
        duration = self.cpu.phase_time(
            bytes_processed=total.lpddr_bytes + total.remote_bytes,
            threads=threads,
            fault_time=total.fault_seconds,
            remote_time=total.remote_seconds + total.transfer_seconds,
            fixed_time=fixed_time,
        )
        start = self.clock.now
        self.clock.advance(duration, activity=f"cpu:{name}")
        return PhaseRecord(name=name, start=start, duration=duration, result=total)
