"""The top-level simulated Grace Hopper system.

:class:`GraceHopperSystem` wires the clock, memory subsystem, devices and
profiling together and exposes the programmer-facing allocation and
execution APIs of Table 1 — ``malloc``, ``cudaMallocManaged``,
``cudaMalloc``, ``cudaMallocHost``, ``numa_alloc_onnode`` — plus kernel
launches, explicit copies, synchronisation, and the optimisation calls
the paper studies (``cudaHostRegister``, ``cudaMemPrefetchAsync``,
migration-threshold tuning).

CUDA context semantics follow Section 4: the context is created by the
first CUDA API call. Explicit and managed application versions create it
during their allocation phase; pure system-memory versions do not call
any CUDA API before the first kernel launch, so the context cost slides
into the computation phase — an effect the paper observed and that the
Figure 3 harness reproduces.
"""

from __future__ import annotations

import numpy as np

from ..devices.cpu import CpuDevice
from ..devices.gpu import GpuDevice
from ..mem.pagetable import Allocation, AllocKind
from ..mem.pageset import PageSet
from ..mem.subsystem import MemorySubsystem
from ..profiling.counters import HardwareCounters
from ..sim.config import Processor, SystemConfig, check_migration_threshold
from ..sim.engine import SimClock
from .kernels import ArrayAccess, KernelExecutor, KernelRecord, PhaseRecord
from .unified_array import UnifiedArray


class GraceHopperSystem:
    """One simulated GH200 node."""

    def __init__(self, config: SystemConfig | None = None, *, chip: int = 0):
        self.config = config or SystemConfig()
        self.chip = chip  # superchip index on multi-superchip nodes
        self.clock = SimClock()
        self.counters = HardwareCounters()
        self.mem = MemorySubsystem(self.config, self.counters)
        if self.mem.sanitizer is not None:
            # InvariantViolations report this system's simulated time.
            self.mem.sanitizer.clock = self.clock
        from ..profiling.timeline import maybe_timeline

        #: Structured event timeline in *simulated* time (``None`` unless
        #: requested): the clock, memory subsystem and C2C link all emit
        #: into the same per-system timeline so sim/mem/fabric spans
        #: interleave on one time axis.
        self.timeline = maybe_timeline(
            self.config, lambda: self.clock.now, name=f"sim:chip{chip}"
        )
        if self.timeline is not None:
            self.clock.timeline = self.timeline
            self.mem.timeline = self.timeline
            self.mem.managed.timeline = self.timeline
            self.mem.link.timeline = self.timeline
        self.gpu = GpuDevice(self.config, chip)
        self.cpu = CpuDevice(self.config, chip)
        self.executor = KernelExecutor(
            self.config, self.clock, self.mem, self.gpu, self.cpu, self.counters
        )
        self._balloon: UnifiedArray | None = None

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    # -- context ----------------------------------------------------------------

    def _ensure_context(self) -> None:
        """Charge CUDA context creation on the first CUDA API call."""
        t = self.gpu.context_init_time()
        if t:
            self.clock.advance(t, activity="cuda-context-init")

    # -- allocation APIs (Table 1) -------------------------------------------------

    def _wrap(
        self, kind: AllocKind, dtype, shape, name: str, materialize: bool
    ) -> UnifiedArray:
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        alloc = self.mem.allocate(
            kind, max(nbytes, 1), name=name, materialize=materialize
        )
        return UnifiedArray(alloc, dtype, shape)

    def malloc(
        self, dtype, shape, *, name: str = "", materialize: bool = False
    ) -> UnifiedArray:
        """System-allocated memory (``malloc``): system page table only,
        first-touch placement, no CUDA context required."""
        arr = self._wrap(AllocKind.SYSTEM, dtype, shape, name, materialize)
        cost = self.config.malloc_call_cost
        if self.config.init_on_alloc:
            # CONFIG_INIT_ON_ALLOC zeroing at allocation time; the paper's
            # testbed turns this off (Section 3).
            cost += arr.alloc.nbytes / self.config.zeroing_bandwidth
        self.clock.advance(cost, activity="malloc")
        return arr

    def cuda_malloc_managed(
        self, dtype, shape, *, name: str = "", materialize: bool = False
    ) -> UnifiedArray:
        """CUDA managed memory (``cudaMallocManaged``)."""
        self._ensure_context()
        arr = self._wrap(AllocKind.MANAGED, dtype, shape, name, materialize)
        self.clock.advance(
            self.config.cuda_malloc_managed_call_cost, activity="cudaMallocManaged"
        )
        return arr

    def cuda_malloc(
        self, dtype, shape, *, name: str = "", materialize: bool = False
    ) -> UnifiedArray:
        """Device memory (``cudaMalloc``): GPU page table, GPU-resident."""
        self._ensure_context()
        arr = self._wrap(AllocKind.DEVICE, dtype, shape, name, materialize)
        n_gpu_pages = -(-arr.alloc.nbytes // self.config.gpu_page_size)
        cost = self.config.cuda_malloc_call_cost + self.mem.gmmu.create_ptes(
            n_gpu_pages
        )
        self.clock.advance(cost, activity="cudaMalloc")
        return arr

    def cuda_malloc_host(
        self, dtype, shape, *, name: str = "", materialize: bool = False
    ) -> UnifiedArray:
        """Pinned host memory (``cudaMallocHost``/``cudaHostAlloc``)."""
        self._ensure_context()
        arr = self._wrap(AllocKind.HOST_PINNED, dtype, shape, name, materialize)
        cost = (
            self.config.malloc_call_cost
            + arr.alloc.nbytes * self.config.cuda_host_alloc_cost_per_byte
        )
        self.clock.advance(cost, activity="cudaMallocHost")
        return arr

    def numa_alloc_onnode(
        self, dtype, shape, *, name: str = "", materialize: bool = False
    ) -> UnifiedArray:
        """CPU memory on an explicit NUMA node (``numa_alloc_onnode``)."""
        arr = self._wrap(AllocKind.NUMA_CPU, dtype, shape, name, materialize)
        self.clock.advance(self.config.malloc_call_cost, activity="numa_alloc")
        return arr

    def free(self, arr: UnifiedArray) -> float:
        """Free an allocation; returns the teardown time spent."""
        seconds = self.mem.free(arr.alloc)
        self.clock.advance(seconds, activity=f"free:{arr.name}")
        return seconds

    # -- explicit data movement ---------------------------------------------------------

    def memcpy_h2d(self, dst: UnifiedArray, src: UnifiedArray) -> float:
        return self._memcpy(dst, src, Processor.CPU, Processor.GPU)

    def memcpy_d2h(self, dst: UnifiedArray, src: UnifiedArray) -> float:
        return self._memcpy(dst, src, Processor.GPU, Processor.CPU)

    def _memcpy(
        self,
        dst: UnifiedArray,
        src: UnifiedArray,
        src_proc: Processor,
        dst_proc: Processor,
    ) -> float:
        self._ensure_context()
        nbytes = min(dst.nbytes, src.nbytes)
        host_side = src if src_proc is Processor.CPU else dst
        pinned = host_side.alloc.kind is AllocKind.HOST_PINNED
        # The host side of the copy faults in any untouched pages first
        # (a memcpy from a freshly-malloc'd source is dominated by faults).
        host_pages = PageSet.range(
            0, host_side.alloc.config.pages_for(nbytes)
        ).clip(host_side.alloc.n_pages)
        host_touch = self.mem.access(
            Processor.CPU,
            host_side.alloc,
            host_pages,
            _full_shape(host_side),
            write=(host_side is dst),
            now=self.clock.now,
        )
        t = host_touch.fault_seconds
        t += self.mem.copy_engine.memcpy(nbytes, src_proc, dst_proc, pinned=pinned)
        self.counters.bump(explicit_copy_bytes=nbytes)
        if dst.materialized and src.materialized:
            np.copyto(
                dst.np.reshape(-1)[: nbytes // dst.itemsize],
                src.np.reshape(-1)[: nbytes // src.itemsize].view(dst.dtype),
                casting="unsafe",
            )
        self.clock.advance(t, activity="cudaMemcpy")
        return t

    def device_synchronize(self) -> None:
        self._ensure_context()
        self.clock.advance(
            self.config.device_synchronize_cost, activity="cudaDeviceSynchronize"
        )

    # -- execution --------------------------------------------------------------------

    def launch_kernel(self, name: str, accesses, **kwargs) -> KernelRecord:
        return self.executor.launch(name, accesses, **kwargs)

    def cpu_phase(self, name: str, accesses=(), **kwargs) -> PhaseRecord:
        return self.executor.cpu_phase(name, accesses, **kwargs)

    # -- optimisations studied by the paper ------------------------------------------------

    def host_register(self, arr: UnifiedArray) -> float:
        """``cudaHostRegister``: pre-populate system PTEs (Section 5.1.2).

        Costs a CUDA API call on top of the per-page population work — the
        paper measured ~300 ms for srad; the artificial pre-init loop
        variant (:meth:`preinit_loop`) avoids the API overhead.
        """
        self._ensure_context()
        t = self.mem.host_register(arr.alloc) + self.config.cuda_memcpy_call_cost
        self.clock.advance(t, activity=f"cudaHostRegister:{arr.name}")
        return t

    def preinit_loop(self, arr: UnifiedArray) -> float:
        """Artificial CPU pre-initialisation loop touching one byte per
        page — same PTE pre-population effect as ``cudaHostRegister``
        without the CUDA API call (Section 5.1.2)."""
        t = self.mem.host_register(arr.alloc)
        self.clock.advance(t, activity=f"preinit:{arr.name}")
        return t

    def prefetch_to_gpu(self, arr: UnifiedArray, pages: PageSet | None = None) -> float:
        """``cudaMemPrefetchAsync`` toward the GPU (Section 2.3.2)."""
        self._ensure_context()
        t = self.mem.prefetch_async(arr.alloc, pages, now=self.clock.now)
        self.clock.advance(t, activity=f"prefetch:{arr.name}")
        return t

    def set_migration_threshold(self, threshold: int) -> None:
        """Tune the access-counter notification threshold (Section 2.2.1)."""
        check_migration_threshold(threshold)
        self.config.migration_threshold = threshold

    # -- oversubscription helpers (Section 3.2) ----------------------------------------------

    def install_balloon(self, nbytes: int) -> UnifiedArray:
        """Emulate oversubscription with an N-byte cudaMalloc allocation."""
        if self._balloon is not None:
            raise RuntimeError("balloon already installed")
        self._balloon = self.cuda_malloc(np.uint8, (max(nbytes, 1),), name="balloon")
        return self._balloon

    def remove_balloon(self) -> None:
        if self._balloon is not None:
            self.free(self._balloon)
            self._balloon = None

    def free_gpu_memory(self) -> int:
        return self.mem.physical.gpu_free_memory()

    def balloon_reference_free(self) -> int:
        """Free bytes of the GPU-sized reference tier oversubscription
        ratios (and balloon sizing) are quoted against. On GH200 this is
        literal HBM free space; unified-pool backends report the notional
        GPU-share so ratios stay comparable across architectures."""
        return self.mem.arch.oversubscription_reference_free(self.mem)

    def oversubscription_ratio(self, peak_bytes: int) -> float:
        """``R_oversub = M_peak / M_gpu`` per Section 3.2."""
        free = self.balloon_reference_free()
        if free <= 0:
            return float("inf")
        return peak_bytes / free


def _full_shape(arr: UnifiedArray):
    from ..mem.coherence import AccessShape

    return AccessShape(
        useful_bytes=arr.bytes_per_page(), element_bytes=arr.itemsize, density=1.0
    )
