"""System configuration for the simulated Grace Hopper Superchip.

Every quantity the performance model consumes lives in :class:`SystemConfig`.
The defaults describe the testbed used in the paper (Section 3): a GH200
node with a 72-core Grace CPU (480 GB LPDDR5X), an H100 GPU (96 GB HBM3),
and the NVLink-C2C interconnect, running with AutoNUMA disabled,
``init_on_alloc=0``, and a page-migration notification threshold of 256.

Bandwidth defaults are the paper's *measured* values (Section 2.1), not the
theoretical peaks; the theoretical peaks are kept alongside so the
Section 2.1 microbenchmarks can report measured-vs-theoretical the same way
the paper does.

Latency/overhead defaults are calibrated so the simulator lands on the
paper's absolute anchors (e.g. the ~300 ms ``cudaHostRegister`` cost on
srad in Section 5.1.2, the ~2.9x 33-qubit page-size speedup in Figure 9).
They are deliberately exposed as plain dataclass fields: sensitivity
studies and ablations mutate a copy of the config rather than monkeypatch
the model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum, IntEnum

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

GB = 10**9
TB = 10**12

#: The two system page sizes supported by the Grace CPU (Section 2.1.3).
VALID_SYSTEM_PAGE_SIZES = (4 * KiB, 64 * KiB)

#: Fixed page size of the GPU-exclusive page table (Section 2.1.3).
GPU_PAGE_SIZE = 2 * MiB


class Processor(Enum):
    """The two processors of the superchip."""

    CPU = "cpu"
    GPU = "gpu"

    @property
    def other(self) -> "Processor":
        return Processor.GPU if self is Processor.CPU else Processor.CPU


class Location(IntEnum):
    """Physical residency of a page.

    Stored in per-allocation ``int8`` numpy arrays, so the enum values are
    small and stable.
    """

    UNMAPPED = 0
    CPU = 1
    GPU = 2
    #: Managed-memory page pinned CPU-side by the driver's oversubscription
    #: heuristic: accessed remotely over NVLink-C2C, no longer migrated on
    #: demand (Section 7, 34-qubit behaviour).
    CPU_PINNED = 3


class MemKind(Enum):
    """The two memory technologies a superchip contributes as NUMA nodes."""

    DDR = "ddr"  # Grace LPDDR5X
    HBM = "hbm"  # Hopper HBM3

    @property
    def processor(self) -> Processor:
        return Processor.CPU if self is MemKind.DDR else Processor.GPU


@dataclass(frozen=True)
class NodeId:
    """One memory node of a multi-superchip topology.

    Generalises the two-valued :class:`Location` residency to an
    arbitrary ``(superchip, memory-kind)`` pair: node ``(0, DDR)`` is the
    paper's NUMA node 0, node ``(0, HBM)`` its node 1, and chips > 0 only
    exist on multi-superchip topologies (quad-GH200-style nodes).
    """

    chip: int
    kind: "MemKind"

    @property
    def numa_index(self) -> int:
        """The OS NUMA node number (chips enumerate their DDR then HBM)."""
        return 2 * self.chip + (0 if self.kind is MemKind.DDR else 1)

    def __str__(self) -> str:
        return f"chip{self.chip}/{self.kind.value}"


class FirstTouchPolicy(Enum):
    """Placement policy for first-touch page faults (Section 2.2).

    ``ACCESSOR`` places the page on the faulting processor's memory (the
    documented Grace Hopper behaviour: GPU first-touch maps to GPU physical
    memory when capacity allows). ``CPU_ALWAYS`` models a conventional OS
    that can only satisfy SMMU faults from CPU memory; it is provided for
    ablation studies.
    """

    ACCESSOR = "accessor"
    CPU_ALWAYS = "cpu-always"


def check_migration_threshold(threshold: int) -> None:
    """Raise ``ValueError`` unless ``threshold`` fits the hardware's
    32-bit access-counter notification threshold (and is positive)."""
    if not 0 < threshold < 2**32:
        raise ValueError("migration_threshold must be a positive 32-bit value")


@dataclass
class SystemConfig:
    """All tunables of the simulated GH200 platform.

    The constructor arguments mirror the knobs the paper varies: the system
    page size (4 KB vs 64 KB), whether automatic access-counter migration
    is enabled, the migration notification threshold, and the capacity of
    the two memories (used, scaled down, to emulate oversubscription).
    """

    # ------------------------------------------------------------------
    # Capacities (Section 2.1)
    # ------------------------------------------------------------------
    cpu_memory_bytes: int = 480 * GiB
    gpu_memory_bytes: int = 96 * GiB
    #: nvidia-smi reports a ~600 MB driver-induced baseline (Section 3.2).
    gpu_driver_baseline_bytes: int = 600 * 10**6

    # ------------------------------------------------------------------
    # Memory architecture (pluggable backend; see repro.mem.arch)
    # ------------------------------------------------------------------
    #: Which memory-architecture backend the memory subsystem runs.
    #: ``"gh200"`` (default) is the paper's design point: split
    #: LPDDR5X/HBM3 pools, first-touch placement and access-counter
    #: delayed migration. ``"upm"`` is an MI300A-style unified physical
    #: memory (one pool, no migration, uniform fault economics; see
    #: PAPERS.md, arXiv 2508.12743). Backends register themselves in
    #: :mod:`repro.mem.arch`; an unknown name fails at subsystem build
    #: time with the registered list.
    mem_arch: str = "gh200"
    #: Uniform first-touch fault cost of the UPM backend. One physical
    #: pool means a GPU first-touch needs no cross-chip SMMU replay
    #: round-trip, so both engines pay an OS-fault-path-like per-page
    #: cost (calibrated to the CPU anonymous-fault cost).
    upm_fault_cost: float = 0.9e-6
    #: Host-device link bandwidth of the SVM (discrete-GPU) backend, in
    #: decimal GB/s per direction. The default models an effective PCIe
    #: 4.0 x16 link — an order of magnitude below NVLink-C2C, which is
    #: the design-point gap the SVM paper (arXiv 2405.06811) studies.
    svm_link_gbps: float = 25.0
    #: Per-page fault cost of the SVM backend. Discrete-GPU shared
    #: virtual memory has no hardware coherence path: every non-resident
    #: touch traps to the driver, round-trips over PCIe, and replays —
    #: far costlier than either the GH200 replayable fault or an OS
    #: anonymous fault.
    svm_fault_cost: float = 8e-6

    # ------------------------------------------------------------------
    # Bandwidths (Section 2.1; measured and theoretical)
    # ------------------------------------------------------------------
    hbm_bandwidth: float = 3.4 * TB
    hbm_theoretical_bandwidth: float = 4.0 * TB
    cpu_memory_bandwidth: float = 486 * GB
    cpu_theoretical_bandwidth: float = 500 * GB
    c2c_h2d_bandwidth: float = 375 * GB
    c2c_d2h_bandwidth: float = 297 * GB
    c2c_theoretical_bandwidth: float = 450 * GB

    #: Efficiency of cacheline-granularity *remote* access relative to the
    #: streaming C2C bandwidth. Fine-grained loads do not reach the DMA
    #: streaming rate; the paper's Figure 12 shows managed 4 KB remote
    #: access running at "a low bandwidth".
    remote_access_efficiency: float = 0.80
    #: Managed memory that has been pinned CPU-side by the oversubscription
    #: heuristic is accessed through the UVM remote mapping path, which the
    #: paper observes to be markedly slower than system-memory ATS access.
    #: With 64 KB system pages the per-access translation overhead drops
    #: and remote managed bandwidth improves (Figures 12/13 show ~58%
    #: faster migration/access at 64 KB).
    managed_remote_efficiency: float = 0.25
    managed_remote_efficiency_64k: float = 0.40
    #: CPU-side single-thread initialisation bandwidth (Rodinia init loops
    #: are single-threaded, Section 3.1).
    cpu_single_thread_bandwidth: float = 12 * GB

    # ------------------------------------------------------------------
    # Interconnect / access granularities (Section 2.1.1)
    # ------------------------------------------------------------------
    cacheline_bytes_cpu: int = 64
    cacheline_bytes_gpu: int = 128
    c2c_latency: float = 0.75e-6

    # ------------------------------------------------------------------
    # Multi-superchip fabric (beyond the paper; quad-GH200-style nodes
    # per Khalilov et al., see docs/model.md "Multi-superchip topology").
    # The defaults describe a single superchip — the paper's testbed —
    # so none of these fields affect any single-chip result.
    # ------------------------------------------------------------------
    #: Number of GH200 superchips on the node (1 = the paper's testbed).
    n_superchips: int = 1
    #: Per-direction bandwidth of one inter-superchip GPU-GPU NVLink
    #: fabric link (quad-GH200 nodes connect every GPU pair).
    nvlink_fabric_bandwidth: float = 150 * GB
    nvlink_fabric_latency: float = 2.0e-6
    #: Per-direction bandwidth of one inter-superchip CPU socket link
    #: (the Grace CPUs' coherent CPU-to-CPU path).
    cpu_socket_bandwidth: float = 100 * GB
    cpu_socket_latency: float = 1.3e-6

    # ------------------------------------------------------------------
    # Page tables and translation (Sections 2.1.2, 2.1.3)
    # ------------------------------------------------------------------
    system_page_size: int = 4 * KiB
    gpu_page_size: int = GPU_PAGE_SIZE

    #: OS fault-path cost for a CPU first-touch (anonymous page fault,
    #: PTE creation, return to user space).
    cpu_fault_cost: float = 0.9e-6
    #: Fault-path cost for a GPU first-touch on system-allocated memory:
    #: ATS-TBU translation request, SMMU page-table walk, SMMU fault,
    #: OS handling, replay (Section 2.2). Together with
    #: :attr:`fault_zeroing_bandwidth` this drives the paper's Figure 9
    #: system-memory initialisation phase (the per-page term scales 16x
    #: between 4 KB and 64 KB pages; the zeroing term does not, which is
    #: why the measured init ratio is ~5x rather than 16x).
    gpu_replayable_fault_cost: float = 2.0e-6
    #: Anonymous pages are zeroed in the OS fault path (clear_page);
    #: page-size independent per byte.
    fault_zeroing_bandwidth: float = 8 * GB
    #: Cost of a GMMU far-fault group on managed memory (fault delivered to
    #: the driver on the CPU; literature reports ~20-45 us per batch).
    managed_farfault_cost: float = 25e-6
    #: Creating a 2 MB GPU page-table entry when managed memory is
    #: first-touched on the GPU (no OS round-trip; driver-managed).
    gpu_pte_create_cost: float = 1.5e-6
    #: Bulk (non-fault-path) population of one system PTE, as performed by
    #: ``cudaHostRegister`` or an artificial pre-init loop (Section 5.1.2).
    bulk_pte_populate_cost: float = 0.25e-6
    #: Tearing down one system PTE at munmap/free time (unmap, page free).
    pte_teardown_cost: float = 0.20e-6
    #: Above this many pages in one allocation, per-page teardown leaves
    #: the cache-friendly regime (struct-page traffic misses the LLC) and
    #: costs :attr:`pte_teardown_cost_thrashed`. This is what pushes the
    #: paper's Figure 6 dealloc ratios beyond the naive 16x page-count
    #: ratio for the largest allocations (up to 38x).
    pte_teardown_knee_pages: int = 1 << 18
    pte_teardown_cost_thrashed: float = 0.48e-6
    #: TLB shootdown / ATS invalidation broadcast per unmapped or migrated
    #: range (per operation, not per page).
    tlb_shootdown_cost: float = 2.0e-6

    # ------------------------------------------------------------------
    # Automatic access-counter migration, system memory (Section 2.2.1)
    # ------------------------------------------------------------------
    migration_enable: bool = True
    #: Access-counter notification threshold (driver default 256).
    migration_threshold: int = 256
    #: Maximum bytes the driver migrates per notification-servicing window
    #: (one kernel epoch in the model). The driver rate-limits migrations;
    #: this cap is what spreads the SRAD working-set migration over
    #: iterations 2-4 in Figure 10.
    migration_epoch_budget_bytes: int = 256 * MiB
    #: Fraction of C2C bandwidth available for background migration.
    migration_bandwidth_fraction: float = 0.6
    #: Relative compute-stall penalty per migrated byte: accesses to pages
    #: being migrated block until the move completes — the "temporary
    #: latency increase" of Section 5.2. Expressed as a multiple of the
    #: bytes' streaming C2C transfer time.
    migration_stall_factor: float = 2.4
    #: Per-migrated-range fixed cost (notification interrupt handling plus
    #: unmap/remap and invalidations).
    migration_range_cost: float = 8e-6

    # ------------------------------------------------------------------
    # CUDA managed memory (Section 2.3)
    # ------------------------------------------------------------------
    #: Effective migration granularity on GPU far-faults once the tree
    #: prefetcher has warmed up (64 KB basic blocks grow to 2 MB).
    managed_migration_granularity: int = 2 * MiB
    #: Headroom (bytes) the driver keeps free in GPU memory before
    #: triggering eviction of managed pages.
    managed_eviction_headroom_bytes: int = 64 * MiB
    #: D2H eviction efficiency (evictions are semi-synchronous writebacks).
    eviction_bandwidth_fraction: float = 0.8
    #: Eviction-cycle traffic amplification per system-page-size unit:
    #: when the evict+migrate-back cycle runs at larger system pages,
    #: still-needed data is evicted and re-migrated more often. The
    #: effective traffic multiplier is
    #: ``1 + ratio * (system_page_size / 4 KiB)``, calibrated to the
    #: paper's ~3x slower 30-qubit managed compute at 64 KB (Figure 13).
    managed_eviction_thrash_per_page_ratio: float = 1.2

    # ------------------------------------------------------------------
    # API call overheads (drive the Figure 3 / Figure 6 alloc phases)
    # ------------------------------------------------------------------
    malloc_call_cost: float = 2.0e-6
    cuda_malloc_managed_call_cost: float = 90e-6
    cuda_malloc_call_cost: float = 60e-6
    cuda_free_call_cost: float = 110e-6
    #: Pinning host memory proceeds at ~30 GB/s (page pinning + IOMMU map).
    cuda_host_alloc_cost_per_byte: float = 3.0e-11
    cuda_memcpy_call_cost: float = 8.0e-6
    #: Staging penalty for cudaMemcpy from pageable host memory (the copy
    #: bounces through a pinned staging buffer).
    pageable_copy_efficiency: float = 0.65
    kernel_launch_cost: float = 6.0e-6
    device_synchronize_cost: float = 4.0e-6
    #: One-time CUDA context initialisation. In explicit/managed versions
    #: this is paid by the first cudaMalloc*; in the system-memory version
    #: it slides into the first kernel launch (Section 4).
    context_init_cost: float = 0.35

    # ------------------------------------------------------------------
    # GPU compute model
    # ------------------------------------------------------------------
    gpu_flops: float = 60e12
    #: L2-to-L1 bandwidth ceiling used for the Figure 12 throughput view.
    l1l2_bandwidth: float = 7.0 * TB
    gpu_atomic_cost: float = 0.5e-9

    # ------------------------------------------------------------------
    # OS / policy switches (Section 3 testbed configuration)
    # ------------------------------------------------------------------
    first_touch_policy: FirstTouchPolicy = FirstTouchPolicy.ACCESSOR
    autonuma_enable: bool = False
    #: Extra per-page cost when AutoNUMA balancing is left on (the tuning
    #: guide disables it because its hinting faults hurt GPU-heavy apps).
    autonuma_hint_fault_cost: float = 1.2e-6
    #: CONFIG_INIT_ON_ALLOC_DEFAULT_ON / init_on_alloc=1 adds *allocation
    #: time* zeroing on top of the unavoidable fault-path zeroing; the
    #: paper's testbed disables it (Section 3).
    init_on_alloc: bool = False
    zeroing_bandwidth: float = 40 * GB

    # ------------------------------------------------------------------
    # Verification (repro.check)
    # ------------------------------------------------------------------
    #: Enable the memory-model invariant sanitizer
    #: (:class:`repro.check.MemSanitizer`): every allocate/free/epoch runs
    #: a full conservation sweep and every access batch a targeted one,
    #: raising :class:`repro.check.InvariantViolation` on the first break.
    #: The ``REPRO_SANITIZE=1`` environment variable enables it globally
    #: without touching configs. Costly; off by default.
    sanitize: bool = False

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    profiler_sample_period: float = 0.100

    #: Enable this system's structured event timeline
    #: (:class:`repro.profiling.Timeline`): finished spans and instants
    #: from the sim engine, memory subsystem and fabric, exportable to
    #: Chrome/Perfetto trace JSON. An active
    #: :class:`repro.profiling.TimelineSession` (which ``repro-bench
    #: trace`` uses) enables it for every system built inside it without
    #: touching configs. Purely observational — never perturbs simulated
    #: results. Off by default.
    timeline: bool = False

    def __post_init__(self) -> None:
        self.validate()

    # -- helpers --------------------------------------------------------

    def validate(self) -> None:
        if self.system_page_size not in VALID_SYSTEM_PAGE_SIZES:
            raise ValueError(
                f"system_page_size must be one of {VALID_SYSTEM_PAGE_SIZES}, "
                f"got {self.system_page_size}"
            )
        if self.gpu_page_size <= 0 or self.gpu_page_size % self.system_page_size:
            raise ValueError(
                "gpu_page_size must be a positive multiple of system_page_size"
            )
        check_migration_threshold(self.migration_threshold)
        for name in (
            "hbm_bandwidth",
            "cpu_memory_bandwidth",
            "c2c_h2d_bandwidth",
            "c2c_d2h_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.cpu_memory_bytes <= 0 or self.gpu_memory_bytes <= 0:
            raise ValueError("memory capacities must be positive")
        if not self.mem_arch or not isinstance(self.mem_arch, str):
            raise ValueError("mem_arch must be a non-empty backend name")
        if self.upm_fault_cost <= 0:
            raise ValueError("upm_fault_cost must be positive")
        if self.svm_link_gbps <= 0:
            raise ValueError("svm_link_gbps must be positive")
        if self.svm_fault_cost <= 0:
            raise ValueError("svm_fault_cost must be positive")
        if self.n_superchips < 1:
            raise ValueError("n_superchips must be at least 1")
        for name in ("nvlink_fabric_bandwidth", "cpu_socket_bandwidth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def copy(self, **overrides) -> "SystemConfig":
        """Return a copy with ``overrides`` applied (and re-validated)."""
        return dataclasses.replace(self, **overrides)

    @property
    def pages_per_gpu_page(self) -> int:
        return self.gpu_page_size // self.system_page_size

    def pages_for(self, nbytes: int) -> int:
        """Number of system pages backing an allocation of ``nbytes``."""
        return -(-int(nbytes) // self.system_page_size)

    def c2c_bandwidth(self, src: Processor, dst: Processor) -> float:
        """Directional C2C streaming bandwidth (H2D vs D2H asymmetry)."""
        if src is Processor.CPU and dst is Processor.GPU:
            return self.c2c_h2d_bandwidth
        if src is Processor.GPU and dst is Processor.CPU:
            return self.c2c_d2h_bandwidth
        raise ValueError("c2c_bandwidth requires distinct endpoints")

    def local_bandwidth(self, processor: Processor) -> float:
        return (
            self.hbm_bandwidth
            if processor is Processor.GPU
            else self.cpu_memory_bandwidth
        )

    def managed_remote_eff(self) -> float:
        """Remote-mapping efficiency for managed memory at the current
        system page size (interpolated between the calibrated 4 KB and
        64 KB anchors)."""
        lo, hi = VALID_SYSTEM_PAGE_SIZES
        if self.system_page_size <= lo:
            return self.managed_remote_efficiency
        if self.system_page_size >= hi:
            return self.managed_remote_efficiency_64k
        frac = (self.system_page_size - lo) / (hi - lo)
        return self.managed_remote_efficiency + frac * (
            self.managed_remote_efficiency_64k - self.managed_remote_efficiency
        )

    def svm_link_bandwidth(self) -> float:
        """SVM host-device link bandwidth in bytes/second."""
        return self.svm_link_gbps * GB

    def svm_transfer_time(self, nbytes: int) -> float:
        """Page-granularity transfer time over the SVM link.

        Shared by the production backend and the differential-replay
        reference executor so both sides evaluate the identical float
        expression (the replay gate asserts exact equality).
        """
        if nbytes <= 0:
            return 0.0
        return nbytes / self.svm_link_bandwidth() + self.c2c_latency

    def tlb_shootdown_time(self, n_pages):
        """One TLB or ATS-TBU invalidation of ``n_pages`` entries: a
        per-operation broadcast (Arm DVM over C2C for the ATS-TBU) plus a
        small per-page term. Elementwise over an array of page counts,
        one operation per entry."""
        return self.tlb_shootdown_cost + n_pages * 1e-9

    def eviction_thrash_factor(self) -> float:
        """Traffic amplification of managed evict+migrate-back cycles at
        the current system page size (see
        :attr:`managed_eviction_thrash_per_page_ratio`)."""
        return 1.0 + self.managed_eviction_thrash_per_page_ratio * (
            self.system_page_size / (4 * KiB)
        )

    def cacheline_bytes(self, processor: Processor) -> int:
        return (
            self.cacheline_bytes_gpu
            if processor is Processor.GPU
            else self.cacheline_bytes_cpu
        )

    # -- presets ---------------------------------------------------------

    @classmethod
    def paper_gh200(cls, *, page_size: int = 4 * KiB, **overrides) -> "SystemConfig":
        """The paper's testbed (Section 3) at a given system page size."""
        return cls(system_page_size=page_size, **overrides)

    @classmethod
    def multi_superchip(
        cls,
        n_superchips: int,
        *,
        scale: float = 1.0,
        page_size: int = 4 * KiB,
        **overrides,
    ) -> "SystemConfig":
        """An N-superchip node of paper-testbed GH200 chips.

        Capacities and bandwidths here are *per superchip*; the node-level
        aggregates come from :class:`repro.topology.Topology`. ``scale``
        shrinks each chip the same way :meth:`scaled` does.
        """
        if n_superchips < 1:
            raise ValueError("n_superchips must be at least 1")
        overrides["n_superchips"] = n_superchips
        if scale == 1.0:
            return cls.paper_gh200(page_size=page_size, **overrides)
        return cls.scaled(scale, page_size=page_size, **overrides)

    @classmethod
    def scaled(
        cls, factor: float, *, page_size: int = 4 * KiB, **overrides
    ) -> "SystemConfig":
        """A capacity-scaled testbed.

        Scaling both memory capacities by ``factor`` while running
        proportionally scaled problem sizes preserves every oversubscription
        ratio ``R_oversub = M_peak / M_gpu`` the paper reports, which is all
        the oversubscription experiments depend on.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        base = cls(system_page_size=page_size, **overrides)
        return base.copy(
            cpu_memory_bytes=max(int(base.cpu_memory_bytes * factor), 1 * MiB),
            gpu_memory_bytes=max(int(base.gpu_memory_bytes * factor), 1 * MiB),
            gpu_driver_baseline_bytes=int(base.gpu_driver_baseline_bytes * factor),
            migration_epoch_budget_bytes=max(
                int(base.migration_epoch_budget_bytes * factor), 64 * KiB
            ),
        )
