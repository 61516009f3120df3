"""CUDA managed memory: on-demand migration, eviction, remote pinning.

Section 2.3: ``cudaMallocManaged`` provides a single VA range backed by
*two* page tables. GPU-resident parts live in the GPU-exclusive table at
2 MB granularity; CPU-resident parts live in the system page table at the
system page size. The behaviours modelled here, each anchored to a paper
observation:

* **GPU first-touch** maps pages directly into GPU memory through the GPU
  page table — cheap, no OS round trip — which is why managed memory wins
  for GPU-initialised applications (Section 5.1.2). When GPU memory is
  full, first-touch *evicts* least-recently-used managed blocks (the
  init-phase eviction observed for the 34-qubit run in Section 7).
* **GPU access to CPU-resident pages** raises GMMU far-faults; the driver
  migrates data in 2 MB fault batches (``managed_migration_granularity``),
  evicting LRU blocks when necessary. Larger system pages amplify evict/
  migrate-back traffic (Figure 13's 3x slower 64 KB compute at 30 qubits).
* **Natural oversubscription** (one allocation larger than GPU memory):
  after the initial fill-and-evict, the driver stops migrating and leaves
  CPU-resident pages *remote-mapped*, accessed over NVLink-C2C at a low
  effective bandwidth (Figure 12) until an explicit prefetch moves them.
* **CPU access to GPU-resident pages** migrates the touched blocks back
  ("a similar page retrieval process", Section 2.3.1) — the page
  thrashing hazard Section 6 contrasts with system memory's remote reads.

The GMMU and GPU-TLB costs are charged where they are taken: a far-fault
per 2 MB batch (:meth:`ManagedMemoryManager._far_fault_time`), a 2 MB GPU
PTE per block mapped on first touch, and a GPU TLB shootdown per evicted
or retrieved range (:meth:`~repro.sim.config.SystemConfig.tlb_shootdown_time`).
Their counts go to :class:`~repro.profiling.counters.HardwareCounters`.
"""

from __future__ import annotations

import numpy as np

from ..interconnect.nvlink import NvlinkC2C
from ..profiling.counters import HardwareCounters
from ..sim.config import Location, Processor, SystemConfig
from .coherence import AccessShape, remote_traffic
from .pagetable import Allocation, AllocKind
from .pageset import PageSet
from .physical import PhysicalMemory
from .subsystem import AccessResult


class ManagedMemoryManager:
    """Driver logic for all ``cudaMallocManaged`` allocations."""

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
        #: Optional structured event timeline (wired by the runtime).
        self.timeline = None
        #: All live managed allocations, for cross-allocation LRU eviction.
        self.allocations: dict[int, Allocation] = {}

    def register(self, alloc: Allocation) -> None:
        assert alloc.kind is AllocKind.MANAGED
        self.allocations[alloc.aid] = alloc

    def unregister(self, alloc: Allocation) -> None:
        self.allocations.pop(alloc.aid, None)

    # -- helpers ------------------------------------------------------------

    def _page_bytes(self, n_pages: int) -> int:
        return n_pages * self.config.system_page_size

    def _naturally_oversubscribed(self, alloc: Allocation) -> bool:
        return alloc.nbytes > self.physical.gpu.capacity - (
            self.config.gpu_driver_baseline_bytes
        )

    def _headroom(self) -> int:
        return self.config.managed_eviction_headroom_bytes

    def _far_fault_time(self, n_batches: int) -> float:
        """Service ``n_batches`` GMMU far-fault batches. The driver
        coalesces faults per 2 MB VA block; each batch costs a fault
        delivery, driver scheduling and replay."""
        return n_batches * self.config.managed_farfault_cost

    # -- eviction ---------------------------------------------------------------

    def evict_bytes(self, needed: int, now: float) -> tuple[int, float]:
        """Evict LRU managed blocks until ``needed`` bytes are free.

        Returns ``(bytes_evicted, seconds)``. Eviction writes dirty blocks
        back over the D2H direction at a reduced streaming rate.
        """
        if needed <= self.physical.gpu.free:
            return 0, 0.0
        target = needed - self.physical.gpu.free
        allocs = [a for a in self.allocations.values() if a.pages_at(Location.GPU)]
        if not allocs:
            return 0, 0.0
        # LRU order is last touch time, then position among ``allocs``,
        # then block index; eviction takes GPU-resident blocks in that
        # order while the running total is still short of the target.
        records = [a.touch_runs() for a in allocs]
        if all(records):
            counts, victims = self._lru_prefix(allocs, records, target)
        else:
            counts, victims = self._lru_prefix_dense(allocs, target)
        # Each block is one write-back plus one TLB shootdown, charged as
        # a batch in global LRU order. Per-block costs use the per-call
        # expressions elementwise, and every float sum is a left fold
        # (np.add.accumulate), so ``seconds`` and the link's ledgers are
        # bit-identical to charging the blocks one call at a time. The
        # first candidate always counts toward the target, so at least
        # one block is taken.
        nbytes_each = counts * self.config.system_page_size
        freed = int(nbytes_each.sum())
        t = self.link.streaming_times(nbytes_each, Processor.GPU, Processor.CPU)
        steps = np.empty(2 * counts.size)
        steps[0::2] = t / self.config.eviction_bandwidth_fraction
        steps[1::2] = self.config.tlb_shootdown_time(counts)  # GPU TLB
        seconds = float(np.add.accumulate(steps)[-1])
        for ai in sorted(victims):
            alloc = allocs[ai]
            blocks, n_blocks = victims[ai]
            gpu_pages = alloc.subset(blocks, Location.GPU)
            nbytes = self.physical.move(alloc, gpu_pages, Location.CPU)
            self.counters.bump(
                eviction_bytes=nbytes,
                migration_d2h_bytes=nbytes,
                pages_evicted=gpu_pages.count,
                pages_migrated_d2h=gpu_pages.count,
                tlb_shootdowns=n_blocks,
            )
        if self.timeline is not None and freed:
            self.timeline.complete(
                "evict-batch", now, seconds, cat="mem", track="mem/eviction",
                bytes=freed,
            )
        return freed, seconds

    def _lru_prefix(
        self, allocs: list[Allocation], records: list[tuple], target: int
    ) -> tuple[np.ndarray, dict]:
        """The LRU prefix read from the touch records: the GPU page counts
        of the selected blocks in eviction order, and per position in
        ``allocs`` the pages of its selected blocks and their number.

        The touch runs of every candidate, sorted by ``(time, position,
        block_lo)``, list the blocks in LRU order (times are finite, so
        this is the order a stable argsort by touch time gives). Each
        run's GPU-resident blocks come from the residency run record
        (:meth:`Allocation.gpu_block_spans`), and their counts are read
        only as far as the remaining bytes require, so a call costs
        O(runs + selected blocks).
        """
        page = self.config.system_page_size
        chunks: list = []
        spans: dict = {}
        taken = 0
        touch_runs = sorted(
            (at, ai, lo, hi)
            for ai, record in enumerate(records)
            for lo, hi, at in record
        )
        for _, ai, first, stop in touch_runs:
            alloc = allocs[ai]
            block_bytes = alloc.block_pages * page
            for lo, hi in alloc.gpu_block_spans(first, stop):
                n = 0
                while lo < hi and taken < target:
                    # At least the blocks the remainder needs if full,
                    # doubling when partial blocks leave it short.
                    n = min(hi - lo, max(-(-(target - taken) // block_bytes), 2 * n))
                    counts = alloc._gpu_block_counts[lo : lo + n]
                    cum = np.cumsum(counts) * page
                    # Every block whose preceding total is short of the
                    # target: up to the first that reaches it.
                    k = min(int(np.searchsorted(cum, target - taken)) + 1, n)
                    chunks.append(counts[:k])
                    spans.setdefault(ai, []).append((lo, lo + k))
                    taken += int(cum[k - 1])
                    lo += k
            if taken >= target:
                break
        victims = {}
        for ai, selected in spans.items():
            alloc = allocs[ai]
            bp, n_pages = alloc.block_pages, alloc.n_pages
            victims[ai] = (
                PageSet.from_runs(
                    (lo * bp, min(hi * bp, n_pages)) for lo, hi in selected
                ),
                sum(hi - lo for lo, hi in selected),
            )
        # Concatenating copies the counts before the moves change them.
        return np.concatenate(chunks), victims

    def _lru_prefix_dense(
        self, allocs: list[Allocation], target: int
    ) -> tuple[np.ndarray, dict]:
        """:meth:`_lru_prefix` when a candidate's touch history is
        fragmented past the touch record's cap: every GPU-resident block
        is concatenated and sorted once by touch time. The sort is stable,
        so ties keep allocation order, then block order."""
        per_alloc_blocks = [np.flatnonzero(a._gpu_block_counts) for a in allocs]
        blocks = np.concatenate(per_alloc_blocks)
        touch = np.concatenate(
            [a.block_last_touch[b] for a, b in zip(allocs, per_alloc_blocks)]
        )
        counts = np.concatenate(
            [a._gpu_block_counts[b] for a, b in zip(allocs, per_alloc_blocks)]
        )
        owner = np.repeat(
            np.arange(len(allocs)), [b.size for b in per_alloc_blocks]
        )
        order = np.argsort(touch, kind="stable")
        blocks, counts, owner = blocks[order], counts[order], owner[order]
        # Every candidate frees > 0 bytes, so the selection is the
        # shortest prefix whose cumulative bytes reach the target.
        nbytes_each = counts * self.config.system_page_size
        cum = np.cumsum(nbytes_each)
        n_sel = int(np.count_nonzero(cum - nbytes_each < target))
        blocks, owner = blocks[:n_sel], owner[:n_sel]
        victims = {}
        for ai in np.flatnonzero(np.bincount(owner, minlength=len(allocs))):
            sel = blocks[owner == ai]
            victims[int(ai)] = (allocs[ai].block_pageset(sel), int(sel.size))
        return counts[:n_sel], victims

    # -- GPU access path -----------------------------------------------------------

    def gpu_access(
        self,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        *,
        write: bool,
        now: float,
    ) -> AccessResult:
        out = AccessResult()
        counts = alloc.split_counts(pages)
        alloc.touch_blocks(pages, now)

        # 1. Already GPU-resident: local HBM traffic.
        n_gpu = int(counts[Location.GPU])
        if n_gpu:
            out.hbm_bytes += shape.useful_bytes * n_gpu

        # 2. First touch (unmapped): map directly on the GPU, evicting LRU
        #    blocks if needed; spill CPU-side when nothing is evictable.
        n_unmapped = int(counts[Location.UNMAPPED])
        if n_unmapped:
            self._gpu_first_touch(
                alloc, alloc.subset(pages, Location.UNMAPPED), shape, out, now
            )

        # 3. CPU-resident: on-demand migration — unless the allocation is
        #    remote-pinned by the oversubscription heuristic.
        n_cpu = int(counts[Location.CPU])
        if n_cpu:
            cpu_pages = alloc.subset(pages, Location.CPU)
            if alloc.oversubscription_pinned:
                self._remote_access(cpu_pages, shape, out)
            else:
                self._on_demand_migrate(alloc, cpu_pages, shape, out, now)

        # 4. Remote-pinned pages are always accessed over NVLink-C2C.
        n_pinned = int(counts[Location.CPU_PINNED])
        if n_pinned:
            self._remote_access(
                alloc.subset(pages, Location.CPU_PINNED), shape, out
            )

        self.counters.traffic("hbm", out.hbm_bytes, write)
        self.counters.traffic("c2c", out.remote_bytes, write)
        return out

    def _gpu_first_touch(
        self,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        out: AccessResult,
        now: float,
    ) -> None:
        pages = alloc.subset(pages.align_down(alloc.block_pages).clip(alloc.n_pages),
                             Location.UNMAPPED)
        nbytes = self._page_bytes(pages.count)
        if nbytes == 0:
            return
        _, evict_t = self.evict_bytes(nbytes + self._headroom(), now)
        out.fault_seconds += evict_t
        fit_pages = max(self.physical.gpu.free - self._headroom(), 0) // (
            self.config.system_page_size
        )
        gpu_part = pages.take_first(fit_pages)
        cpu_part = pages.difference(gpu_part)
        if gpu_part:
            got = self._page_bytes(gpu_part.count)
            alloc.set_location(gpu_part, Location.GPU)
            self.physical.gpu.reserve(got, tag=alloc.tag)
            n_blocks = len(gpu_part.blocks(alloc.block_pages))
            # One 2 MB GPU PTE per block: driver-side, no OS round trip.
            out.fault_seconds += n_blocks * self.config.gpu_pte_create_cost
            out.hbm_bytes += shape.useful_bytes * gpu_part.count
        if cpu_part:
            # Nothing evictable: spill to CPU memory. For naturally
            # oversubscribed allocations the driver remote-maps the spill.
            spill = self._page_bytes(cpu_part.count)
            loc = (
                Location.CPU_PINNED
                if self._naturally_oversubscribed(alloc)
                else Location.CPU
            )
            alloc.set_location(cpu_part, loc)
            self.physical.cpu.reserve(spill, tag=alloc.tag)
            out.fault_seconds += self._far_fault_time(
                len(cpu_part.blocks(alloc.block_pages))
            )
            out.remote_seconds += self.link.remote_access_time(
                shape.useful_bytes * cpu_part.count,
                Processor.GPU,
                efficiency=self.config.managed_remote_eff(),
            )
            out.remote_bytes += shape.useful_bytes * cpu_part.count

    def _on_demand_migrate(
        self,
        alloc: Allocation,
        cpu_pages: PageSet,
        shape: AccessShape,
        out: AccessResult,
        now: float,
    ) -> None:
        if self._naturally_oversubscribed(alloc):
            # The driver gives up on migrating an allocation that cannot
            # fit: remote-map it instead (Section 7, 34-qubit behaviour).
            alloc.oversubscription_pinned = True
            alloc.set_location(cpu_pages, Location.CPU_PINNED)
            self._remote_access(cpu_pages, shape, out)
            return
        nbytes = self._page_bytes(cpu_pages.count)
        _, evict_t = self.evict_bytes(nbytes + self._headroom(), now)
        thrash = self.config.eviction_thrash_factor() if evict_t > 0 else 1.0
        fit_pages = max(self.physical.gpu.free - self._headroom(), 0) // (
            self.config.system_page_size
        )
        move = cpu_pages.take_first(fit_pages)
        rest = cpu_pages.difference(move)
        if move:
            moved_bytes = self.physical.move(alloc, move, Location.GPU)
            # One serviced fault batch per 2 MB block
            # (managed_migration_granularity). The driver's tree prefetcher
            # starts at 64 KB and escalates to full-block moves as faults
            # cluster. That escalation is not modelled: the model charges
            # the full-block moves dense fault streams reach almost at once.
            # The effective fault-driven migration rate is ~2 MB per
            # farfault_cost + transfer (≈ 65 GB/s, matching measured UVM
            # migration throughput).
            batches = -(-moved_bytes // self.config.managed_migration_granularity)
            out.fault_seconds += self._far_fault_time(batches) + evict_t
            effective = int(moved_bytes * thrash)
            out.transfer_seconds += self.link.streaming_time(
                effective, Processor.CPU, Processor.GPU
            )
            # Data lands in GPU memory and is then read locally (the
            # paper's Figure 10 note: even iteration 1 reads from GPU
            # memory in the managed version).
            out.hbm_bytes += shape.useful_bytes * move.count
            self.counters.bump(
                migration_h2d_bytes=effective,
                pages_migrated_h2d=move.count,
                managed_far_faults=batches,
            )
        if rest:
            self._streaming_thrash(alloc, rest, shape, out)

    def _streaming_thrash(
        self,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        out: AccessResult,
    ) -> None:
        """Evict+migrate churn for the part of a working set that cannot
        fit in GPU memory (simulated-oversubscription behaviour of
        Section 7).

        The driver still services these faults: each block is migrated in
        — evicting a block that was itself migrated moments earlier — and
        is evicted again before it can be reused. Pages end the epoch
        CPU-resident; the epoch pays the full in-and-out traffic, fault
        servicing, and the page-size-dependent thrash amplification
        (Figure 13's 3x slower 64 KB compute at 30 qubits).
        """
        nbytes = self._page_bytes(pages.count)
        if nbytes == 0:
            return
        thrash = self.config.eviction_thrash_factor()
        effective = int(nbytes * thrash)
        batches = -(-nbytes // self.config.managed_migration_granularity)
        out.fault_seconds += self._far_fault_time(batches)
        out.transfer_seconds += self.link.streaming_time(
            effective, Processor.CPU, Processor.GPU
        )
        out.transfer_seconds += (
            self.link.streaming_time(effective, Processor.GPU, Processor.CPU)
            / self.config.eviction_bandwidth_fraction
        )
        # The data is consumed from GPU memory while it is briefly
        # resident (Figure 10's observation that managed reads come from
        # GPU memory even while pages migrate).
        out.hbm_bytes += shape.useful_bytes * pages.count
        self.counters.bump(
            migration_h2d_bytes=effective,
            migration_d2h_bytes=effective,
            eviction_bytes=effective,
            managed_far_faults=batches,
            pages_migrated_h2d=pages.count,
            pages_migrated_d2h=pages.count,
            pages_evicted=pages.count,
        )
        if self.timeline is not None:
            self.timeline.complete(
                "thrash", self.timeline.now(), out.transfer_seconds,
                cat="mem", track="mem/eviction",
                alloc=alloc.name, pages=pages.count, bytes=effective,
            )

    def _remote_access(
        self, pages: PageSet, shape: AccessShape, out: AccessResult
    ) -> None:
        wire = remote_traffic(self.config, Processor.GPU, shape, pages.count)
        out.remote_seconds += self.link.remote_access_time(
            wire, Processor.GPU, efficiency=self.config.managed_remote_eff()
        )
        out.remote_bytes += wire

    # -- CPU access path ------------------------------------------------------------

    def cpu_access(
        self,
        alloc: Allocation,
        pages: PageSet,
        shape: AccessShape,
        *,
        write: bool,
        now: float,
    ) -> AccessResult:
        out = AccessResult()
        counts = alloc.split_counts(pages)

        n_unmapped = int(counts[Location.UNMAPPED])
        if n_unmapped:
            # CPU first-touch: system page table entries, CPU placement.
            unmapped = alloc.subset(pages, Location.UNMAPPED)
            nbytes = self._page_bytes(unmapped.count)
            alloc.set_location(unmapped, Location.CPU)
            self.physical.cpu.reserve(nbytes, tag=alloc.tag)
            out.fault_seconds += unmapped.count * self.config.cpu_fault_cost
            self.counters.bump(cpu_page_faults=unmapped.count)

        n_gpu = int(counts[Location.GPU])
        if n_gpu:
            # Page retrieval: migrate touched blocks back to CPU memory
            # (the thrashing hazard of Section 6).
            gpu_pages = alloc.subset(pages, Location.GPU)
            blocks = gpu_pages.align_down(alloc.block_pages).clip(alloc.n_pages)
            victim = alloc.subset(blocks, Location.GPU)
            nbytes = self.physical.move(alloc, victim, Location.CPU)
            out.transfer_seconds += self.link.streaming_time(
                nbytes, Processor.GPU, Processor.CPU
            )
            out.fault_seconds += self._far_fault_time(
                len(victim.blocks(alloc.block_pages))
            ) + self.config.tlb_shootdown_time(victim.count)  # GPU TLB
            self.counters.bump(
                migration_d2h_bytes=nbytes,
                pages_migrated_d2h=victim.count,
                tlb_shootdowns=1,
            )

        cpu_like = int(counts[Location.CPU]) + int(counts[Location.CPU_PINNED])
        local_bytes = shape.useful_bytes * (cpu_like + n_unmapped + n_gpu)
        out.lpddr_bytes += local_bytes
        self.counters.traffic("lpddr", local_bytes, write)
        return out

    # -- explicit prefetch ------------------------------------------------------------

    def prefetch_to_gpu(self, alloc: Allocation, pages: PageSet, now: float) -> float:
        """``cudaMemPrefetchAsync(.., device)``: bulk-migrate to GPU.

        Moves CPU-resident *and* remote-pinned pages at streaming rate,
        evicting LRU blocks as needed. Returns the transfer time.
        """
        seconds = 0.0
        movable = alloc.subset(pages, Location.CPU).union(
            alloc.subset(pages, Location.CPU_PINNED)
        )
        if not movable:
            return 0.0
        nbytes = self._page_bytes(movable.count)
        _, evict_t = self.evict_bytes(nbytes + self._headroom(), now)
        seconds += evict_t
        fit_pages = max(self.physical.gpu.free - self._headroom(), 0) // (
            self.config.system_page_size
        )
        move = movable.take_first(fit_pages)
        if move:
            moved = self.physical.move(alloc, move, Location.GPU)
            seconds += self.link.streaming_time(moved, Processor.CPU, Processor.GPU)
            alloc.touch_blocks(move, now)
            self.counters.bump(
                migration_h2d_bytes=moved, pages_migrated_h2d=move.count
            )
        return seconds
