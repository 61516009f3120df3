"""Page tables and per-allocation page state.

Grace Hopper uses two page tables (Section 2.1.3):

* the **system-wide page table**, in CPU memory, managed by the OS and
  walked by the SMMU for both CPU accesses and GPU ATS translation
  requests. It holds every system allocation (``malloc``) and the
  CPU-resident part of managed allocations, at the system page size
  (4 KB or 64 KB);
* the **GPU-exclusive page table**, in GPU memory, holding ``cudaMalloc``
  allocations and the GPU-resident part of managed allocations, at a fixed
  2 MB page size.

The simulator keeps one :class:`Allocation` record per virtual allocation
with numpy arrays of per-system-page state. Aggregate per-location page
counts are maintained incrementally so that full-allocation sweeps (the
common streaming-kernel case) never need a per-page pass, and GPU access
counters (Section 2.2.1) use a scalar-base + lazy-array representation so
that uniform sweeps over millions of pages cost O(1).
"""

from __future__ import annotations

import itertools
from enum import Enum

import numpy as np

from ..sim.config import Location, Processor, SystemConfig
from .pageset import PageSet


class AllocKind(Enum):
    """Table 1 of the paper: the memory-management types."""

    #: ``malloc()`` — system page table, CPU or GPU residency, cache
    #: coherent, transparent migration at cacheline/system-page grain.
    SYSTEM = "system"
    #: ``cudaMallocManaged()`` — split page tables, transparent 2 MB
    #: migration.
    MANAGED = "managed"
    #: ``cudaMalloc()`` / ``cuMemCreate`` on GPU — GPU page table only.
    DEVICE = "device"
    #: ``cudaMallocHost()`` / ``cudaHostAlloc()`` — pinned CPU memory.
    HOST_PINNED = "host-pinned"
    #: ``numa_alloc_onnode()`` — CPU memory on an explicit node.
    NUMA_CPU = "numa-cpu"


#: Rows of the paper's Table 1, regenerated by the Table 1 benchmark.
MEMORY_TYPE_TABLE = [
    {
        "kind": AllocKind.SYSTEM,
        "location": "CPU/GPU",
        "interface": "malloc()",
        "pte_init": "CPU",
        "cache_coherent": True,
        "migration": "transparent 128 byte / 64KB",
    },
    {
        "kind": AllocKind.MANAGED,
        "location": "CPU/GPU",
        "interface": "cudaMallocManaged()",
        "pte_init": "CPU",
        "cache_coherent": True,
        "migration": "transparent 2MB",
    },
    {
        "kind": AllocKind.DEVICE,
        "location": "GPU",
        "interface": "cudaMalloc() / cuMemCreate()",
        "pte_init": "GPU",
        "cache_coherent": False,
        "migration": "explicit 1 byte",
    },
    {
        "kind": AllocKind.HOST_PINNED,
        "location": "CPU",
        "interface": "numa_alloc_onnode() / cudaMallocHost() / "
        "cudaHostAlloc() / cuMemCreate()",
        "pte_init": "CPU",
        "cache_coherent": False,
        "migration": "explicit 1 byte",
    },
]


class AccessCounters:
    """GPU access counters over the pages of one allocation.

    The driver's access-counter strategy (Section 2.2.1) counts GPU
    accesses to non-GPU-resident memory and raises a notification when a
    counter exceeds the threshold. Uniform full-allocation sweeps are the
    common case, so counts are stored as a scalar ``base`` applied to every
    page plus an optional per-page ``extra`` array that is only
    materialised by non-uniform accesses.

    ``peak`` is an upper bound on ``extra``: a partial add raises it by the
    amount added, a reset leaves it valid (no count is below the zero a
    reset writes), and a :meth:`crossed` query over every page sets it to
    the exact maximum. While ``base + peak`` is below the threshold,
    :meth:`crossed` answers without reading ``extra``. The migrator asks
    once per kernel epoch, and under irregular access (needle and bfs at
    4 KB pages) it asks about 1-2M pages whose counters sit far below the
    threshold.
    """

    __slots__ = ("n_pages", "base", "extra", "peak")

    def __init__(self, n_pages: int):
        self.n_pages = n_pages
        self.base: int = 0
        self.extra: np.ndarray | None = None
        self.peak: int = 0

    def _materialise(self) -> np.ndarray:
        if self.extra is None:
            self.extra = np.zeros(self.n_pages, dtype=np.int64)
            self.peak = 0
        return self.extra

    def add(self, pages: PageSet, amount: int) -> None:
        if amount <= 0 or not pages:
            return
        if pages.covers_all(self.n_pages):
            self.base += int(amount)
        else:
            pages.add_at(self._materialise(), int(amount))
            self.peak += int(amount)

    def value(self, page: int) -> int:
        extra = 0 if self.extra is None else int(self.extra[page])
        return self.base + extra

    def crossed(self, candidates: PageSet, threshold: int) -> PageSet:
        """Pages among ``candidates`` whose counter reached ``threshold``."""
        if not candidates:
            return PageSet.empty()
        if self.extra is None:
            return candidates if self.base >= threshold else PageSet.empty()
        # extra may hold negative entries (post-reset corrections), so the
        # full per-page value base + extra must be compared.
        floor = threshold - self.base
        if self.peak < floor:
            return PageSet.empty()
        values = candidates.view(self.extra)
        if candidates.covers_all(self.n_pages):
            self.peak = int(values.max())
            if self.peak < floor:
                return PageSet.empty()
        mask = values >= floor
        if not mask.any():
            return PageSet.empty()
        if mask.all():
            return candidates
        return candidates.select(mask)

    def reset(self, pages: PageSet) -> None:
        if not pages:
            return
        if pages.covers_all(self.n_pages) and self.extra is None:
            self.base = 0
            return
        extra = self._materialise()
        # Setting counter to zero means extra must cancel base.
        pages.assign(extra, -self.base)
        if pages.covers_all(self.n_pages):
            self.base = 0
            self.extra = None


_alloc_ids = itertools.count(1)


class Allocation:
    """One virtual allocation and its per-page physical state."""

    def __init__(
        self,
        kind: AllocKind,
        nbytes: int,
        config: SystemConfig,
        name: str = "",
        materialize: bool = False,
        dtype=np.uint8,
    ):
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        self.aid = next(_alloc_ids)
        self.kind = kind
        self.nbytes = int(nbytes)
        self.config = config
        self.name = name or f"alloc{self.aid}"
        self.page_size = config.system_page_size
        self.n_pages = config.pages_for(nbytes)
        self.state = np.zeros(self.n_pages, dtype=np.int8)
        #: Cached run decomposition of ``state`` — ``(starts, stops,
        #: values)`` of its maximal constant runs. Residency is typically
        #: a handful of contiguous blocks queried once per location per
        #: access, so one scan is amortised across every
        #: :meth:`subset` call until the next residency mutation
        #: invalidates it.
        self._runs_cache: tuple | None = None
        self._loc_counts = np.zeros(len(Location), dtype=np.int64)
        self._loc_counts[Location.UNMAPPED] = self.n_pages
        self.counters = AccessCounters(self.n_pages)
        self.freed = False
        #: Simulated-time of last GPU touch per 2 MB block, for LRU
        #: eviction of managed memory.
        self.block_pages = max(1, config.pages_per_gpu_page)
        self.n_blocks = -(-self.n_pages // self.block_pages)
        self.block_last_touch = np.zeros(self.n_blocks, dtype=np.float64)
        #: GPU-resident page count per 2 MB block, maintained
        #: incrementally by :meth:`set_location` so LRU eviction never
        #: scans the page-state array (invariant: equals the per-block
        #: histogram of ``state == Location.GPU``; the sanitizer checks).
        self._gpu_block_counts = np.zeros(self.n_blocks, dtype=np.int64)
        self.buffer: np.ndarray | None = (
            np.zeros(nbytes, dtype=np.uint8) if materialize else None
        )
        #: Managed allocations whose pages were pinned CPU-side by the
        #: oversubscription heuristic stop migrating on demand.
        self.oversubscription_pinned = False
        #: Pages at :attr:`Location.REMOTE` live on *another superchip's*
        #: memory node; this maps each peer NodeId to its page count
        #: (invariant: values sum to ``pages_at(Location.REMOTE)``). Empty
        #: on the default single-superchip topology.
        self.remote_pages_by_node: dict = {}

        if kind is AllocKind.DEVICE:
            self._set_all(Location.GPU)
        elif kind in (AllocKind.HOST_PINNED, AllocKind.NUMA_CPU):
            self._set_all(Location.CPU)

    # -- cross-superchip residency -----------------------------------------

    def add_remote(self, node, n_pages: int) -> None:
        """Record ``n_pages`` more pages resident on peer node ``node``."""
        if n_pages:
            self.remote_pages_by_node[node] = (
                self.remote_pages_by_node.get(node, 0) + n_pages
            )

    def drop_remote(self, n_pages: int) -> list:
        """Remove ``n_pages`` of remote residency; returns the
        ``(node, pages)`` split they were drawn from (per-node counts are
        a pool, not a per-page map — the model charges the fabric by
        node-level byte counts)."""
        taken = []
        for node in sorted(self.remote_pages_by_node, key=str):
            if n_pages <= 0:
                break
            have = self.remote_pages_by_node[node]
            take = min(have, n_pages)
            taken.append((node, take))
            n_pages -= take
            if take == have:
                del self.remote_pages_by_node[node]
            else:
                self.remote_pages_by_node[node] = have - take
        if n_pages > 0:
            raise AssertionError("remote page accounting went negative")
        return taken

    # -- location bookkeeping ---------------------------------------------

    def _set_all(self, loc: Location) -> None:
        self.state[:] = loc
        self._runs_cache = None
        self._loc_counts[:] = 0
        self._loc_counts[loc] = self.n_pages
        if loc == Location.GPU:
            self._gpu_block_counts[:] = self.block_pages
            self._gpu_block_counts[-1] = (
                self.n_pages - (self.n_blocks - 1) * self.block_pages
            )
        else:
            self._gpu_block_counts[:] = 0

    def pages_at(self, loc: Location) -> int:
        return int(self._loc_counts[loc])

    def bytes_at(self, loc: Location) -> int:
        """Physical bytes at ``loc`` (short last page counted in full, as
        the OS would)."""
        return self.pages_at(loc) * self.page_size

    @property
    def mapped_pages(self) -> int:
        return self.n_pages - self.pages_at(Location.UNMAPPED)

    @property
    def touched_bytes(self) -> int:
        return self.mapped_pages * self.page_size

    def is_homogeneous(self, loc: Location) -> bool:
        return self.pages_at(loc) == self.n_pages

    def split_counts(self, pages: PageSet) -> np.ndarray:
        """Page counts of ``pages`` per :class:`Location` (an ``int64``
        array indexed by ``Location``, one entry per member)."""
        if pages.covers_all(self.n_pages):
            return self._loc_counts.copy()
        # Count on the int8 view itself (np.bincount would widen it to
        # intp first; so would comparing with a numpy int64, hence the
        # Python ints). A location absent from the whole allocation is
        # absent from ``pages``, and the last present one is what remains.
        view = pages.view(self.state)
        counts = np.zeros(len(Location), dtype=np.int64)
        *scanned, rest = self._loc_counts.nonzero()[0].tolist()
        left = view.size
        for loc in scanned:
            n = np.count_nonzero(view == loc)
            counts[loc] = n
            left -= n
        counts[rest] = left
        return counts

    def _residency_runs(self) -> tuple:
        """``(starts, stops, values)`` of ``state``'s maximal constant
        runs, cached until the next residency mutation."""
        if self._runs_cache is None:
            s = self.state
            edges = np.flatnonzero(s[1:] != s[:-1]) + 1
            starts = np.concatenate(([0], edges))
            stops = np.concatenate((edges, [s.size]))
            self._runs_cache = (starts, stops, s[starts])
        return self._runs_cache

    def subset(self, pages: PageSet, loc: Location) -> PageSet:
        """Pages of ``pages`` currently at ``loc`` (with fast paths)."""
        n_at = self.pages_at(loc)
        if n_at == 0:
            return PageSet.empty()
        if n_at == self.n_pages:
            return pages
        if pages.covers_all(self.n_pages):
            # Residency state is typically a handful of contiguous blocks
            # (CPU head / GPU tail), so this stays a symbolic interval
            # list rather than a multi-million-entry index array.
            # Consecutive runs differ in value, so the selected bounds
            # are exactly the maximal runs ``from_mask(state == loc)``
            # would find — same PageSet, no per-query state scan.
            starts, stops, values = self._residency_runs()
            sel = values == loc
            return PageSet._from_bounds(starts[sel], stops[sel])
        return pages.where(self.state, loc)

    def set_location(self, pages: PageSet, new: Location) -> np.ndarray:
        """Move ``pages`` to ``new``; returns previous per-location counts.

        The caller settles physical-pool accounting from the returned
        counts (number of pages that actually changed residency).
        """
        if not pages:
            return np.zeros(len(Location), dtype=np.int64)
        prev = self.split_counts(pages)
        prev_gpu = int(prev[Location.GPU])
        total = int(prev.sum())
        # Maintain the per-block GPU residency histogram incrementally
        # (computed *before* the assign, while ``state`` still shows the
        # old residency). Homogeneous moves — every page already GPU, or
        # none — are the overwhelmingly common case and need no state
        # scan at all.
        if new == Location.GPU:
            if prev_gpu == 0:
                self._gpu_block_counts += self._block_histogram(pages)
            elif prev_gpu != total:
                moved = pages.difference(pages.where(self.state, Location.GPU))
                self._gpu_block_counts += self._block_histogram(moved)
        elif prev_gpu:
            leaving = (
                pages
                if prev_gpu == total
                else pages.where(self.state, Location.GPU)
            )
            self._gpu_block_counts -= self._block_histogram(leaving)
        pages.assign(self.state, new)
        self._runs_cache = None
        self._loc_counts -= prev
        self._loc_counts[new] += prev.sum()
        if (self._loc_counts < 0).any():
            raise AssertionError("location accounting went negative")
        return prev

    def touch_blocks(self, pages: PageSet, now: float) -> None:
        """Stamp ``now`` on every 2 MB block ``pages`` touches."""
        if not pages:
            return
        bp = self.block_pages
        if pages.index is not None or pages.step > bp:
            # Writing one value is idempotent, so repeated block ids need
            # no np.unique sort.
            self.block_last_touch[pages.indices() // bp] = now
            return
        # Ranges, interval lists and strided sets with step <= bp (no
        # block skipped between elements): one slice per run.
        for lo, hi in pages.runs or ((pages.start, pages.stop),):
            self.block_last_touch[lo // bp : (hi - 1) // bp + 1] = now

    def _block_histogram(self, pages: PageSet) -> np.ndarray:
        """Per-2 MB-block page counts of ``pages`` (length ``n_blocks``).

        O(runs + n_blocks) for symbolic sets: same-block runs bincount
        directly; runs spanning blocks contribute their two partial end
        blocks plus full middle blocks via a difference array.
        """
        bp = self.block_pages
        if pages.index is not None or pages.step > 1:
            return np.bincount(
                pages.indices() // bp, minlength=self.n_blocks
            ).astype(np.int64)
        starts, stops = pages._bounds()
        first = starts // bp
        last = (stops - 1) // bp
        hist = np.zeros(self.n_blocks, dtype=np.int64)
        same = first == last
        if same.any():
            hist += np.bincount(
                first[same], weights=(stops - starts)[same],
                minlength=self.n_blocks,
            ).astype(np.int64)
        multi = ~same
        if multi.any():
            f, l = first[multi], last[multi]
            hist += np.bincount(
                f, weights=bp - starts[multi] % bp, minlength=self.n_blocks
            ).astype(np.int64)
            hist += np.bincount(
                l, weights=(stops[multi] - 1) % bp + 1,
                minlength=self.n_blocks,
            ).astype(np.int64)
            # Full middle blocks, [first+1, last), as a difference array.
            diff = np.zeros(self.n_blocks + 1, dtype=np.int64)
            np.add.at(diff, f + 1, bp)
            np.add.at(diff, l, -bp)
            hist += np.cumsum(diff[:-1])
        return hist

    def lru_gpu_blocks(self) -> np.ndarray:
        """GPU-resident 2 MB block ids, least recently touched first."""
        blocks = np.flatnonzero(self._gpu_block_counts)
        if blocks.size == 0:
            return np.empty(0, dtype=np.int64)
        order = np.argsort(self.block_last_touch[blocks], kind="stable")
        return blocks[order]

    def block_pageset(self, blocks: np.ndarray) -> PageSet:
        """All system pages of the given 2 MB blocks, clipped to bounds."""
        if blocks.size == 0:
            return PageSet.empty()
        starts = np.sort(np.asarray(blocks, dtype=np.int64)) * self.block_pages
        stops = np.minimum(starts + self.block_pages, self.n_pages)
        return PageSet._from_bounds(starts, stops)

    # -- data access for materialised allocations -----------------------------

    def array(self, dtype, shape=None) -> np.ndarray:
        """View the backing buffer as a typed ndarray (materialised only)."""
        if self.buffer is None:
            raise RuntimeError(
                f"{self.name}: allocation is metadata-only; construct it "
                "with materialize=True to hold real data"
            )
        arr = self.buffer.view(dtype)
        return arr if shape is None else arr[: int(np.prod(shape))].reshape(shape)

    def __repr__(self) -> str:
        locs = {
            loc.name.lower(): int(self._loc_counts[loc])
            for loc in Location
            if self._loc_counts[loc]
        }
        return (
            f"<Allocation {self.name} kind={self.kind.value} "
            f"{self.nbytes} B, {self.n_pages} pages {locs}>"
        )


class PageTable:
    """Base class: a registry of live allocations."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.allocations: dict[int, Allocation] = {}

    def register(self, alloc: Allocation) -> None:
        self.allocations[alloc.aid] = alloc

    def unregister(self, alloc: Allocation) -> None:
        self.allocations.pop(alloc.aid, None)

    def resident_bytes(self, loc: Location) -> int:
        return sum(a.bytes_at(loc) for a in self.allocations.values())

    def live_allocations(self) -> list[Allocation]:
        return list(self.allocations.values())


class SystemPageTable(PageTable):
    """The integrated system-wide page table (OS-managed, SMMU-walked).

    Holds system allocations entirely, and the CPU-resident portion of
    managed allocations. PTE init/teardown costs are page-count
    proportional, which drives the paper's Figure 6 and Figure 9.
    """

    def pte_count(self) -> int:
        return sum(a.mapped_pages for a in self.allocations.values())

    def teardown_cost(self, alloc: Allocation) -> float:
        """Cost of destroying an allocation's PTEs at free/munmap time.

        System allocations keep *all* their PTEs in the system page table
        (even GPU-resident pages), so teardown is proportional to the full
        mapped page count at the system page size. Managed allocations
        only keep their CPU-resident part here; the GPU-resident part is
        2 MB GPU-page-table entries, torn down by the driver at block
        granularity.

        Per-page unmap work dominates; beyond
        :attr:`SystemConfig.pte_teardown_knee_pages` live pages the
        struct-page traffic falls out of cache and the per-page cost rises
        (Section 5.2 observes up to 38x dealloc ratios between 4 KB and
        64 KB pages, beyond the naive 16x page-count ratio).
        """
        cfg = self.config
        if alloc.kind is AllocKind.MANAGED:
            pages = alloc.pages_at(Location.CPU) + alloc.pages_at(
                Location.CPU_PINNED
            )
            gpu_blocks = -(-alloc.pages_at(Location.GPU) // alloc.block_pages)
            gpu_cost = gpu_blocks * cfg.gpu_pte_create_cost
        else:
            pages = alloc.mapped_pages
            gpu_cost = 0.0
        if pages == 0:
            return gpu_cost
        if pages <= cfg.pte_teardown_knee_pages:
            per_page = cfg.pte_teardown_cost
        else:
            per_page = cfg.pte_teardown_cost_thrashed
        return pages * per_page + cfg.tlb_shootdown_cost + gpu_cost


class GpuPageTable(PageTable):
    """The GPU-exclusive page table (2 MB pages, GPU-resident)."""

    def pte_count(self) -> int:
        total = 0
        for a in self.allocations.values():
            if a.kind is AllocKind.DEVICE:
                total += -(-a.nbytes // self.config.gpu_page_size)
            else:  # managed: only GPU-resident blocks have GPU PTEs
                gpu_pages = a.pages_at(Location.GPU)
                total += -(-gpu_pages // a.block_pages)
        return total
