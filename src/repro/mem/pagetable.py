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

Residency is usually a few contiguous blocks (a CPU head and a GPU tail),
so each allocation also keeps a *run record*: the maximal ``(start, stop,
location)`` runs of its ``int8`` state, while there are at most
:data:`~repro.mem.pageset.MAX_SYMBOLIC_RUNS` of them. Moves by a range or
an interval list splice it, and queries by one walk it together with the
set's runs, in O(runs) and without reading the state array. Index and
strided sets, and fragmented residency, take the dense ``int8`` path; the
state array stays the source of truth for it, for checkpoints and for the
sanitizer.

LRU eviction reads the last GPU touch time of each 2 MB block. Whole
sweeps stamp every block at once, so each allocation likewise keeps a
*touch record*: the maximal ``(block_lo, block_hi, time)`` runs of
``block_last_touch``, under the same cap, spliced by range and
interval-list touches. Eviction walks it instead of sorting every block.
"""

from __future__ import annotations

import itertools
from enum import Enum

import numpy as np

from ..sim.config import Location, Processor, SystemConfig
from .pageset import MAX_SYMBOLIC_RUNS, PageSet, _mask_to_bounds

#: Plain-int copies of the enum values the run-record walks compare with
#: (an enum member lookup costs several times a module global).
_N_LOC = len(Location)
_GPU = int(Location.GPU)


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


#: Pool-ledger tag prefix per kind: the bytes an allocation holds in a
#: :class:`~repro.mem.physical.MemoryPool` are charged under
#: ``<prefix>:<aid>`` (:attr:`Allocation.tag`).
TAG_PREFIX = {
    AllocKind.SYSTEM: "sys",
    AllocKind.MANAGED: "mng",
    AllocKind.DEVICE: "dev",
    AllocKind.HOST_PINNED: "pin",
    AllocKind.NUMA_CPU: "pin",
}


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
        #: The key this allocation's bytes carry in every pool ledger.
        self.tag = f"{TAG_PREFIX[kind]}:{self.aid}"
        self.page_size = config.system_page_size
        self.n_pages = config.pages_for(nbytes)
        #: Per-page :class:`Location` values: the source of truth.
        self.state = np.zeros(self.n_pages, dtype=np.int8)
        #: Run record: the maximal ``(start, stop, location)`` runs of
        #: ``state`` as plain-int tuples, known while there are at most
        #: :data:`MAX_SYMBOLIC_RUNS`. Range and interval-list moves splice
        #: it. ``None`` once unknown (after an index or strided move, a
        #: splice past the cap, or a checkpoint restore): the next
        #: whole-allocation :meth:`subset` relearns it with one scan of
        #: ``state``. ``()`` when that scan found more runs than the cap,
        #: so no query rescans before the next move.
        self._runs: tuple | None = ((0, self.n_pages, int(Location.UNMAPPED)),)
        self._loc_counts = np.zeros(len(Location), dtype=np.int64)
        self._loc_counts[Location.UNMAPPED] = self.n_pages
        self.counters = AccessCounters(self.n_pages)
        self.freed = False
        #: Simulated-time of last GPU touch per 2 MB block, for LRU
        #: eviction of managed memory.
        self.block_pages = max(1, config.pages_per_gpu_page)
        self.n_blocks = -(-self.n_pages // self.block_pages)
        self.block_last_touch = np.zeros(self.n_blocks, dtype=np.float64)
        #: Touch record: the maximal ``(block_lo, block_hi, time)`` runs of
        #: ``block_last_touch``, kept like the run record by
        #: :meth:`touch_blocks` (a whole touch resets it, a range or
        #: interval-list touch splices it). ``None`` once unknown (after an
        #: index or wide-strided touch, a splice past the cap, or a
        #: checkpoint restore) until :meth:`touch_runs` relearns it; ``()``
        #: when that scan found more runs than the cap.
        self._touch: tuple | None = ((0, self.n_blocks, 0.0),)
        #: GPU-resident page count per 2 MB block, maintained
        #: incrementally by :meth:`set_location` (in place, one run at a
        #: time, for range and interval-list moves) so LRU eviction never
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
        self._runs = ((0, self.n_pages, int(loc)),)
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

    def is_homogeneous(self, loc: Location) -> bool:
        return self.pages_at(loc) == self.n_pages

    def _spans(self, pages: PageSet) -> tuple | None:
        """``pages`` as sorted ``(start, stop)`` runs when the run record
        can answer for them: the record is known and ``pages`` is a range
        or an interval list inside the allocation. ``None`` sends the
        caller down the dense ``state`` path."""
        if (
            not self._runs
            or pages.index is not None
            or pages.step > 1
            or pages.stop > self.n_pages
        ):
            return None
        if pages.runs is not None:
            return pages.runs
        return ((pages.start, pages.stop),) if pages.stop > pages.start else ()

    def _learn_runs(self) -> None:
        """Relearn the run record with one scan of ``state`` (``()`` when
        it holds more than :data:`MAX_SYMBOLIC_RUNS` runs)."""
        self._runs = _maximal_runs(self.state)

    def touch_runs(self) -> tuple:
        """The touch record, relearned with one scan of
        ``block_last_touch`` when unknown; ``()`` when that array holds
        more than :data:`MAX_SYMBOLIC_RUNS` runs."""
        if self._touch is None:
            self._touch = _maximal_runs(self.block_last_touch)
        return self._touch

    def split_counts(self, pages: PageSet) -> np.ndarray:
        """Page counts of ``pages`` per :class:`Location` (an ``int64``
        array indexed by ``Location``, one entry per member)."""
        if pages.covers_all(self.n_pages):
            return self._loc_counts.copy()
        spans = self._spans(pages)
        if spans is not None:
            counts = [0] * _N_LOC
            for lo, hi, loc, inside in _cut(self._runs, spans):
                if inside:
                    counts[loc] += hi - lo
            return np.array(counts, dtype=np.int64)
        # Count on the int8 view itself (np.bincount would widen it to
        # intp first; so would comparing with a numpy int64, hence the
        # Python ints). A location absent from the whole allocation is
        # absent from ``pages``, and the last present one is what remains.
        view = pages.view(self.state)
        counts = np.zeros(_N_LOC, dtype=np.int64)
        *scanned, rest = self._loc_counts.nonzero()[0].tolist()
        left = view.size
        for loc in scanned:
            n = np.count_nonzero(view == loc)
            counts[loc] = n
            left -= n
        counts[rest] = left
        return counts

    def subset(self, pages: PageSet, loc: Location) -> PageSet:
        """Pages of ``pages`` currently at ``loc``, in the representation
        ``pages.where(state, loc)`` gives (with fast paths)."""
        n_at = self.pages_at(loc)
        if n_at == 0:
            return PageSet.empty()
        if n_at == self.n_pages:
            return pages
        if pages.covers_all(self.n_pages):
            if self._runs is None:
                self._learn_runs()
            if self._runs:
                # Consecutive runs differ in location, so these are the
                # maximal runs ``from_mask(state == loc)`` would find.
                return _pageset(
                    [(lo, hi) for lo, hi, at in self._runs if at == loc]
                )
            return pages.where(self.state, loc)
        spans = self._spans(pages)
        if spans is None:
            return pages.where(self.state, loc)
        hits = [
            (lo, hi)
            for lo, hi, at, inside in _cut(self._runs, spans)
            if inside and at == loc
        ]
        if sum(hi - lo for lo, hi in hits) == pages.count:
            return pages
        return _pageset(hits)

    def set_location(self, pages: PageSet, new: Location) -> np.ndarray:
        """Move ``pages`` to ``new``; returns previous per-location counts.

        The caller settles physical-pool accounting from the returned
        counts (number of pages that actually changed residency).
        """
        if not pages:
            return np.zeros(_N_LOC, dtype=np.int64)
        if pages.covers_all(self.n_pages):
            prev = self._loc_counts.copy()
            self._set_all(new)
            return prev
        new = int(new)
        spans = self._spans(pages)
        if spans is not None:
            # Splice the run record: every piece ``pages`` covers takes
            # ``new``, and a piece joining or leaving the GPU updates its
            # blocks' GPU page counts in place.
            prev = [0] * _N_LOC
            runs: list = []
            for lo, hi, loc, inside in _cut(self._runs, spans):
                if inside:
                    prev[loc] += hi - lo
                    if loc != new and _GPU in (loc, new):
                        self._add_gpu_run(lo, hi, 1 if new == _GPU else -1)
                    loc = new
                if runs and runs[-1][2] == loc:
                    runs[-1] = (runs[-1][0], hi, loc)
                else:
                    runs.append((lo, hi, loc))
            self._runs = tuple(runs) if len(runs) <= MAX_SYMBOLIC_RUNS else None
            total = sum(prev)
            prev = np.array(prev, dtype=np.int64)
        else:
            prev = self.split_counts(pages)
            gpu, total = int(prev[_GPU]), int(prev.sum())
            # GPU pages arriving or leaving, found while ``state`` still
            # shows the old residency. Moves where every page is already
            # on the GPU, or none is, need no scan.
            if new == _GPU and gpu < total:
                self._shift_gpu_blocks(
                    pages if gpu == 0
                    else pages.difference(pages.where(self.state, _GPU)),
                    1,
                )
            elif new != _GPU and gpu:
                self._shift_gpu_blocks(
                    pages if gpu == total else pages.where(self.state, _GPU),
                    -1,
                )
            self._runs = None
        pages.assign(self.state, new)
        self._loc_counts -= prev
        self._loc_counts[new] += total
        if self._loc_counts.min() < 0:
            raise AssertionError("location accounting went negative")
        return prev

    def touch_blocks(self, pages: PageSet, now: float) -> None:
        """Stamp ``now`` on every 2 MB block ``pages`` touches, and keep
        the touch record current."""
        if not pages:
            return
        if pages.covers_all(self.n_pages):
            self.block_last_touch[:] = now
            self._touch = ((0, self.n_blocks, float(now)),)
            return
        if pages.index is not None or pages.step > self.block_pages:
            # Writing one value is idempotent, so repeated block ids need
            # no np.unique sort.
            self.block_last_touch[pages.indices() // self.block_pages] = now
            self._touch = None
            return
        # Ranges, interval lists and strided sets with step <= bp (no
        # block skipped between elements): one slice per block span.
        spans = self._block_spans(pages.runs or ((pages.start, pages.stop),))
        for first, stop in spans:
            self.block_last_touch[first:stop] = now
        self._touch = _splice(self._touch, spans, float(now)) if self._touch else None

    def _block_spans(self, page_runs) -> list:
        """The 2 MB blocks that sorted, disjoint page runs touch, as
        ``[first, stop)`` block spans; spans that share or abut a block
        are merged."""
        bp = self.block_pages
        spans: list = []
        for lo, hi in page_runs:
            first, stop = lo // bp, (hi - 1) // bp + 1
            if spans and spans[-1][1] >= first:
                spans[-1] = (spans[-1][0], stop)
            else:
                spans.append((first, stop))
        return spans

    def gpu_block_spans(self, first: int, stop: int) -> list:
        """The blocks in ``[first, stop)`` that hold a GPU page, as
        maximal ``[first, stop)`` block spans in block order: from the run
        record in O(runs) when it is known, else from one scan of those
        blocks' GPU page counts."""
        if not self._runs:
            starts, stops = _mask_to_bounds(self._gpu_block_counts[first:stop] > 0)
            if starts is None:
                return []
            return list(zip((starts + first).tolist(), (stops + first).tolist()))
        bp = self.block_pages
        window = ((first * bp, min(stop * bp, self.n_pages)),)
        return self._block_spans(
            (lo, hi)
            for lo, hi, loc, inside in _cut(self._runs, window)
            if inside and loc == _GPU
        )

    def _add_gpu_run(self, lo: int, hi: int, sign: int) -> None:
        """Add ``sign`` times the per-2 MB-block page counts of pages
        ``[lo, hi)`` to ``_gpu_block_counts``: the two partial end blocks
        one at a time, the full blocks between them as one slice."""
        bp = self.block_pages
        first, last = lo // bp, (hi - 1) // bp
        counts = self._gpu_block_counts
        if first == last:
            counts[first] += sign * (hi - lo)
            return
        counts[first] += sign * ((first + 1) * bp - lo)
        counts[last] += sign * (hi - last * bp)
        counts[first + 1 : last] += sign * bp

    def _shift_gpu_blocks(self, pages: PageSet, sign: int) -> None:
        """Add ``sign`` times the per-2 MB-block page counts of ``pages``
        to ``_gpu_block_counts``: run by run, or through one ``bincount``
        for index and strided sets."""
        if pages.index is not None or pages.step > 1:
            self._gpu_block_counts += sign * np.bincount(
                pages.indices() // self.block_pages, minlength=self.n_blocks
            )
            return
        for lo, hi in pages.runs or ((pages.start, pages.stop),):
            self._add_gpu_run(lo, hi, sign)

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


def _cut(runs: tuple, spans: tuple):
    """Cut a run record by ``spans`` (sorted, disjoint, non-empty
    ``(start, stop)`` runs inside it): yields ``(start, stop, location,
    inside)`` for every piece of the record in address order, ``inside``
    marking the pieces ``spans`` covers. One two-pointer walk, O(runs +
    spans)."""
    j, n_spans = 0, len(spans)
    for lo, hi, loc in runs:
        pos = lo
        while j < n_spans:
            start, stop = spans[j]
            if start >= hi:
                break
            if start > pos:
                yield pos, start, loc, False
                pos = start
            end = min(stop, hi)
            yield pos, end, loc, True
            pos = end
            if stop > hi:
                break
            j += 1
        if pos < hi:
            yield pos, hi, loc, False


def _splice(runs: tuple, spans, value) -> tuple | None:
    """``runs`` with every piece ``spans`` covers set to ``value`` and
    equal neighbours merged, as :meth:`Allocation.set_location` splices
    the run record; ``None`` past :data:`MAX_SYMBOLIC_RUNS`."""
    out: list = []
    for lo, hi, at, inside in _cut(runs, spans):
        if inside:
            at = value
        if out and out[-1][2] == at:
            out[-1] = (out[-1][0], hi, at)
        else:
            out.append((lo, hi, at))
    return tuple(out) if len(out) <= MAX_SYMBOLIC_RUNS else None


def _maximal_runs(values: np.ndarray) -> tuple:
    """The maximal ``(start, stop, value)`` runs of ``values`` as plain
    Python tuples, or ``()`` when there are more than
    :data:`MAX_SYMBOLIC_RUNS`."""
    edges = np.flatnonzero(values[1:] != values[:-1])
    if edges.size >= MAX_SYMBOLIC_RUNS:
        return ()
    stops = (edges + 1).tolist()
    starts = [0, *stops]
    stops.append(values.size)
    return tuple(zip(starts, stops, values[starts].tolist()))


def _pageset(runs: list) -> PageSet:
    """The set of sorted, disjoint, non-adjacent ``(start, stop)`` runs in
    the representation :meth:`PageSet.from_mask` gives it."""
    if len(runs) > MAX_SYMBOLIC_RUNS:
        starts, stops = zip(*runs)
        return PageSet._from_bounds(
            np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64)
        )
    if len(runs) > 1:
        return PageSet(runs[0][0], runs[-1][1], runs=tuple(runs))
    return PageSet(*runs[0]) if runs else PageSet.empty()


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
