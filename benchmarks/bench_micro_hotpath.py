"""Microbenchmarks for the simulator's hot paths.

Covers the layers the interval-list PageSet overhaul and the batched
epoch executor target:

* symbolic set algebra at paper scale (two million 64 KB pages = the
  128 GB statevector of the 34-qubit Quantum Volume run) — including a
  head-to-head against the seed implementation of the range-split
  ``difference``, which materialised the full index array;
* the :meth:`MemorySubsystem.access` dispatch, and one warm
  :meth:`MemorySubsystem.access_batch` epoch, whose descriptors take
  the local-residency shortcut, against the backend's own path;
* :meth:`AccessCounterMigrator.service` under steady oversubscription,
  plus its below-threshold early-skip;
* one :meth:`ManagedMemoryManager.evict_bytes` over thousands of LRU
  blocks, charged as a batch rather than block by block, and repeated
  small evictions from a full HBM, whose LRU prefix the touch record
  gives without sorting every resident block;
* :meth:`PageSet.of` on a sorted needle wave, head to head against the
  numpy ``unique`` construction it replaced, and on unsorted BFS and Gups
  gathers, against the sort it replaced;
* :class:`~repro.sim.checkpoint.SystemCheckpoint` capture/restore, the
  primitive behind incremental what-if re-simulation;
* range queries and moves on a two-run managed allocation answered from
  its residency run record, head to head against the per-page scans it
  replaced.

Besides the pytest-benchmark tables, the measured timings are exported
to ``BENCH_hotpath.json`` at the repo root, with the command, Python
version and CPU that produced them, so speedups are tracked in version
control. CI runs this file on the change and on its parent on one runner
and compares the two with ``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

import json
import os
import platform
import shlex
import sys
import time
import timeit
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.coherence import AccessShape
from repro.mem.pageset import PageSet, _dedup_sorted
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.subsystem import AccessResult
from repro.sim.config import Location, Processor, SystemConfig

#: Two million pages — the paper's 128 GB statevector at 64 KB pages.
N_PAGES = 2 * 1024 * 1024

RESULTS: dict = {"n_pages": N_PAGES, "benchmarks": {}}


def _best(fn, repeat=5, number=10) -> float:
    """Best-of-N wall time per call, seconds."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def _record(name: str, seconds: float, **extra) -> None:
    RESULTS["benchmarks"][name] = {"seconds": seconds, **extra}


def _machine() -> dict:
    """The command, interpreter and CPU the numbers come from."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "command": "python -m pytest " + shlex.join(sys.argv[1:]),
        "python": platform.python_version(),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
    }


@pytest.fixture(scope="module", autouse=True)
def export_results():
    yield
    path = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
    # Other keys in the file (the cluster bench's "cluster" headline
    # numbers) are kept.
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        payload = {}
    payload.update(RESULTS, machine=_machine())
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _seed_difference(a: PageSet, b: PageSet) -> PageSet:
    """The seed implementation of the range-split difference: materialise
    the full index array, mask, re-detect ranges. Kept inline as the
    baseline the symbolic path is measured against."""
    mine = np.arange(a.start, a.stop, dtype=np.int64)
    mask = (mine < b.start) | (mine >= b.stop)
    return PageSet.of(mine[mask])


class TestPageSetAlgebra:
    def test_difference_range_split_speedup_vs_seed(self, benchmark):
        big = PageSet.range(0, N_PAGES)
        hole = PageSet.range(1000, N_PAGES - 1000)
        out = big.difference(hole)
        assert out.index is None and out.run_count == 2
        new_t = _best(lambda: big.difference(hole), number=100)
        seed_t = _best(lambda: _seed_difference(big, hole), number=2)
        speedup = seed_t / new_t
        _record(
            "difference_range_split",
            new_t,
            seed_seconds=seed_t,
            speedup_vs_seed=round(speedup, 1),
        )
        benchmark.pedantic(
            lambda: big.difference(hole), rounds=5, iterations=100
        )
        assert speedup >= 5.0, f"only {speedup:.1f}x over the seed"

    def test_union_disjoint_ranges(self, benchmark):
        a = PageSet.range(0, N_PAGES // 2 - 1000)
        b = PageSet.range(N_PAGES // 2 + 1000, N_PAGES)
        out = benchmark(lambda: a.union(b))
        assert out.index is None and out.run_count == 2
        _record("union_disjoint", _best(lambda: a.union(b), number=100))

    def test_intersect_runs_with_range(self, benchmark):
        runs = PageSet.from_runs(
            [(k * 65536, k * 65536 + 4096) for k in range(32)]
        )
        window = PageSet.range(N_PAGES // 4, 3 * N_PAGES // 4)
        out = benchmark(lambda: runs.intersect(window))
        assert out.index is None
        _record(
            "intersect_runs_range",
            _best(lambda: runs.intersect(window), number=100),
        )

    def test_align_down_runs(self, benchmark):
        ps = PageSet.from_runs(
            [(k * 65536 + 3, k * 65536 + 40) for k in range(32)]
        )
        out = benchmark(lambda: ps.align_down(16))
        assert out.index is None
        _record("align_down_runs", _best(lambda: ps.align_down(16), number=100))

    def test_strided_construction(self, benchmark):
        out = benchmark(lambda: PageSet.strided(0, N_PAGES, 16))
        assert out.index is None
        _record(
            "strided_construction",
            _best(lambda: PageSet.strided(0, N_PAGES, 16), number=100),
        )

    def test_from_mask_chunky_residency(self, benchmark):
        state = np.zeros(N_PAGES, dtype=np.int8)
        state[: N_PAGES // 2] = 1
        state[-4096:] = 1
        out = benchmark(lambda: PageSet.from_mask(state == 1))
        assert out.index is None and out.run_count == 2
        _record(
            "from_mask_chunky",
            _best(lambda: PageSet.from_mask(state == 1), number=10),
        )


def _unique_of(ids: np.ndarray) -> PageSet:
    """The seed construction of :meth:`PageSet.of`: numpy's ``unique``
    (a hash table on numpy >= 2.3, a sort before), then the same
    re-symbolisation. Kept inline as the baseline."""
    return PageSet._from_sorted(np.unique(np.asarray(ids, dtype=np.int64)))


def _sort_of(ids: np.ndarray) -> PageSet:
    """The construction of :meth:`PageSet.of` before the occupancy map:
    sort unsorted ids, then the linear dedup and the same
    re-symbolisation. Kept inline as the baseline for unsorted gathers."""
    idx = np.ravel(np.asarray(ids, dtype=np.int64))
    if np.any(idx[1:] < idx[:-1]):
        idx = np.sort(idx)
    return PageSet._from_sorted(_dedup_sorted(idx))


class TestPageSetOf:
    """:meth:`PageSet.of` on the page-id shapes the Rodinia apps and Gups
    build."""

    @staticmethod
    def needle_wave() -> np.ndarray:
        """The largest wave of full-scale needle: the first and last 64 KB
        page of each block row segment in 32768 rows of a 32769-column
        ``int32`` matrix, in row order. 65536 sorted ids."""
        cols, block, d = 32769, 256, 127
        r = np.arange(128 * block, dtype=np.int64)
        c0 = (d - r // block) * block
        pairs = np.stack((r * cols + c0, r * cols + c0 + block - 1), axis=1)
        return pairs.ravel() * 4 // 65536

    @staticmethod
    def bfs_gather() -> np.ndarray:
        """One full-scale BFS level gather: 2^20 random edge indices into
        96M ``int64`` edges, as 64 KB page ids. Unsorted, mostly
        duplicates."""
        rng = np.random.default_rng(5)
        return rng.integers(0, 96_000_000, size=1 << 20) * 8 // 65536

    def test_sorted_wave_speedup_vs_seed(self, benchmark):
        ids = self.needle_wave()
        assert np.array_equal(PageSet.of(ids).indices(), _unique_of(ids).indices())
        new_t = _best(lambda: PageSet.of(ids), number=50)
        seed_t = _best(lambda: _unique_of(ids), number=5)
        speedup = seed_t / new_t
        _record(
            "pageset_of_sorted",
            new_t,
            ids=ids.size,
            seed_seconds=seed_t,
            speedup_vs_seed=round(speedup, 1),
        )
        benchmark(lambda: PageSet.of(ids))
        # Sorted input skips the sort, so this holds whatever numpy's
        # unique does inside.
        assert speedup >= 2.0, f"only {speedup:.1f}x over the seed"

    @staticmethod
    def gups_gather() -> np.ndarray:
        """One golden-scale Gups epoch: 2^22 random updates to a table of
        2^23 ``uint64`` words, as 4 KB page ids. Unsorted, 16,384 pages."""
        rng = np.random.default_rng(23)
        return rng.integers(0, 1 << 23, size=1 << 22) * 8 // 4096

    @pytest.mark.parametrize(
        "name, gather", [("pageset_of_unsorted", "bfs_gather"),
                         ("pageset_of_gups", "gups_gather")],
    )
    def test_unsorted_gather_speedup_vs_sort(self, benchmark, name, gather):
        ids = getattr(self, gather)()
        assert np.array_equal(PageSet.of(ids).indices(), _sort_of(ids).indices())
        new_t = _best(lambda: PageSet.of(ids), repeat=3, number=3)
        sort_t = _best(lambda: _sort_of(ids), repeat=3, number=3)
        speedup = sort_t / new_t
        _record(
            name,
            new_t,
            ids=ids.size,
            sort_seconds=sort_t,
            speedup_vs_sort=round(speedup, 1),
        )
        benchmark(lambda: PageSet.of(ids))
        # Ids dense in their span take the occupancy map, not the sort.
        assert speedup >= 2.0, f"only {speedup:.1f}x over the sort"


class TestSubsystemDispatch:
    @pytest.fixture(scope="class")
    def gh(self):
        return GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))

    def test_access_batch_dispatch(self, gh, benchmark):
        x = gh.malloc(np.float32, (1 << 24,), name="hot_x")
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        alloc = x.alloc
        pages = PageSet.full(alloc.n_pages)
        shape = AccessShape(
            useful_bytes=alloc.nbytes, element_bytes=4, density=1.0
        )

        def dispatch():
            return gh.mem.access(
                Processor.GPU, alloc, pages, shape, now=gh.now
            )

        result = benchmark(dispatch)
        assert result is not None
        _record("subsystem_access", _best(dispatch, number=10))


class TestBatchedExecutor:
    """One warm epoch through ``access_batch``, where every descriptor
    takes the access path's local-residency shortcut, vs the backend's
    own path on the same descriptors."""

    N_DESCRIPTORS = 16

    @pytest.fixture(scope="class")
    def steady_state(self):
        gh = GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))
        arrays = [
            gh.malloc(np.float32, (1 << 20,), name=f"batch_{i}")
            for i in range(self.N_DESCRIPTORS)
        ]
        gh.cpu_phase("init", [ArrayAccess.write_(a) for a in arrays])
        descriptors = [
            (acc.array.alloc, acc.pages, acc.shape, acc.write)
            for acc in (ArrayAccess.write_(a) for a in arrays)
        ]
        return gh, descriptors

    def test_access_batch_vs_backend_path(self, steady_state, benchmark):
        gh, descriptors = steady_state
        mem = gh.mem

        def shortcut():
            return mem.access_batch(Processor.CPU, descriptors, now=gh.now)

        def backend():
            total = AccessResult()
            for alloc, pages, shape, write in descriptors:
                total.merge(
                    mem.arch.system_access(
                        mem, Processor.CPU, alloc, pages, shape, write
                    )
                )
            return total

        result = benchmark(shortcut)
        assert result.lpddr_bytes > 0
        assert backend().lpddr_bytes == result.lpddr_bytes
        shortcut_t = _best(shortcut, number=20)
        backend_t = _best(backend, number=20)
        _record(
            "access_batch_fused",
            shortcut_t,
            backend_seconds=backend_t,
            descriptors=self.N_DESCRIPTORS,
            speedup_vs_backend=round(backend_t / shortcut_t, 1),
        )
        assert shortcut_t < backend_t, "shortcut slower than the backend path"


class TestCheckpoint:
    """Capture/restore — the incremental what-if primitive."""

    @pytest.fixture(scope="class")
    def warm_system(self):
        gh = GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))
        arrays = [
            gh.malloc(np.float32, (1 << 22,), name=f"ckpt_{i}")
            for i in range(4)
        ]
        gh.cpu_phase("init", [ArrayAccess.write_(a) for a in arrays])
        gh.launch_kernel(
            "warm", [ArrayAccess.read(a) for a in arrays], flops=1e9
        )
        return gh

    def test_capture_restore(self, warm_system, benchmark):
        from repro.sim.checkpoint import SystemCheckpoint

        gh = warm_system
        ckpt = benchmark(lambda: SystemCheckpoint.capture(gh))
        capture_t = _best(lambda: SystemCheckpoint.capture(gh), number=10)
        restore_t = _best(lambda: ckpt.restore(gh), number=10)
        _record(
            "checkpoint_capture",
            capture_t,
            state_bytes=ckpt.nbytes,
        )
        _record("checkpoint_restore", restore_t, state_bytes=ckpt.nbytes)
        assert (
            SystemCheckpoint.capture(gh).fingerprint() == ckpt.fingerprint()
        )


class TestMigratorService:
    @pytest.fixture(scope="class")
    def oversubscribed(self):
        # GPU memory smaller than the working set: the migrator always has
        # CPU-resident hot pages to consider, so service() does steady
        # per-epoch work instead of a one-shot migration.
        gh = GraceHopperSystem(
            SystemConfig.scaled(1 / 64, page_size=65536, migration_enable=True)
        )
        hbm_elems = int(gh.config.gpu_memory_bytes * 1.5) // 4
        x = gh.malloc(np.float32, (hbm_elems,), name="big")
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        return gh, x

    def test_service_steady_state(self, oversubscribed, benchmark):
        gh, x = oversubscribed
        alloc = x.alloc

        def one_epoch():
            cpu_pages = alloc.subset(PageSet.full(alloc.n_pages), Location.CPU)
            gh.mem.migrator.record_gpu_accesses(
                alloc, cpu_pages, gh.config.migration_threshold
            )
            return gh.mem.begin_epoch()

        report = benchmark(one_epoch)
        assert report is not None
        _record("migrator_service", _best(one_epoch, number=2))

    def test_service_early_skip(self, oversubscribed, benchmark):
        """Below-threshold epochs skip the residency-subset scan."""
        gh, x = oversubscribed
        alloc = x.alloc
        alloc.counters.reset(PageSet.full(alloc.n_pages))
        alloc.counters.base = gh.config.migration_threshold - 1
        alloc.counters.extra = None

        def idle_epoch():
            return gh.mem.begin_epoch()

        report = benchmark(idle_epoch)
        assert report.pages_migrated == 0
        _record("migrator_service_skip", _best(idle_epoch, number=20))


class TestEvictBatch:
    """One ``evict_bytes`` over 4096 LRU blocks of an oversubscribed
    managed allocation. Charged as one batch it costs a few numpy calls;
    a per-block loop of link and TLB calls costs over ten times more,
    which the CI gate on this entry catches."""

    N_BLOCKS = 4096

    @staticmethod
    def oversubscribed() -> GraceHopperSystem:
        """A fresh system whose managed allocation is 1.25x HBM, filled
        from the GPU in one kernel: about 6000 resident blocks, all
        touched at once, so LRU order is address order and the page-state
        writes stay symbolic while the charge covers every block."""
        gh = GraceHopperSystem(SystemConfig.scaled(1 / 8, page_size=65536))
        x = gh.cuda_malloc_managed(
            np.float32, (gh.config.gpu_memory_bytes * 5 // 4 // 4,), name="big"
        )
        gh.launch_kernel("fill", [ArrayAccess.write_(x)])
        return gh

    def evict(self, gh: GraceHopperSystem) -> tuple[int, float]:
        needed = gh.mem.physical.gpu.free + self.N_BLOCKS * gh.config.gpu_page_size
        return gh.mem.managed.evict_bytes(needed, now=gh.now)

    def test_evict_batch(self, benchmark):
        gh = self.oversubscribed()
        shootdowns = gh.counters.total.tlb_shootdowns
        freed, _ = self.evict(gh)
        assert gh.counters.total.tlb_shootdowns - shootdowns >= self.N_BLOCKS
        assert freed >= self.N_BLOCKS * gh.config.gpu_page_size
        best = float("inf")
        for _ in range(5):
            gh = self.oversubscribed()
            t0 = time.perf_counter()
            self.evict(gh)
            best = min(best, time.perf_counter() - t0)
        _record("evict_batch", best, blocks=self.N_BLOCKS)
        benchmark.pedantic(
            self.evict, setup=lambda: ((self.oversubscribed(),), {}), rounds=3
        )


class TestEvictLruPrefix:
    """Repeated small evictions from a full-scale HBM: about 48.8k
    resident 2 MB blocks of one managed allocation, all touched at once.
    Each call evicts 16 blocks. The touch record answers in O(runs +
    selected blocks); the dense selection, reached by marking the record
    fragmented, sorts every resident block on every call."""

    N_BLOCKS = 16
    CALLS = 40

    @staticmethod
    def filled() -> GraceHopperSystem:
        gh = GraceHopperSystem(SystemConfig.scaled(1.0, page_size=65536))
        x = gh.cuda_malloc_managed(
            np.float32, (gh.config.gpu_memory_bytes * 5 // 4 // 4,), name="big"
        )
        gh.launch_kernel("fill", [ArrayAccess.write_(x)])
        return gh

    def evict(self, gh: GraceHopperSystem) -> tuple[int, float]:
        needed = gh.mem.physical.gpu.free + self.N_BLOCKS * gh.config.gpu_page_size
        return gh.mem.managed.evict_bytes(needed, now=gh.now)

    def test_record_speedup_vs_dense(self, benchmark):
        record, dense = self.filled(), self.filled()
        (alloc,) = record.mem.managed.allocations.values()
        (fragmented,) = dense.mem.managed.allocations.values()
        assert len(alloc._touch) == 1
        assert alloc.pages_at(Location.GPU) // alloc.block_pages > 48_000
        record_t = dense_t = float("inf")
        for _ in range(self.CALLS):
            fragmented._touch = ()
            t0 = time.perf_counter()
            want = self.evict(dense)
            t1 = time.perf_counter()
            got = self.evict(record)
            t2 = time.perf_counter()
            assert got == want
            dense_t, record_t = min(dense_t, t1 - t0), min(record_t, t2 - t1)
        assert np.array_equal(alloc.state, fragmented.state)
        speedup = dense_t / record_t
        _record(
            "evict_lru_prefix",
            record_t,
            blocks=self.N_BLOCKS,
            dense_seconds=dense_t,
            speedup_vs_dense=round(speedup, 1),
        )
        benchmark.pedantic(self.evict, args=(record,), rounds=5)
        assert speedup >= 5.0, f"only {speedup:.1f}x over the dense selection"


def _dense_queries(alloc: Allocation, pages: PageSet) -> tuple:
    """The per-page scans the run record replaced: each present location
    counted on the int8 view, each partly present one selected through
    :meth:`PageSet.where`. Kept inline as the baseline."""
    view = pages.view(alloc.state)
    counts = np.zeros(len(Location), dtype=np.int64)
    subsets = []
    for loc in Location:
        n_at = alloc.pages_at(loc)
        if n_at:
            counts[loc] = np.count_nonzero(view == loc)
        if 0 < n_at < alloc.n_pages:
            subsets.append(pages.where(alloc.state, loc))
    return counts, subsets


class TestResidencyRuns:
    """Residency queries on the middle million pages of a two-run managed
    allocation (CPU lower half, GPU upper half), plus one boundary move
    cycle, answered from the run record; against the dense scans."""

    BOUNDARY = 4096

    @staticmethod
    def two_runs() -> Allocation:
        alloc = Allocation(
            AllocKind.MANAGED, N_PAGES * 65536, SystemConfig(system_page_size=65536)
        )
        alloc.set_location(PageSet.range(0, N_PAGES // 2), Location.CPU)
        alloc.set_location(PageSet.range(N_PAGES // 2, N_PAGES), Location.GPU)
        return alloc

    def test_record_speedup_vs_dense(self, benchmark):
        mid = PageSet.range(N_PAGES // 4, 3 * N_PAGES // 4)
        edge = PageSet.range(N_PAGES // 2 - self.BOUNDARY, N_PAGES // 2)
        alloc, dense = self.two_runs(), self.two_runs()

        def record():
            counts = alloc.split_counts(mid)
            subsets = [alloc.subset(mid, loc) for loc in Location]
            alloc.set_location(edge, Location.GPU)
            alloc.set_location(edge, Location.CPU)
            return counts, subsets

        def scans():
            out = _dense_queries(dense, mid)
            # set_location's dense path, the one index and strided moves
            # take, reached by forgetting the record first.
            for loc in (Location.GPU, Location.CPU):
                dense._runs = None
                dense.set_location(edge, loc)
            return out

        counts, subsets = record()
        want_counts, want_subsets = scans()
        assert counts.tolist() == want_counts.tolist()
        assert [s for s in subsets if s] == want_subsets
        assert len(alloc._runs) == 2
        new_t = _best(record, number=100)
        dense_t = _best(scans, number=5)
        speedup = dense_t / new_t
        _record(
            "residency_queries",
            new_t,
            pages=mid.count,
            dense_seconds=dense_t,
            speedup_vs_dense=round(speedup, 1),
        )
        benchmark(record)
        assert speedup >= 20.0, f"only {speedup:.1f}x over the dense scans"
