"""Differential property suite: LRU eviction from the touch record vs the
per-block loop.

Random chains of operations run over two or three managed allocations on
twin managers: block touches of every page-set shape (whole allocation,
range, interval list, evenly spaced pages at and past the block size,
index), with tied and distinct times and histories past the touch
record's cap; residency moves between CPU and GPU; frees; and
``evict_bytes`` calls. One twin evicts through
``ManagedMemoryManager.evict_bytes``, the other through the per-block
oracle, and every result, state array and counter must agree exactly. After every touch a known touch record equals the maximal
runs of ``block_last_touch``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.nvlink import NvlinkC2C
from repro.mem.managed import ManagedMemoryManager
from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.physical import PhysicalMemory
from repro.profiling.counters import HardwareCounters
from repro.sim.config import Location, SystemConfig
from tests.helpers.eviction import assert_touch_record, per_block_evict

SHAPES = ("whole", "range", "runs", "strided", "wide-strided", "index")


def twin(page_size: int, sizes: list[tuple[int, int]]):
    """A manager whose managed allocations of ``(blocks, short_pages)``
    are wholly GPU-resident, touched at time 0."""
    cfg = SystemConfig.scaled(1 / 64, page_size=page_size)
    phys = PhysicalMemory(cfg)
    mgr = ManagedMemoryManager(cfg, phys, NvlinkC2C(cfg), HardwareCounters(), {})
    for blocks, short in sizes:
        resident(mgr, AllocKind.MANAGED, blocks, short)
    return mgr


def resident(mgr, kind: AllocKind, blocks: int, short: int) -> Allocation:
    """Register a wholly GPU-resident allocation of ``kind``, ``blocks``
    2 MB blocks less ``short`` pages, touched at time 0."""
    cfg = mgr.config
    alloc = Allocation(
        kind, blocks * cfg.gpu_page_size - short * cfg.system_page_size, cfg
    )
    mgr.allocations[alloc.aid] = alloc
    alloc.set_location(PageSet.full(alloc.n_pages), Location.GPU)
    mgr.physical.gpu.reserve(alloc.nbytes, tag=alloc.tag)
    return alloc


def page_set(alloc, shape: str, a: int, b: int, seed: int) -> PageSet:
    """A set of ``alloc``'s pages of the given shape, from raw draws."""
    n, bp = alloc.n_pages, alloc.block_pages
    lo, hi = sorted((a % (n + 1), b % (n + 1)))
    if shape == "whole":
        return PageSet.full(n)
    if shape == "range":
        return PageSet.range(lo, hi)
    rng = np.random.default_rng(seed)
    if shape == "runs":
        cuts = np.unique(rng.integers(lo, hi + 1, size=2 * (seed % 9 + 1)))
        return PageSet.from_runs(zip(cuts[::2].tolist(), cuts[1::2].tolist()))
    if shape == "strided":
        return PageSet.of(np.arange(lo, hi, int(rng.integers(2, bp + 1))))
    if shape == "wide-strided":
        # Every other block to the end: past the cap once the allocation
        # holds more than 128 blocks.
        step = 2 * bp + int(rng.integers(0, 2))
        return PageSet.of(np.arange(lo % (2 * bp), n, step))
    lo = min(lo, n - 1)
    return PageSet.of(rng.integers(lo, max(hi, lo + 1), size=seed % 40 + 1))


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("touch"), st.integers(0, 2), st.sampled_from(SHAPES),
            st.integers(0, 1 << 20), st.integers(0, 1 << 20),
            st.integers(0, 1 << 16), st.sampled_from([0.0, 0.0, 0.5, 1.0]),
        ),
        st.tuples(
            st.just("move"), st.integers(0, 2), st.sampled_from(SHAPES),
            st.integers(0, 1 << 20), st.integers(0, 1 << 20),
            st.integers(0, 1 << 16), st.sampled_from([Location.CPU, Location.GPU]),
        ),
        st.tuples(st.just("free"), st.integers(0, 2)),
        st.tuples(st.just("evict"), st.integers(1, 400)),
    ),
    min_size=1,
    max_size=14,
)


def move(mgr, alloc, pages: PageSet, dst: Location) -> None:
    """Move the pages of ``pages`` that sit in the other pool to ``dst``,
    settling both ledgers."""
    src = Location.CPU if dst == Location.GPU else Location.GPU
    pages = alloc.subset(pages, src)
    if dst == Location.GPU:
        pages = pages.take_first(mgr.physical.gpu.free // alloc.page_size)
    if pages:
        mgr.physical.move(alloc, pages, dst)


def free(mgr, alloc) -> None:
    """Release ``alloc``'s pool bytes and drop it from the registry."""
    physical = mgr.physical
    for loc, pool in ((Location.CPU, physical.cpu), (Location.GPU, physical.gpu)):
        pool.release(alloc.bytes_at(loc), tag=alloc.tag)
    del mgr.allocations[alloc.aid]
    alloc.freed = True


def assert_twins_equal(mgr, ref) -> None:
    assert mgr.counters.total.as_dict() == ref.counters.total.as_dict()
    # Allocation ids, and with them the ledger tags, differ between twins.
    for pool in ("cpu", "gpu"):
        mine, theirs = getattr(mgr.physical, pool), getattr(ref.physical, pool)
        assert list(mine.by_tag.values()) == list(theirs.by_tag.values())
    for a, b in zip(mgr.allocations.values(), ref.allocations.values()):
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a._gpu_block_counts, b._gpu_block_counts)
        assert np.array_equal(a.block_last_touch, b.block_last_touch)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([4096, 65536]),
    st.lists(
        st.tuples(st.integers(1, 240), st.integers(0, 31)), min_size=2, max_size=3
    ),
    ops,
)
def test_eviction_chains_match_per_block_oracle(page_size, sizes, chain):
    mgr, ref = twin(page_size, sizes), twin(page_size, sizes)
    now = 0.0
    for op, *args in chain:
        allocs = list(zip(mgr.allocations.values(), ref.allocations.values()))
        if op == "evict":
            block = mgr.config.gpu_page_size
            needed = mgr.physical.gpu.free + args[0] * block // 8
            now += 1.0
            got = mgr.evict_bytes(needed, now)
            want = per_block_evict(ref, needed, now)
            assert got == want and type(got[1]) is float
            assert_twins_equal(mgr, ref)
            continue
        if not allocs:
            continue
        a, b = allocs[args[0] % len(allocs)]
        if op == "free":
            free(mgr, a)
            free(ref, b)
        elif op == "touch":
            _, shape, lo, hi, seed, step = args
            now += step
            pages = page_set(a, shape, lo, hi, seed)
            a.touch_blocks(pages, now)
            b.touch_blocks(pages, now)
            assert_touch_record(a)
        else:
            _, shape, lo, hi, seed, dst = args
            pages = page_set(a, shape, lo, hi, seed)
            move(mgr, a, pages, dst)
            move(ref, b, pages, dst)
        assert_twins_equal(mgr, ref)


def lru_twins(touches):
    """Twin managers (1/64 scale, 64 KB pages) over two 80-block
    allocations, touched in order by ``(allocation, page-set builder,
    time)``."""
    twins = [twin(65536, [(80, 0), (80, 5)]) for _ in range(2)]
    for mgr in twins:
        allocs = list(mgr.allocations.values())
        for k, pages, now in touches:
            allocs[k].touch_blocks(pages(allocs[k]), now)
    return twins


@pytest.mark.parametrize(
    "touches, record_path",
    [
        # Ranges and an interval list: a few runs per record.
        (
            [
                (0, lambda a: PageSet.range(0, a.n_pages), 1.0),
                (1, lambda a: PageSet.range(0, a.n_pages), 1.0),
                (0, lambda a: PageSet.range(320, 1600), 2.0),
                (1, lambda a: PageSet.from_runs([(0, 40), (700, 900)]), 2.0),
                (0, lambda a: PageSet.range(64, 100), 3.0),
            ],
            True,
        ),
        # Every other block stamped with its own time: past the cap.
        (
            [(0, lambda a: PageSet.of(np.arange(0, a.n_pages, 64)), 2.0)]
            + [(1, lambda a, k=k: PageSet.range(32 * k, 32 * k + 1), 0.5 * k)
               for k in range(0, 80, 2)],
            False,
        ),
    ],
)
def test_eviction_path_follows_the_touch_record(monkeypatch, touches, record_path):
    """A record under the cap answers without the dense sort; a history
    past it takes the dense selection. Either equals the oracle."""
    mgr, ref = lru_twins(touches)
    unused = "_lru_prefix_dense" if record_path else "_lru_prefix"

    def refuse(*args):
        raise AssertionError(f"{unused} should not run")

    monkeypatch.setattr(ManagedMemoryManager, unused, refuse)
    for k in (3, 40, 200):
        needed = mgr.physical.gpu.free + k * mgr.config.gpu_page_size // 2
        assert mgr.evict_bytes(needed, 9.0) == per_block_evict(ref, needed, 9.0)
        assert_twins_equal(mgr, ref)


def test_eviction_passes_over_system_and_device_allocations():
    """System and device allocations between managed ones in the registry
    hold GPU blocks touched before any managed block. Eviction takes the
    blocks, in the order, that the oracle takes over the managed
    allocations alone, and leaves the others GPU-resident."""
    mixed, ref = twin(65536, []), twin(65536, [])
    others = []
    for kind, blocks in (
        (AllocKind.MANAGED, 30),
        (AllocKind.SYSTEM, 20),
        (AllocKind.MANAGED, 40),
        (AllocKind.DEVICE, 10),
        (AllocKind.MANAGED, 25),
    ):
        alloc = resident(mixed, kind, blocks, 3)
        if kind is AllocKind.MANAGED:
            resident(ref, kind, blocks, 3)
        else:
            others.append(alloc)
    for mgr in (mixed, ref):
        m0, m1, m2 = (
            a for a in mgr.allocations.values() if a.kind is AllocKind.MANAGED
        )
        m1.touch_blocks(PageSet.full(m1.n_pages), 1.0)
        m0.touch_blocks(PageSet.full(m0.n_pages), 2.0)
        m2.touch_blocks(PageSet.full(m2.n_pages), 1.0)
        m1.touch_blocks(PageSet.from_runs([(0, 96), (640, 900)]), 3.0)
    for k in (3, 40, 90):
        extra = k * mixed.config.gpu_page_size // 2
        got = mixed.evict_bytes(mixed.physical.gpu.free + extra, 9.0)
        want = per_block_evict(ref, ref.physical.gpu.free + extra, 9.0)
        assert got == want
        assert mixed.counters.total.as_dict() == ref.counters.total.as_dict()
        managed = [
            a for a in mixed.allocations.values() if a.kind is AllocKind.MANAGED
        ]
        for a, b in zip(managed, ref.allocations.values(), strict=True):
            assert np.array_equal(a.state, b.state)
        assert all(a.is_homogeneous(Location.GPU) for a in others)
