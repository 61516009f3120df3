"""Unit tests for allocations, access counters, and PTE teardown costs."""

import numpy as np
import pytest

from repro.mem.pageset import PageSet
from repro.mem.pagetable import (
    MEMORY_TYPE_TABLE,
    AccessCounters,
    Allocation,
    AllocKind,
    teardown_cost,
)
from repro.sim.config import Location, SystemConfig


@pytest.fixture
def cfg():
    return SystemConfig(system_page_size=4096)


def make_alloc(cfg, nbytes=64 * 4096, kind=AllocKind.SYSTEM, **kw):
    return Allocation(kind, nbytes, cfg, **kw)


class Unreadable(np.ndarray):
    """A state array that fails on any read; writes still go through."""

    def __getitem__(self, key):
        raise AssertionError("the page-state array was read")

    def __setitem__(self, key, value):
        self.view(np.ndarray)[key] = value


class TestAllocation:
    def test_initial_state_unmapped(self, cfg):
        a = make_alloc(cfg)
        assert a.n_pages == 64
        assert a.pages_at(Location.UNMAPPED) == 64
        assert a.mapped_pages == 0

    def test_device_allocation_starts_gpu(self, cfg):
        a = make_alloc(cfg, kind=AllocKind.DEVICE)
        assert a.is_homogeneous(Location.GPU)

    def test_pinned_allocation_starts_cpu(self, cfg):
        a = make_alloc(cfg, kind=AllocKind.HOST_PINNED)
        assert a.is_homogeneous(Location.CPU)

    def test_rejects_nonpositive_size(self, cfg):
        with pytest.raises(ValueError):
            make_alloc(cfg, nbytes=0)

    def test_set_location_updates_counts(self, cfg):
        a = make_alloc(cfg)
        prev = a.set_location(PageSet.range(0, 10), Location.CPU)
        assert prev[Location.UNMAPPED] == 10
        assert a.pages_at(Location.CPU) == 10
        assert a.pages_at(Location.UNMAPPED) == 54

    def test_set_location_counts_are_conserved(self, cfg):
        a = make_alloc(cfg)
        a.set_location(PageSet.range(0, 30), Location.CPU)
        a.set_location(PageSet.range(10, 40), Location.GPU)
        total = sum(a.pages_at(loc) for loc in Location)
        assert total == a.n_pages
        assert a.pages_at(Location.GPU) == 30
        assert a.pages_at(Location.CPU) == 10

    def test_split_counts_full_fast_path(self, cfg):
        a = make_alloc(cfg)
        a.set_location(PageSet.range(0, 16), Location.GPU)
        counts = a.split_counts(PageSet.full(a.n_pages))
        assert counts[Location.GPU] == 16
        assert counts[Location.UNMAPPED] == 48

    def test_subset_homogeneous_fast_path(self, cfg):
        a = make_alloc(cfg)
        a.set_location(PageSet.full(a.n_pages), Location.CPU)
        pages = PageSet.range(5, 20)
        assert a.subset(pages, Location.CPU) is pages
        assert not a.subset(pages, Location.GPU)

    def test_subset_mixed(self, cfg):
        a = make_alloc(cfg)
        a.set_location(PageSet.range(0, 8), Location.GPU)
        a.set_location(PageSet.range(8, 64), Location.CPU)
        sub = a.subset(PageSet.range(4, 12), Location.GPU)
        assert list(sub.indices()) == [4, 5, 6, 7]

    def test_range_queries_and_moves_never_read_state(self, cfg):
        """On a few-run allocation, range and interval-list queries and
        moves answer from the run record alone."""
        a = make_alloc(cfg, nbytes=4096 * 4096, kind=AllocKind.MANAGED)
        a.set_location(PageSet.range(0, 1500), Location.CPU)
        a.set_location(PageSet.range(1500, 4096), Location.GPU)
        a.state = a.state.view(Unreadable)
        mid = PageSet.range(1000, 3000)
        assert a.split_counts(mid).tolist() == [0, 500, 1500, 0]
        assert a.subset(mid, Location.CPU) == PageSet.range(1000, 1500)
        assert a.subset(mid, Location.GPU) == PageSet.range(1500, 3000)
        holes = PageSet.from_runs([(1400, 1600), (2000, 2100)])
        prev = a.set_location(holes, Location.CPU)
        assert prev.tolist() == [0, 100, 200, 0]
        assert a.subset(PageSet.full(a.n_pages), Location.GPU).runs == (
            (1600, 2000), (2100, 4096),
        )
        assert a.subset(mid, Location.CPU).runs == ((1000, 1600), (2000, 2100))
        # 512-page blocks: 1500-1599 and 2000-2099 left the GPU.
        assert a._gpu_block_counts.tolist() == [0, 0, 0, 400, 460, 512, 512, 512]
        a.set_location(PageSet.range(0, 4096).difference(holes), Location.UNMAPPED)
        assert a.split_counts(mid).tolist() == [1700, 300, 0, 0]
        assert a._gpu_block_counts.tolist() == [0] * 8

    def test_bytes_at(self, cfg):
        a = make_alloc(cfg)
        a.set_location(PageSet.range(0, 3), Location.GPU)
        assert a.bytes_at(Location.GPU) == 3 * 4096

    @pytest.mark.parametrize("step_delta", [-1, 0, 1])
    def test_touch_blocks_strided_around_block_size(self, cfg, step_delta):
        # A stride one past the block size skips a block now and then; one
        # short of it never does. Either way only touched blocks move. The
        # progression arrives as an interval list of one-page runs.
        a = make_alloc(cfg, nbytes=64 * 2 * 1024 * 1024, kind=AllocKind.MANAGED)
        bp = a.block_pages
        pages = PageSet.of(np.arange(bp - 1, a.n_pages, bp + step_delta))
        assert pages.runs is not None
        a.touch_blocks(pages, now=1.0)
        want = sorted({int(p) // bp for p in pages.indices()})
        assert np.flatnonzero(a.block_last_touch == 1.0).tolist() == want

    def test_block_pageset_clips_to_allocation(self, cfg):
        a = make_alloc(cfg, nbytes=3 * 1024 * 1024)  # 1.5 blocks
        pages = a.block_pageset(np.array([1], dtype=np.int64))
        assert pages.count == a.n_pages - 512

    def test_array_requires_materialization(self, cfg):
        a = make_alloc(cfg)
        with pytest.raises(RuntimeError, match="metadata-only"):
            a.array(np.float32)

    def test_materialized_array_roundtrip(self, cfg):
        a = make_alloc(cfg, materialize=True)
        arr = a.array(np.float32, (64, 1024))
        arr[:] = 7.0
        assert a.array(np.float32, (64, 1024))[3, 3] == 7.0


class TestAccessCounters:
    def test_uniform_add_is_scalar(self):
        c = AccessCounters(1000)
        c.add(PageSet.full(1000), 10)
        assert c.base == 10 and c.extra is None
        assert c.value(123) == 10

    def test_partial_add_materialises(self):
        c = AccessCounters(100)
        c.add(PageSet.range(0, 10), 5)
        assert c.extra is not None
        assert c.value(3) == 5 and c.value(50) == 0

    def test_mixed_adds_accumulate(self):
        c = AccessCounters(100)
        c.add(PageSet.full(100), 3)
        c.add(PageSet.range(0, 10), 4)
        assert c.value(5) == 7 and c.value(99) == 3

    def test_crossed_all_or_nothing_fast_path(self):
        c = AccessCounters(50)
        c.add(PageSet.full(50), 255)
        assert not c.crossed(PageSet.full(50), 256)
        c.add(PageSet.full(50), 1)
        assert c.crossed(PageSet.full(50), 256).count == 50

    def test_crossed_subset(self):
        c = AccessCounters(20)
        c.add(PageSet.range(0, 5), 300)
        hot = c.crossed(PageSet.full(20), 256)
        assert list(hot.indices()) == [0, 1, 2, 3, 4]

    def test_reset_subset(self):
        c = AccessCounters(20)
        c.add(PageSet.full(20), 300)
        c.reset(PageSet.range(0, 10))
        assert c.value(0) == 0 and c.value(15) == 300
        hot = c.crossed(PageSet.full(20), 256)
        assert hot.count == 10

    def test_reset_full(self):
        c = AccessCounters(20)
        c.add(PageSet.full(20), 300)
        c.reset(PageSet.full(20))
        assert c.base == 0 and c.extra is None

    def test_zero_amount_is_noop(self):
        c = AccessCounters(10)
        c.add(PageSet.full(10), 0)
        assert c.base == 0


class TestPageTables:
    def test_teardown_cost_scales_with_pages(self, cfg):
        small = make_alloc(cfg, nbytes=16 * 4096)
        big = make_alloc(cfg, nbytes=1024 * 4096)
        for a in (small, big):
            a.set_location(PageSet.full(a.n_pages), Location.CPU)
        assert teardown_cost(big) > teardown_cost(small)

    def test_teardown_knee_raises_per_page_cost(self):
        cfg = SystemConfig(system_page_size=4096, pte_teardown_knee_pages=100)
        below = make_alloc(cfg, nbytes=100 * 4096)
        above = make_alloc(cfg, nbytes=200 * 4096)
        for a in (below, above):
            a.set_location(PageSet.full(a.n_pages), Location.CPU)
        per_page_below = teardown_cost(below) / 100
        per_page_above = teardown_cost(above) / 200
        assert per_page_above > per_page_below

    def test_managed_teardown_only_counts_cpu_side(self, cfg):
        a = make_alloc(cfg, nbytes=1024 * 4096, kind=AllocKind.MANAGED)
        a.set_location(PageSet.full(a.n_pages), Location.GPU)
        gpu_resident = teardown_cost(a)
        a.set_location(PageSet.full(a.n_pages), Location.CPU)
        cpu_resident = teardown_cost(a)
        assert gpu_resident < cpu_resident / 10

    def test_memory_type_table_matches_paper(self):
        interfaces = [row["interface"] for row in MEMORY_TYPE_TABLE]
        assert "malloc()" in interfaces
        assert "cudaMallocManaged()" in interfaces
        coherent = [r for r in MEMORY_TYPE_TABLE if r["cache_coherent"]]
        assert len(coherent) == 2
