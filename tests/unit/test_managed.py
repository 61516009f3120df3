"""Unit tests for the CUDA managed memory manager."""

import numpy as np
import pytest

from repro.mem.coherence import AccessShape
from repro.mem.managed import ManagedMemoryManager
from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.physical import PhysicalMemory
from repro.interconnect.nvlink import NvlinkC2C
from repro.profiling.counters import HardwareCounters
from repro.profiling.timeline import Timeline
from repro.sim.config import Location, MiB, SystemConfig
from tests.helpers.eviction import per_block_evict


def make_manager(cfg):
    phys = PhysicalMemory(cfg)
    counters = HardwareCounters()
    mgr = ManagedMemoryManager(cfg, phys, NvlinkC2C(cfg), counters, {})
    return mgr, phys, counters


def managed_alloc(cfg, mgr, nbytes=32 * MiB):
    alloc = Allocation(AllocKind.MANAGED, nbytes, cfg)
    mgr.allocations[alloc.aid] = alloc
    return alloc


def full_shape(cfg):
    return AccessShape(useful_bytes=cfg.system_page_size, density=1.0)


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 256, page_size=65536)


class TestGpuFirstTouch:
    def test_maps_directly_to_gpu(self, cfg):
        mgr, phys, _ = make_manager(cfg)
        alloc = managed_alloc(cfg, mgr)
        out = mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        assert alloc.is_homogeneous(Location.GPU)
        assert out.fault_seconds < 1e-3  # driver-cheap, no OS round trip
        assert phys.gpu.by_tag[f"mng:{alloc.aid}"] == alloc.bytes_at(Location.GPU)

    def test_spills_cpu_when_gpu_exhausted_and_nothing_evictable(self, cfg):
        mgr, phys, _ = make_manager(cfg)
        phys.gpu.reserve(phys.gpu.free, tag="balloon")
        alloc = managed_alloc(cfg, mgr)
        mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        assert alloc.pages_at(Location.GPU) == 0
        assert (
            alloc.pages_at(Location.CPU) + alloc.pages_at(Location.CPU_PINNED)
            == alloc.n_pages
        )


class TestOnDemandMigration:
    def test_cpu_resident_pages_migrate_on_gpu_touch(self, cfg):
        mgr, phys, counters = make_manager(cfg)
        alloc = managed_alloc(cfg, mgr)
        mgr.cpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        assert alloc.is_homogeneous(Location.CPU)
        out = mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=False, now=1.0
        )
        assert alloc.is_homogeneous(Location.GPU)
        assert out.transfer_seconds > 0  # migration on the critical path
        assert counters.total.managed_far_faults > 0
        # Reads come from GPU memory after migration (Figure 10).
        assert out.hbm_bytes > 0

    def test_eviction_makes_room(self, cfg):
        mgr, phys, counters = make_manager(cfg)
        # Fill most of the GPU with an older managed allocation.
        old = managed_alloc(cfg, mgr, nbytes=phys.gpu.free - 8 * MiB)
        mgr.gpu_access(
            old, PageSet.full(old.n_pages), full_shape(cfg), write=True, now=0.0
        )
        new = managed_alloc(cfg, mgr, nbytes=32 * MiB)
        mgr.cpu_access(
            new, PageSet.full(new.n_pages), full_shape(cfg), write=True, now=1.0
        )
        mgr.gpu_access(
            new, PageSet.full(new.n_pages), full_shape(cfg), write=False, now=2.0
        )
        assert counters.total.pages_evicted > 0
        assert old.pages_at(Location.CPU) > 0  # LRU victim was the old data


class TestCpuAccessThrash:
    def test_cpu_touch_migrates_blocks_back(self, cfg):
        mgr, phys, counters = make_manager(cfg)
        alloc = managed_alloc(cfg, mgr)
        mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        out = mgr.cpu_access(
            alloc, PageSet.range(0, 1), full_shape(cfg), write=False, now=1.0
        )
        # The whole 2 MB block of the touched page came back.
        assert alloc.pages_at(Location.CPU) == alloc.block_pages
        assert out.transfer_seconds > 0
        assert counters.total.pages_migrated_d2h == alloc.block_pages


class TestNaturalOversubscription:
    def test_allocation_larger_than_gpu_gets_pinned(self, cfg):
        mgr, phys, _ = make_manager(cfg)
        big = managed_alloc(cfg, mgr, nbytes=phys.gpu.capacity + 64 * MiB)
        # Fill: first touch on GPU, evicting until spill.
        mgr.gpu_access(
            big, PageSet.full(big.n_pages), full_shape(cfg), write=True, now=0.0
        )
        spilled = big.pages_at(Location.CPU) + big.pages_at(Location.CPU_PINNED)
        assert spilled > 0
        # Subsequent GPU touches do NOT migrate: the driver remote-maps.
        out = mgr.gpu_access(
            big, PageSet.full(big.n_pages), full_shape(cfg), write=False, now=1.0
        )
        assert big.oversubscription_pinned or big.pages_at(Location.CPU_PINNED) > 0
        assert out.remote_seconds > 0

    def test_prefetch_rescues_pinned_pages(self, cfg):
        mgr, phys, _ = make_manager(cfg)
        big = managed_alloc(cfg, mgr, nbytes=phys.gpu.capacity + 64 * MiB)
        mgr.gpu_access(
            big, PageSet.full(big.n_pages), full_shape(cfg), write=True, now=0.0
        )
        mgr.gpu_access(
            big, PageSet.full(big.n_pages), full_shape(cfg), write=False, now=1.0
        )
        pinned_before = big.pages_at(Location.CPU_PINNED)
        t = mgr.prefetch_to_gpu(big, PageSet.full(big.n_pages), now=2.0)
        assert t > 0
        assert big.pages_at(Location.CPU_PINNED) < max(pinned_before, 1)


class TestStreamingThrash:
    def test_working_set_beyond_free_thrashes(self, cfg):
        mgr, phys, counters = make_manager(cfg)
        phys.gpu.reserve(phys.gpu.free - 16 * MiB, tag="balloon")
        alloc = managed_alloc(cfg, mgr, nbytes=64 * MiB)
        mgr.cpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=True, now=0.0
        )
        out = mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), full_shape(cfg), write=False, now=1.0
        )
        # Part fits, the rest churns through evict+migrate.
        assert counters.total.eviction_bytes > 0
        # Thrashed pages end the epoch CPU-resident.
        assert alloc.pages_at(Location.CPU) > 0

    def test_thrash_amplification_grows_with_page_size(self):
        times = {}
        for page in (4096, 65536):
            cfg = SystemConfig.scaled(1 / 256, page_size=page)
            mgr, phys, _ = make_manager(cfg)
            phys.gpu.reserve(phys.gpu.free - 16 * MiB, tag="balloon")
            alloc = managed_alloc(cfg, mgr, nbytes=64 * MiB)
            mgr.cpu_access(
                alloc, PageSet.full(alloc.n_pages),
                AccessShape(useful_bytes=page), write=True, now=0.0,
            )
            out = mgr.gpu_access(
                alloc, PageSet.full(alloc.n_pages),
                AccessShape(useful_bytes=page), write=False, now=1.0,
            )
            times[page] = out.transfer_seconds
        assert times[65536] > 1.5 * times[4096]


class TestBatchedEviction:
    """``evict_bytes`` charges its LRU prefix as one batch; every number
    it produces must equal the per-block loop's, floats bit for bit."""

    @staticmethod
    def oversubscribed(timeline: bool):
        """Two GPU-resident managed allocations (about 1480 blocks) with
        ragged per-block residency and interleaved, partly tied LRU touch
        times."""
        cfg = SystemConfig.scaled(1 / 32, page_size=65536)
        mgr, phys, _ = make_manager(cfg)
        if timeline:
            mgr.timeline = mgr.link.timeline = Timeline(time_fn=lambda: 0.25)
        rng = np.random.default_rng(2024)
        allocs = []
        for nbytes in (1500 * MiB + 3 * cfg.system_page_size, 1400 * MiB):
            alloc = managed_alloc(cfg, mgr, nbytes=nbytes)
            mgr.gpu_access(
                alloc, PageSet.full(alloc.n_pages), full_shape(cfg),
                write=True, now=0.0,
            )
            back = PageSet.of(
                rng.choice(alloc.n_pages, alloc.n_pages // 10, replace=False)
            )
            back_bytes = back.count * cfg.system_page_size
            alloc.set_location(back, Location.CPU)
            phys.gpu.release(back_bytes, tag=alloc.tag)
            phys.cpu.reserve(back_bytes, tag=alloc.tag)
            alloc.block_last_touch[:] = rng.integers(0, 400, alloc.n_blocks) / 7
            alloc._touch = None  # written directly: forget the touch record
            allocs.append(alloc)
        return mgr, allocs

    def evict_both(self, timeline: bool):
        """The same eviction through ``evict_bytes`` and the oracle."""
        mgr, allocs = self.oversubscribed(timeline)
        ref, ref_allocs = self.oversubscribed(timeline)
        needed = mgr.physical.gpu.free + 2000 * MiB
        got = mgr.evict_bytes(needed, now=3.0)
        want = per_block_evict(ref, needed, now=3.0)
        assert ref.counters.total.tlb_shootdowns >= 1000
        assert got == want and type(got[1]) is float
        for a, b in zip(allocs, ref_allocs):
            assert np.array_equal(a.state, b.state)
        return mgr, ref

    def test_matches_per_block_loop(self):
        mgr, ref = self.evict_both(timeline=False)
        assert mgr.counters.total.as_dict() == ref.counters.total.as_dict()

    def test_timeline_spans_match_per_block_loop(self):
        mgr, ref = self.evict_both(timeline=True)

        def spans(m):
            return [
                (ev.name, ev.ts, ev.dur, ev.args)
                for ev in m.timeline.events("X", track="fabric/c2c")
            ]

        assert len(spans(ref)) >= 1000
        assert spans(mgr) == spans(ref)
        assert len(mgr.timeline.events()) == len(ref.timeline.events())
