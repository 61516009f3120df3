"""Unit tests for the MemorySubsystem façade."""

import pytest

from repro.mem.coherence import AccessShape
from repro.mem.pageset import PageSet
from repro.mem.pagetable import AllocKind
from repro.mem.physical import OutOfMemoryError
from repro.mem.subsystem import MemorySubsystem
from repro.profiling.counters import HardwareCounters
from repro.sim.config import Location, MiB, Processor, SystemConfig


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 256, page_size=65536)


@pytest.fixture
def mem(cfg):
    return MemorySubsystem(cfg, HardwareCounters())


def shape(cfg, density=1.0):
    return AccessShape(useful_bytes=cfg.system_page_size, density=density)


class TestLifecycle:
    @pytest.mark.parametrize("kind", list(AllocKind), ids=lambda k: k.name)
    def test_allocation_is_registered_once_until_freed(self, mem, kind):
        first = mem.allocate(AllocKind.SYSTEM, 1 * MiB)
        a = mem.allocate(kind, 4 * MiB)
        last = mem.allocate(AllocKind.MANAGED, 1 * MiB)
        assert list(mem.allocations.items()) == [
            (first.aid, first), (a.aid, a), (last.aid, last)
        ]
        mem.free(a)
        assert list(mem.allocations.values()) == [first, last]

    def test_device_allocation_reserves_gpu_upfront(self, mem, cfg):
        before = mem.physical.gpu.used
        a = mem.allocate(AllocKind.DEVICE, 4 * MiB)
        assert mem.physical.gpu.used > before
        mem.free(a)
        assert mem.physical.gpu.used == before

    @pytest.mark.parametrize(
        "kind, pool", [(AllocKind.DEVICE, "gpu"), (AllocKind.HOST_PINNED, "cpu")]
    )
    def test_allocation_that_does_not_fit_leaves_no_trace(self, mem, kind, pool):
        pool = getattr(mem.physical, pool)
        used = pool.used
        with pytest.raises(OutOfMemoryError):
            mem.allocate(kind, pool.free + 1)
        assert pool.used == used
        assert not mem.allocations

    def test_double_free_raises(self, mem):
        a = mem.allocate(AllocKind.SYSTEM, 1 * MiB)
        mem.free(a)
        with pytest.raises(RuntimeError, match="double free"):
            mem.free(a)

    def test_use_after_free_raises(self, mem, cfg):
        a = mem.allocate(AllocKind.SYSTEM, 1 * MiB)
        mem.free(a)
        with pytest.raises(RuntimeError, match="use after free"):
            mem.access(Processor.CPU, a, PageSet.full(a.n_pages), shape(cfg))

    def test_free_releases_all_residencies(self, mem, cfg):
        a = mem.allocate(AllocKind.SYSTEM, 8 * MiB)
        mem.access(
            Processor.CPU, a, PageSet.range(0, a.n_pages // 2), shape(cfg),
            write=True,
        )
        mem.access(
            Processor.GPU, a,
            PageSet.range(a.n_pages // 2, a.n_pages), shape(cfg), write=True,
        )
        cpu_before, gpu_before = mem.physical.cpu.used, mem.physical.gpu.used
        mem.free(a)
        assert mem.physical.cpu.used < cpu_before
        assert mem.physical.gpu.used < gpu_before


class TestAccessDispatch:
    def test_device_memory_not_cpu_accessible(self, mem, cfg):
        a = mem.allocate(AllocKind.DEVICE, 1 * MiB)
        with pytest.raises(PermissionError, match="not CPU-accessible"):
            mem.access(Processor.CPU, a, PageSet.full(a.n_pages), shape(cfg))

    def test_device_memory_gpu_access_is_local(self, mem, cfg):
        a = mem.allocate(AllocKind.DEVICE, 1 * MiB)
        res = mem.access(Processor.GPU, a, PageSet.full(a.n_pages), shape(cfg))
        assert res.hbm_bytes > 0
        assert res.remote_bytes == 0

    def test_pinned_memory_gpu_access_is_zero_copy_remote(self, mem, cfg):
        a = mem.allocate(AllocKind.HOST_PINNED, 1 * MiB)
        res = mem.access(Processor.GPU, a, PageSet.full(a.n_pages), shape(cfg))
        assert res.remote_bytes > 0
        assert res.fault_seconds == 0.0  # pinned: no faults ever

    def test_system_first_touch_then_local(self, mem, cfg):
        a = mem.allocate(AllocKind.SYSTEM, 2 * MiB)
        first = mem.access(
            Processor.CPU, a, PageSet.full(a.n_pages), shape(cfg), write=True
        )
        again = mem.access(
            Processor.CPU, a, PageSet.full(a.n_pages), shape(cfg)
        )
        assert first.fault_seconds > 0
        assert again.fault_seconds == 0.0
        assert again.lpddr_bytes > 0

    def test_system_remote_access_counts_c2c(self, mem, cfg):
        a = mem.allocate(AllocKind.SYSTEM, 2 * MiB)
        mem.access(Processor.CPU, a, PageSet.full(a.n_pages), shape(cfg), write=True)
        res = mem.access(Processor.GPU, a, PageSet.full(a.n_pages), shape(cfg))
        assert res.remote_bytes > 0
        assert mem.counters.total.c2c_read_bytes == res.remote_bytes

    def test_cpu_remote_read_of_gpu_resident(self, mem, cfg):
        a = mem.allocate(AllocKind.SYSTEM, 2 * MiB)
        mem.access(Processor.GPU, a, PageSet.full(a.n_pages), shape(cfg), write=True)
        res = mem.access(Processor.CPU, a, PageSet.full(a.n_pages), shape(cfg))
        assert res.remote_bytes > 0
        assert mem.counters.total.cpu_remote_read_bytes > 0

    def test_access_clips_out_of_range_pages(self, mem, cfg):
        a = mem.allocate(AllocKind.SYSTEM, 1 * MiB)
        res = mem.access(
            Processor.CPU, a, PageSet.range(0, 10 * a.n_pages), shape(cfg),
            write=True,
        )
        assert a.mapped_pages == a.n_pages


class TestIntrospection:
    def test_rss_tracks_cpu_resident_pages(self, mem, cfg):
        a = mem.allocate(AllocKind.SYSTEM, 4 * MiB)
        assert mem.process_rss_bytes() == 0
        mem.access(Processor.CPU, a, PageSet.full(a.n_pages), shape(cfg), write=True)
        assert mem.process_rss_bytes() == a.bytes_at(Location.CPU)

    def test_gpu_used_includes_driver_baseline(self, mem, cfg):
        assert mem.gpu_used_bytes() == cfg.gpu_driver_baseline_bytes

    def test_host_register_requires_system_alloc(self, mem):
        a = mem.allocate(AllocKind.MANAGED, 1 * MiB)
        with pytest.raises(ValueError):
            mem.host_register(a)

    def test_prefetch_requires_managed_alloc(self, mem):
        a = mem.allocate(AllocKind.SYSTEM, 1 * MiB)
        with pytest.raises(ValueError):
            mem.prefetch_async(a)

    def test_begin_epoch_services_migrations(self, mem, cfg):
        a = mem.allocate(AllocKind.SYSTEM, 4 * MiB)
        mem.access(Processor.CPU, a, PageSet.full(a.n_pages), shape(cfg), write=True)
        for _ in range(5):
            mem.access(Processor.GPU, a, PageSet.full(a.n_pages), shape(cfg))
        report = mem.begin_epoch()
        assert report.pages_migrated > 0
        assert a.pages_at(Location.GPU) > 0
