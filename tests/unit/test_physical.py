"""Unit tests for physical memory pools."""

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.arch_upm import UnifiedPhysicalMemory
from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.physical import MemoryPool, OutOfMemoryError, PhysicalMemory
from repro.sim.config import Location, MiB, Processor, SystemConfig


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 64)


class TestMemoryPool:
    def test_reserve_and_release(self):
        pool = MemoryPool("p", capacity=1000)
        pool.reserve(400, tag="a")
        assert pool.used == 400 and pool.free == 600
        pool.release(400, tag="a")
        assert pool.used == 0

    def test_oom(self):
        pool = MemoryPool("p", capacity=100)
        with pytest.raises(OutOfMemoryError):
            pool.reserve(101)

    def test_release_more_than_reserved_under_tag_fails(self):
        pool = MemoryPool("p", capacity=100)
        pool.reserve(10, tag="a")
        pool.reserve(50, tag="b")
        with pytest.raises(ValueError):
            pool.release(20, tag="a")

    def test_peak_tracking(self):
        pool = MemoryPool("p", capacity=100)
        pool.reserve(80)
        pool.release(50)
        pool.reserve(10)
        assert pool.peak == 80

    def test_negative_sizes_rejected(self):
        pool = MemoryPool("p", capacity=100)
        with pytest.raises(ValueError):
            pool.reserve(-1)
        with pytest.raises(ValueError):
            pool.release(-1)

    def test_ledger_keeps_only_tags_holding_bytes(self):
        pool = MemoryPool("p", capacity=1000)
        pool.reserve(400, tag="a")
        pool.release(150, tag="a")
        assert pool.by_tag == {"a": 250}
        pool.release(250, tag="a")
        pool.reserve(0, tag="b")
        pool.release(0, tag="c")
        assert pool.by_tag == {} and pool.used == 0


class TestPhysicalMemory:
    def test_ledgers_do_not_grow_with_freed_allocations(self):
        gh = GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))
        for _ in range(300):
            arr = gh.malloc(np.float32, (1 << 16,))
            gh.launch_kernel("write", [ArrayAccess.write_(arr)])
            gh.free(arr)
        phys = gh.mem.physical
        assert phys.gpu.by_tag == {"driver": gh.config.gpu_driver_baseline_bytes}
        assert phys.cpu.by_tag == {}

    def test_driver_baseline_reserved(self, cfg):
        phys = PhysicalMemory(cfg)
        assert phys.gpu.used == cfg.gpu_driver_baseline_bytes
        assert phys.gpu_used_memory() == cfg.gpu_driver_baseline_bytes

    def test_pool_lookup(self, cfg):
        phys = PhysicalMemory(cfg)
        assert phys.pool(Processor.GPU) is phys.gpu
        assert phys.pool(Processor.CPU) is phys.cpu
        assert phys.pool(Location.GPU) is phys.gpu
        assert phys.pool(Location.CPU_PINNED) is phys.cpu

    def test_pool_lookup_rejects_unmapped(self, cfg):
        with pytest.raises(ValueError):
            PhysicalMemory(cfg).pool(Location.UNMAPPED)

    def test_transfer_moves_accounting(self, cfg):
        page = cfg.system_page_size
        for phys in (PhysicalMemory(cfg), UnifiedPhysicalMemory(cfg)):
            alloc = Allocation(AllocKind.SYSTEM, 10 * page, cfg)
            alloc.set_location(PageSet.full(10), Location.CPU)
            phys.cpu.reserve(10 * page, tag=alloc.tag)
            used = phys.cpu.used + phys.gpu.used
            assert phys.move(alloc, PageSet.range(0, 6), Location.GPU) == 6 * page
            # Residency and both ledgers moved together.
            assert alloc.pages_at(Location.GPU) == 6
            assert alloc.pages_at(Location.CPU) == 4
            if phys.cpu is phys.gpu:
                # One unified pool: only residency changed.
                assert phys.gpu.by_tag[alloc.tag] == 10 * page
            else:
                assert phys.cpu.by_tag[alloc.tag] == alloc.bytes_at(Location.CPU)
                assert phys.gpu.by_tag[alloc.tag] == alloc.bytes_at(Location.GPU)
            assert phys.cpu.used + phys.gpu.used == used

    @pytest.mark.parametrize(
        "mem_arch, allocate, nbytes",
        [
            # svm faults every GPU-resident page back on a CPU read.
            ("svm", "malloc", 32 * MiB),
            # gh200 retrieves managed blocks from the GPU on a CPU read.
            ("gh200", "cuda_malloc_managed", 1375 * 65536),
        ],
    )
    def test_move_that_does_not_fit_changes_nothing(
        self, mem_arch, allocate, nbytes
    ):
        """A CPU read of GPU-resident pages while CPU memory is full
        raises :class:`OutOfMemoryError` and leaves residency and both
        pools as they were, so the sanitizer passes and ``free`` works."""
        gh = GraceHopperSystem(
            SystemConfig.scaled(
                1 / 1024, page_size=65536, mem_arch=mem_arch, sanitize=True
            )
        )
        arr = getattr(gh, allocate)(np.uint8, (nbytes,))
        gh.launch_kernel("write", [ArrayAccess.write_(arr)])
        on_gpu = arr.alloc.pages_at(Location.GPU)
        assert on_gpu > 0
        fill = gh.malloc(np.uint8, (gh.mem.physical.cpu.free,))
        gh.cpu_phase("fill", [ArrayAccess.write_(fill)])
        phys = gh.mem.physical

        def ledgers():
            return [(pool.used, dict(pool.by_tag)) for pool in (phys.cpu, phys.gpu)]

        before = ledgers()
        with pytest.raises(OutOfMemoryError):
            gh.cpu_phase("read", [ArrayAccess.read(arr)])
        assert arr.alloc.pages_at(Location.GPU) == on_gpu
        assert ledgers() == before
        gh.mem.sanitizer.check_all()
        gh.free(arr)
        assert arr.alloc.tag not in phys.cpu.by_tag
        assert arr.alloc.tag not in phys.gpu.by_tag

    def test_unified_move_keeps_peak(self, cfg):
        """On one pool a move releases before it reserves, so moving
        pages between its two locations never raises ``peak``."""
        phys = UnifiedPhysicalMemory(cfg)
        page = cfg.system_page_size
        alloc = Allocation(AllocKind.SYSTEM, 10 * page, cfg)
        phys.place(alloc, (PageSet.full(10), Location.CPU))
        peak = phys.cpu.peak
        phys.move(alloc, PageSet.range(0, 10), Location.GPU)
        phys.move(alloc, PageSet.range(0, 10), Location.CPU)
        assert phys.cpu.peak == peak

    def test_capacities_match_config(self, cfg):
        phys = PhysicalMemory(cfg)
        assert phys.cpu.capacity == cfg.cpu_memory_bytes
        assert phys.gpu.capacity == cfg.gpu_memory_bytes
