"""Unit tests for access-counter-based automatic migration."""

import pytest

from repro.interconnect.nvlink import NvlinkC2C
from repro.mem.migration import AccessCounterMigrator
from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.physical import PhysicalMemory
from repro.profiling.counters import HardwareCounters
from repro.sim.config import Location, MiB, SystemConfig


def make_migrator(cfg):
    phys = PhysicalMemory(cfg)
    counters = HardwareCounters()
    mig = AccessCounterMigrator(cfg, phys, NvlinkC2C(cfg), counters)
    return mig, phys, counters


def cpu_resident_alloc(cfg, phys, nbytes=64 * MiB):
    alloc = Allocation(AllocKind.SYSTEM, nbytes, cfg)
    alloc.set_location(PageSet.full(alloc.n_pages), Location.CPU)
    phys.cpu.reserve(alloc.bytes_at(Location.CPU), tag=f"sys:{alloc.aid}")
    return alloc


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 64, page_size=65536)


class TestNotification:
    def test_below_threshold_no_migration(self, cfg):
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys)
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 255)
        report = mig.service([alloc])
        assert report.pages_migrated == 0
        assert alloc.is_homogeneous(Location.CPU)

    def test_threshold_crossing_triggers_migration(self, cfg):
        mig, phys, counters = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys)
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 256)
        report = mig.service([alloc])
        assert report.pages_migrated > 0
        assert counters.total.migration_notifications == 1
        assert counters.total.pages_migrated_h2d == report.pages_migrated

    def test_accesses_accumulate_across_epochs(self, cfg):
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys)
        for _ in range(3):
            mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 100)
        assert mig.service([alloc]).pages_migrated > 0

    def test_disabled_migration_records_nothing(self):
        cfg = SystemConfig.scaled(1 / 64, migration_enable=False)
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys)
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 10_000)
        assert mig.service([alloc]).pages_migrated == 0

    def test_managed_allocations_are_ignored(self, cfg):
        mig, phys, _ = make_migrator(cfg)
        alloc = Allocation(AllocKind.MANAGED, 4 * MiB, cfg)
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 10_000)
        assert alloc.counters.base == 0


class TestServicing:
    def test_budget_caps_pages_per_epoch(self, cfg):
        cfg = cfg.copy(migration_epoch_budget_bytes=8 * MiB)
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys, nbytes=64 * MiB)
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 1000)
        report = mig.service([alloc])
        assert report.bytes_migrated <= 8 * MiB
        # Remaining hot pages migrate in later epochs.
        total = report.pages_migrated
        for _ in range(10):
            total += mig.service([alloc]).pages_migrated
        assert total == alloc.n_pages

    def test_migration_moves_accounting(self, cfg):
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys)
        before_gpu = phys.gpu.used
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 1000)
        report = mig.service([alloc])
        assert phys.gpu.used == before_gpu + report.bytes_migrated
        assert alloc.pages_at(Location.GPU) == report.pages_migrated

    def test_counters_reset_after_migration(self, cfg):
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys, nbytes=8 * MiB)
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 1000)
        for _ in range(100):  # drain across budget-capped windows
            if mig.service([alloc]).pages_migrated == 0:
                break
        assert alloc.is_homogeneous(Location.GPU)
        # Counters were reset; a fresh service has nothing to do.
        assert mig.service([alloc]).pages_migrated == 0

    def test_region_granularity_amplifies(self, cfg):
        """Hot pages drag their whole 2 MB VA region along (Section 5.2)."""
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys, nbytes=8 * MiB)
        # Only one page is hot, but its 2 MB region (32 x 64 KB) moves.
        mig.record_gpu_accesses(alloc, PageSet.range(0, 1), 1000)
        report = mig.service([alloc])
        assert report.pages_migrated == cfg.pages_per_gpu_page

    def test_gpu_capacity_limits_migration(self, cfg):
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys)
        phys.gpu.reserve(phys.gpu.free, tag="balloon")
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 1000)
        assert mig.service([alloc]).pages_migrated == 0

    def test_stall_and_transfer_seconds_reported(self, cfg):
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys)
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 1000)
        report = mig.service([alloc])
        assert report.transfer_seconds > 0
        assert report.stall_seconds > 0

    def test_freed_allocations_skipped(self, cfg):
        mig, phys, _ = make_migrator(cfg)
        alloc = cpu_resident_alloc(cfg, phys)
        mig.record_gpu_accesses(alloc, PageSet.full(alloc.n_pages), 1000)
        alloc.freed = True
        assert mig.service([alloc]).pages_migrated == 0
