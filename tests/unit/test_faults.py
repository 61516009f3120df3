"""Unit tests for first-touch fault handling (system memory)."""

import pytest

from repro.mem.faults import FaultHandler
from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.physical import PhysicalMemory
from repro.profiling.counters import HardwareCounters
from repro.sim.config import (
    FirstTouchPolicy,
    Location,
    MiB,
    Processor,
    SystemConfig,
)


def make_handler(cfg):
    phys = PhysicalMemory(cfg)
    counters = HardwareCounters()
    return FaultHandler(cfg, phys, counters), phys, counters


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 256)  # small pools for spill tests


class TestFirstTouchPlacement:
    def test_cpu_touch_places_on_cpu(self, cfg):
        handler, phys, _ = make_handler(cfg)
        alloc = Allocation(AllocKind.SYSTEM, 64 * MiB, cfg)
        out = handler.first_touch(alloc, PageSet.full(alloc.n_pages), Processor.CPU)
        assert out.pages_on_cpu == alloc.n_pages
        assert alloc.is_homogeneous(Location.CPU)
        assert phys.cpu.used == alloc.bytes_at(Location.CPU)

    def test_gpu_touch_places_on_gpu(self, cfg):
        handler, phys, _ = make_handler(cfg)
        alloc = Allocation(AllocKind.SYSTEM, 64 * MiB, cfg)
        out = handler.first_touch(alloc, PageSet.full(alloc.n_pages), Processor.GPU)
        assert out.pages_on_gpu == alloc.n_pages
        assert alloc.is_homogeneous(Location.GPU)

    def test_gpu_touch_spills_to_cpu_when_gpu_full(self, cfg):
        handler, phys, _ = make_handler(cfg)
        phys.gpu.reserve(phys.gpu.free - 4 * MiB, tag="balloon")
        alloc = Allocation(AllocKind.SYSTEM, 16 * MiB, cfg)
        out = handler.first_touch(alloc, PageSet.full(alloc.n_pages), Processor.GPU)
        assert out.pages_on_gpu == 4 * MiB // cfg.system_page_size
        assert out.pages_on_cpu == alloc.n_pages - out.pages_on_gpu

    def test_cpu_always_policy(self):
        cfg = SystemConfig.scaled(
            1 / 256, first_touch_policy=FirstTouchPolicy.CPU_ALWAYS
        )
        handler, _, _ = make_handler(cfg)
        alloc = Allocation(AllocKind.SYSTEM, 16 * MiB, cfg)
        out = handler.first_touch(alloc, PageSet.full(alloc.n_pages), Processor.GPU)
        assert out.pages_on_gpu == 0
        assert out.pages_on_cpu == alloc.n_pages


class TestFaultCosts:
    def test_gpu_faults_cost_more_than_cpu_faults(self, cfg):
        handler, _, _ = make_handler(cfg)
        a = Allocation(AllocKind.SYSTEM, 16 * MiB, cfg)
        b = Allocation(AllocKind.SYSTEM, 16 * MiB, cfg)
        gpu = handler.first_touch(a, PageSet.full(a.n_pages), Processor.GPU)
        cpu = handler.first_touch(b, PageSet.full(b.n_pages), Processor.CPU)
        assert gpu.seconds > cpu.seconds

    def test_fault_zeroing_term_is_page_size_independent(self):
        results = {}
        for page in (4096, 65536):
            cfg = SystemConfig.scaled(1 / 256, page_size=page)
            handler, _, _ = make_handler(cfg)
            a = Allocation(AllocKind.SYSTEM, 64 * MiB, cfg)
            out = handler.first_touch(a, PageSet.full(a.n_pages), Processor.GPU)
            results[page] = out.seconds
        # The ratio is below the naive 16x page-count ratio because of the
        # per-byte zeroing term (the paper's ~5x Figure 9 effect).
        ratio = results[4096] / results[65536]
        assert 2.0 < ratio < 16.0

    def test_counters_record_fault_kind(self, cfg):
        handler, _, counters = make_handler(cfg)
        a = Allocation(AllocKind.SYSTEM, 4 * MiB, cfg)
        handler.first_touch(a, PageSet.range(0, 10), Processor.GPU)
        handler.first_touch(a, PageSet.range(10, 20), Processor.CPU)
        assert counters.total.gpu_replayable_faults == 10
        assert counters.total.cpu_page_faults == 10

    def test_empty_pageset_is_free(self, cfg):
        handler, _, _ = make_handler(cfg)
        a = Allocation(AllocKind.SYSTEM, 4 * MiB, cfg)
        out = handler.first_touch(a, PageSet.empty(), Processor.GPU)
        assert out.seconds == 0.0


class TestPrepopulate:
    def test_prepopulate_places_cpu_and_is_cheaper_than_gpu_faults(self, cfg):
        handler, _, _ = make_handler(cfg)
        a = Allocation(AllocKind.SYSTEM, 64 * MiB, cfg)
        b = Allocation(AllocKind.SYSTEM, 64 * MiB, cfg)
        t_pre = handler.prepopulate(a, PageSet.full(a.n_pages))
        t_fault = handler.first_touch(
            b, PageSet.full(b.n_pages), Processor.GPU
        ).seconds
        assert a.is_homogeneous(Location.CPU)
        assert t_pre < t_fault

    def test_prepopulate_skips_mapped_pages(self, cfg):
        handler, _, _ = make_handler(cfg)
        a = Allocation(AllocKind.SYSTEM, 64 * MiB, cfg)
        handler.first_touch(a, PageSet.full(a.n_pages), Processor.CPU)
        assert handler.prepopulate(a, PageSet.full(a.n_pages)) == 0.0
