"""Unit tests for the address-translation costs — SMMU faults, GMMU
far-faults and GPU PTEs, TLB shootdowns — on the paths that charge them."""

import numpy as np
import pytest

from repro.interconnect.nvlink import NvlinkC2C
from repro.mem.coherence import AccessShape
from repro.mem.faults import FaultHandler
from repro.mem.managed import ManagedMemoryManager
from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.physical import PhysicalMemory
from repro.profiling.counters import HardwareCounters
from repro.sim.config import Location, MiB, Processor, SystemConfig


@pytest.fixture
def cfg():
    return SystemConfig()


def fault_handler(cfg):
    return FaultHandler(cfg, PhysicalMemory(cfg), HardwareCounters())


def touch(handler, n_pages, accessor):
    """Seconds ``accessor`` spends first-touching ``n_pages`` pages of a
    fresh system allocation."""
    cfg = handler.config
    alloc = Allocation(AllocKind.SYSTEM, n_pages * cfg.system_page_size, cfg)
    return handler.first_touch(alloc, PageSet.full(alloc.n_pages), accessor).seconds


def managed(cfg, nbytes):
    """A manager holding one fresh managed allocation of ``nbytes``."""
    mgr = ManagedMemoryManager(
        cfg, PhysicalMemory(cfg), NvlinkC2C(cfg), HardwareCounters()
    )
    alloc = Allocation(AllocKind.MANAGED, nbytes, cfg)
    mgr.register(alloc)
    return mgr, alloc


def page_shape(cfg):
    return AccessShape(useful_bytes=cfg.system_page_size)


class TestTlb:
    def test_shootdown_cost_and_stats(self, cfg):
        # A per-operation broadcast plus a small per-page term.
        assert cfg.tlb_shootdown_time(0) == cfg.tlb_shootdown_cost > 0
        assert cfg.tlb_shootdown_time(100) > cfg.tlb_shootdown_time(0)
        # A CPU touch retrieves the GPU-resident block: one far-fault
        # batch plus one GPU TLB shootdown of the block's pages, counted
        # once.
        mgr, alloc = managed(cfg, 2 * MiB)
        full = PageSet.full(alloc.n_pages)
        mgr.gpu_access(alloc, full, page_shape(cfg), write=True, now=0.0)
        before = mgr.counters.total.tlb_shootdowns
        out = mgr.cpu_access(
            alloc, PageSet.range(0, 1), page_shape(cfg), write=False, now=1.0
        )
        assert alloc.is_homogeneous(Location.CPU)
        retrieve = mgr._far_fault_time(1) + cfg.tlb_shootdown_time(alloc.n_pages)
        assert out.fault_seconds == retrieve
        assert mgr.counters.total.tlb_shootdowns == before + 1

    def test_shootdown_time_on_an_array_is_one_call_per_count(self, cfg):
        counts = np.array([0, 1, 7, 512, 32768, 1 << 20])
        assert cfg.tlb_shootdown_time(counts).tolist() == [
            cfg.tlb_shootdown_time(int(n)) for n in counts
        ]


class TestSmmu:
    def test_gpu_first_touch_cost_per_page(self, cfg):
        handler = fault_handler(cfg)
        one = touch(handler, 1, Processor.GPU)
        thousand = touch(handler, 1000, Processor.GPU)
        assert thousand == pytest.approx(1000 * one)
        assert handler.counters.total.gpu_replayable_faults == 1001

    def test_gpu_fault_costs_more_than_cpu_fault(self, cfg):
        handler = fault_handler(cfg)
        assert touch(handler, 10, Processor.GPU) > touch(
            handler, 10, Processor.CPU
        )

    def test_bulk_populate_cheaper_than_fault_path(self, cfg):
        handler = fault_handler(cfg)
        alloc = Allocation(AllocKind.SYSTEM, 1000 * cfg.system_page_size, cfg)
        bulk = handler.prepopulate(alloc, PageSet.full(alloc.n_pages))
        assert bulk < touch(handler, 1000, Processor.CPU)
        assert bulk < touch(handler, 1000, Processor.GPU)

    def test_autonuma_adds_hinting_cost(self):
        base = fault_handler(SystemConfig())
        numa_cfg = SystemConfig(autonuma_enable=True)
        with_numa = fault_handler(numa_cfg)
        assert touch(with_numa, 100, Processor.CPU) == pytest.approx(
            touch(base, 100, Processor.CPU)
            + 100 * numa_cfg.autonuma_hint_fault_cost
        )
        # Hinting faults are a CPU-side cost only.
        assert touch(with_numa, 100, Processor.GPU) == touch(
            base, 100, Processor.GPU
        )

    def test_zero_pages_cost_nothing(self, cfg):
        handler = fault_handler(cfg)
        alloc = Allocation(AllocKind.SYSTEM, 4 * MiB, cfg)
        for accessor in Processor:
            assert handler.first_touch(
                alloc, PageSet.empty(), accessor
            ).seconds == 0.0
        assert handler._cpu_fault_time(0) == 0.0
        assert handler.prepopulate(alloc, PageSet.empty()) == 0.0


class TestGmmu:
    def test_far_fault_per_batch(self, cfg):
        mgr, alloc = managed(cfg, 4 * MiB)
        assert mgr._far_fault_time(4) == pytest.approx(
            4 * cfg.managed_farfault_cost
        )
        assert mgr._far_fault_time(0) == 0.0
        # On-demand migration of two CPU-resident 2 MB blocks is two
        # batches.
        full = PageSet.full(alloc.n_pages)
        mgr.cpu_access(alloc, full, page_shape(cfg), write=True, now=0.0)
        out = mgr.gpu_access(alloc, full, page_shape(cfg), write=False, now=1.0)
        assert alloc.is_homogeneous(Location.GPU)
        assert out.fault_seconds == mgr._far_fault_time(2)
        assert mgr.counters.total.managed_far_faults == 2

    def test_pte_create_is_driver_cheap(self, cfg):
        # GPU first touch of one managed 2 MB block creates one GPU PTE,
        # far cheaper than an OS-handled replayable fault — the root of
        # the Section 5.1.2 asymmetry.
        mgr, alloc = managed(cfg, 2 * MiB)
        out = mgr.gpu_access(
            alloc, PageSet.full(alloc.n_pages), page_shape(cfg),
            write=True, now=0.0,
        )
        assert alloc.is_homogeneous(Location.GPU)
        assert out.fault_seconds == cfg.gpu_pte_create_cost
        assert out.fault_seconds < cfg.gpu_replayable_fault_cost
