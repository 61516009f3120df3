"""Unit tests for phase timing and the Figure 2 porting transformation."""

import numpy as np
import pytest

from repro.core.phases import Phase, PhaseBreakdown, PhaseTimer
from repro.core.porting import MemoryMode, UnifiedBuffer
from repro.core.runtime import GraceHopperSystem
from repro.mem.pagetable import AllocKind
from repro.sim.config import SystemConfig


@pytest.fixture
def gh():
    return GraceHopperSystem(SystemConfig.scaled(1 / 256, page_size=65536))


class TestPhaseTimer:
    def test_phases_accumulate(self, gh):
        timer = PhaseTimer(gh.clock)
        with timer.measure(Phase.COMPUTE):
            gh.clock.advance(0.5)
        with timer.measure(Phase.COMPUTE):
            gh.clock.advance(0.25)
        assert timer.breakdown.compute == pytest.approx(0.75)

    def test_total_and_reported_total(self, gh):
        timer = PhaseTimer(gh.clock)
        with timer.measure(Phase.CONTEXT):
            gh.clock.advance(0.35)
        with timer.measure(Phase.CPU_INIT):
            gh.clock.advance(2.0)
        with timer.measure(Phase.COMPUTE):
            gh.clock.advance(1.0)
        b = timer.breakdown
        assert b.total == pytest.approx(3.35)
        # Reported totals exclude context and CPU-side init (Section 3.1).
        assert b.reported_total == pytest.approx(1.0)

    def test_as_dict_has_all_phases(self):
        b = PhaseBreakdown()
        assert set(b.as_dict()) == {p.value for p in Phase}


class TestUnifiedBuffer:
    def test_explicit_mode_creates_pair(self, gh):
        buf = UnifiedBuffer(gh, MemoryMode.EXPLICIT, np.float32, (1024,), name="x")
        assert not buf.unified
        assert buf.cpu_target.alloc.kind is AllocKind.SYSTEM
        assert buf.gpu_target.alloc.kind is AllocKind.DEVICE

    def test_system_mode_single_buffer(self, gh):
        buf = UnifiedBuffer(gh, MemoryMode.SYSTEM, np.float32, (1024,), name="x")
        assert buf.unified
        assert buf.cpu_target is buf.gpu_target
        assert buf.gpu_target.alloc.kind is AllocKind.SYSTEM

    def test_managed_mode_single_buffer(self, gh):
        buf = UnifiedBuffer(gh, MemoryMode.MANAGED, np.float32, (1024,), name="x")
        assert buf.unified
        assert buf.gpu_target.alloc.kind is AllocKind.MANAGED

    def test_gpu_only_buffer_is_device_in_all_modes(self, gh):
        for mode in MemoryMode:
            buf = UnifiedBuffer(
                gh, mode, np.float32, (64,), name=f"s{mode.value}", gpu_only=True
            )
            assert buf.gpu_target.alloc.kind is AllocKind.DEVICE
            with pytest.raises(PermissionError):
                _ = buf.cpu_target

    def test_h2d_copies_only_in_explicit_mode(self, gh):
        exp = UnifiedBuffer(gh, MemoryMode.EXPLICIT, np.uint8, (1 << 20,), name="e")
        uni = UnifiedBuffer(gh, MemoryMode.SYSTEM, np.uint8, (1 << 20,), name="u")
        assert exp.h2d() > 0
        assert uni.h2d() == 0.0

    def test_d2h_synchronizes_in_unified_modes(self, gh):
        uni = UnifiedBuffer(gh, MemoryMode.MANAGED, np.uint8, (1024,), name="u")
        t0 = gh.now
        assert uni.d2h() == 0.0
        assert gh.now > t0  # the added cudaDeviceSynchronize (Section 3.1)

    def test_free_releases_both_sides(self, gh):
        before = gh.mem.physical.gpu.used
        buf = UnifiedBuffer(gh, MemoryMode.EXPLICIT, np.uint8, (1 << 20,), name="e")
        buf.free()
        assert gh.mem.physical.gpu.used == before
