"""Unit tests for the GPU/CPU device models and the cache traffic model."""

import pytest

from repro.devices.cpu import CpuDevice
from repro.devices.gpu import GpuDevice
from repro.sim.config import SystemConfig

GB = 10**9


@pytest.fixture
def cfg():
    return SystemConfig()


class TestGpuDevice:
    def test_context_init_charged_once(self, cfg):
        gpu = GpuDevice(cfg)
        assert gpu.context_init_time() == cfg.context_init_cost
        assert gpu.context_init_time() == 0.0

    def test_bandwidth_bound_kernel(self, cfg):
        gpu = GpuDevice(cfg)
        gpu.context_initialized = True
        t = gpu.kernel_time(hbm_bytes=34 * GB)
        assert t == pytest.approx(
            cfg.kernel_launch_cost + 34 * GB / cfg.hbm_bandwidth, rel=0.01
        )

    def test_compute_bound_kernel(self, cfg):
        gpu = GpuDevice(cfg)
        t = gpu.kernel_time(flops=cfg.gpu_flops, hbm_bytes=1)
        assert t >= 1.0

    def test_compute_and_hbm_overlap(self, cfg):
        gpu = GpuDevice(cfg)
        both = gpu.kernel_time(flops=cfg.gpu_flops, hbm_bytes=34 * GB)
        assert both < 1.0 + 34 * GB / cfg.hbm_bandwidth  # max, not sum

    def test_fault_and_stall_serialise(self, cfg):
        gpu = GpuDevice(cfg)
        base = gpu.kernel_time(hbm_bytes=1 * GB)
        loaded = gpu.kernel_time(
            hbm_bytes=1 * GB, fault_time=0.5, stall_time=0.25
        )
        assert loaded == pytest.approx(base + 0.75, rel=0.01)

    def test_l1l2_floor_applies(self, cfg):
        gpu = GpuDevice(cfg)
        t = gpu.kernel_time(l1l2_bytes=int(7 * 1e12))
        assert t >= 1.0


class TestCpuDevice:
    def test_single_thread_bandwidth(self, cfg):
        cpu = CpuDevice(cfg)
        t = cpu.phase_time(bytes_processed=12 * GB)
        assert t == pytest.approx(12 * GB / cfg.cpu_single_thread_bandwidth)

    def test_threads_cap_at_memory_bandwidth(self, cfg):
        cpu = CpuDevice(cfg)
        t72 = cpu.phase_time(bytes_processed=486 * GB, threads=72)
        assert t72 == pytest.approx(1.0, rel=0.01)  # LPDDR5X-bound

    def test_threads_cap_at_core_count(self, cfg):
        cpu = CpuDevice(cfg)
        assert cpu.phase_time(bytes_processed=1 * GB, threads=1000) == (
            cpu.phase_time(bytes_processed=1 * GB, threads=72)
        )

    def test_rejects_zero_threads(self, cfg):
        with pytest.raises(ValueError):
            CpuDevice(cfg).phase_time(bytes_processed=1, threads=0)

    def test_fixed_time_adds(self, cfg):
        cpu = CpuDevice(cfg)
        assert cpu.phase_time(fixed_time=0.5) == pytest.approx(0.5)


class TestCacheModel:
    def test_reuse_inflates_l1l2(self, cfg):
        gpu = GpuDevice(cfg)
        plain = gpu.l1l2_bytes(1 * GB, reuse=1.0)
        stencil = gpu.l1l2_bytes(1 * GB, reuse=3.0)
        assert plain == 1 * GB
        assert stencil == 3 * plain
        assert gpu.l1l2_bytes(1 * GB, reuse=0.5) == plain  # floor at 1x

    def test_negative_bytes_rejected(self, cfg):
        with pytest.raises(ValueError):
            GpuDevice(cfg).l1l2_bytes(-1)

    def test_l1l2_time_floor(self, cfg):
        # One second of L1<->L2 traffic floors an otherwise empty kernel.
        gpu = GpuDevice(cfg)
        assert gpu.kernel_time(l1l2_bytes=int(cfg.l1l2_bandwidth)) == (
            pytest.approx(cfg.kernel_launch_cost + 1.0)
        )
