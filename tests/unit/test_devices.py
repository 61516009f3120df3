"""Unit tests for the GPU/CPU device models and the cache traffic model."""

import pytest

from repro.devices.cache import GpuCacheModel
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

    def test_stats_accumulate(self, cfg):
        gpu = GpuDevice(cfg)
        gpu.kernel_time(flops=1e9)
        gpu.kernel_time(flops=1e9)
        assert gpu.stats.kernels_launched == 2
        assert gpu.stats.flops_executed == 2e9


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
        cache = GpuCacheModel(cfg)
        plain = cache.feed(1 * GB, from_hbm=1 * GB, from_c2c=0, reuse=1.0)
        stencil = cache.feed(1 * GB, from_hbm=1 * GB, from_c2c=0, reuse=3.0)
        assert stencil == 3 * plain

    def test_negative_bytes_rejected(self, cfg):
        with pytest.raises(ValueError):
            GpuCacheModel(cfg).feed(-1, from_hbm=0, from_c2c=0)

    def test_l1l2_time_floor(self, cfg):
        cache = GpuCacheModel(cfg)
        assert cache.l1l2_time_floor(int(cfg.l1l2_bandwidth)) == pytest.approx(1.0)
