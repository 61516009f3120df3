"""Unit tests for kernel execution and the GraceHopperSystem runtime."""

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.pagetable import AllocKind
from repro.sim.config import MiB, SystemConfig


@pytest.fixture
def gh():
    return GraceHopperSystem(SystemConfig.scaled(1 / 256, page_size=65536))


class TestAllocationApis:
    def test_malloc_needs_no_context(self, gh):
        gh.malloc(np.float32, (1024,))
        assert not gh.gpu.context_initialized

    def test_cuda_apis_create_context(self, gh):
        gh.cuda_malloc_managed(np.float32, (1024,))
        assert gh.gpu.context_initialized

    def test_context_charged_once(self, gh):
        gh.cuda_malloc(np.float32, (1024,))
        t1 = gh.now
        gh.cuda_malloc(np.float32, (1024,))
        assert gh.now - t1 < gh.config.context_init_cost

    def test_each_api_returns_right_kind(self, gh):
        assert gh.malloc(np.int8, (8,)).alloc.kind is AllocKind.SYSTEM
        assert (
            gh.cuda_malloc_managed(np.int8, (8,)).alloc.kind is AllocKind.MANAGED
        )
        assert gh.cuda_malloc(np.int8, (8,)).alloc.kind is AllocKind.DEVICE
        assert (
            gh.cuda_malloc_host(np.int8, (8,)).alloc.kind is AllocKind.HOST_PINNED
        )
        assert (
            gh.numa_alloc_onnode(np.int8, (8,)).alloc.kind is AllocKind.NUMA_CPU
        )

    def test_free_advances_clock(self, gh):
        x = gh.malloc(np.uint8, (4 * MiB,))
        gh.cpu_phase("touch", [ArrayAccess.write_(x)])
        t0 = gh.now
        gh.free(x)
        assert gh.now > t0

    def test_init_on_alloc_costs_at_malloc(self):
        slow = GraceHopperSystem(
            SystemConfig.scaled(1 / 256, init_on_alloc=True)
        )
        fast = GraceHopperSystem(SystemConfig.scaled(1 / 256))
        slow.malloc(np.uint8, (64 * MiB,))
        fast.malloc(np.uint8, (64 * MiB,))
        assert slow.now > fast.now


class TestKernelLaunch:
    def test_first_launch_includes_context_in_system_workflow(self, gh):
        x = gh.malloc(np.float32, (1 << 20,))
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        rec = gh.launch_kernel("k", [ArrayAccess.read(x)])
        assert rec.context_init_seconds == gh.config.context_init_cost
        rec2 = gh.launch_kernel("k2", [ArrayAccess.read(x)])
        assert rec2.context_init_seconds == 0.0

    def test_kernel_duration_scales_with_traffic(self, gh):
        small = gh.cuda_malloc(np.float32, (1 << 16,))
        big = gh.cuda_malloc(np.float32, (1 << 22,))
        gh.launch_kernel("warmup", [])
        a = gh.launch_kernel("small", [ArrayAccess.read(small)])
        b = gh.launch_kernel("big", [ArrayAccess.read(big)])
        assert b.duration > a.duration

    def test_compute_bound_kernel(self, gh):
        gh.launch_kernel("warmup", [])
        rec = gh.launch_kernel("flops", [], flops=1e12)
        assert rec.duration >= 1e12 / gh.config.gpu_flops

    def test_remote_access_serialises(self, gh):
        x = gh.malloc(np.float32, (1 << 22,))
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        gh.launch_kernel("warmup", [])
        remote = gh.launch_kernel("remote", [ArrayAccess.read(x)])
        assert remote.result.remote_seconds > 0
        assert remote.duration > remote.result.remote_seconds

    def test_compute_callback_runs(self, gh):
        hit = []
        gh.launch_kernel("cb", [], compute=lambda: hit.append(1))
        assert hit == [1]


class TestCpuPhase:
    def test_single_thread_bandwidth_bound(self, gh):
        x = gh.malloc(np.uint8, (64 * MiB,))
        rec = gh.cpu_phase("init", [ArrayAccess.write_(x)])
        floor = 64 * MiB / gh.config.cpu_single_thread_bandwidth
        assert rec.duration >= floor

    def test_threads_speed_up(self, gh):
        x = gh.malloc(np.uint8, (64 * MiB,))
        gh.cpu_phase("touch", [ArrayAccess.write_(x)])
        serial = gh.cpu_phase("serial", [ArrayAccess.read(x)], threads=1)
        parallel = gh.cpu_phase("par", [ArrayAccess.read(x)], threads=72)
        assert parallel.duration < serial.duration

    def test_fixed_time(self, gh):
        rec = gh.cpu_phase("parse", [], fixed_time=0.25)
        assert rec.duration == pytest.approx(0.25)


class TestDataMovement:
    def test_memcpy_h2d_copies_data(self, gh):
        host = gh.malloc(np.float32, (1024,), materialize=True)
        dev = gh.cuda_malloc(np.float32, (1024,), materialize=True)
        host.np[:] = 7.0
        gh.memcpy_h2d(dev, host)
        assert (dev.np == 7.0).all()

    def test_memcpy_pinned_faster_than_pageable(self, gh):
        pinned = gh.cuda_malloc_host(np.uint8, (64 * MiB,))
        pageable = gh.malloc(np.uint8, (64 * MiB,))
        gh.cpu_phase("touch", [ArrayAccess.write_(pageable)])
        dev = gh.cuda_malloc(np.uint8, (64 * MiB,))
        t_pin = gh.memcpy_h2d(dev, pinned)
        t_page = gh.memcpy_h2d(dev, pageable)
        assert t_pin < t_page

    def test_device_synchronize_advances(self, gh):
        t0 = gh.now
        gh.device_synchronize()
        assert gh.now > t0


class TestBalloon:
    def test_balloon_reduces_free_memory(self, gh):
        free0 = gh.free_gpu_memory()
        gh.install_balloon(free0 // 2)
        assert gh.free_gpu_memory() == pytest.approx(free0 / 2, rel=0.01)

    def test_double_balloon_rejected(self, gh):
        gh.install_balloon(1024)
        with pytest.raises(RuntimeError):
            gh.install_balloon(1024)

    def test_remove_balloon_restores(self, gh):
        free0 = gh.free_gpu_memory()
        gh.install_balloon(free0 // 2)
        gh.remove_balloon()
        assert gh.free_gpu_memory() == free0

    def test_oversubscription_ratio(self, gh):
        free = gh.free_gpu_memory()
        assert gh.oversubscription_ratio(2 * free) == pytest.approx(2.0)

    def test_set_migration_threshold_validates(self, gh):
        gh.set_migration_threshold(512)
        assert gh.config.migration_threshold == 512
        with pytest.raises(ValueError):
            gh.set_migration_threshold(0)
