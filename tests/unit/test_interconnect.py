"""Unit tests for the NVLink-C2C link and the explicit copy engine."""

import pytest

from repro.interconnect.copyengine import CopyEngine
from repro.interconnect.nvlink import NvlinkC2C
from repro.sim.config import Processor, SystemConfig


@pytest.fixture
def cfg():
    return SystemConfig()


@pytest.fixture
def link(cfg):
    return NvlinkC2C(cfg)


GB = 10**9


class TestNvlink:
    def test_streaming_time_uses_directional_bandwidth(self, link, cfg):
        h2d = link.streaming_time(10 * GB, Processor.CPU, Processor.GPU)
        d2h = link.streaming_time(10 * GB, Processor.GPU, Processor.CPU)
        assert h2d == pytest.approx(10 * GB / cfg.c2c_h2d_bandwidth, rel=0.01)
        assert d2h > h2d  # D2H is the slower direction (297 vs 375 GB/s)

    def test_remote_access_slower_than_streaming(self, link):
        stream = link.streaming_time(1 * GB, Processor.CPU, Processor.GPU)
        remote = link.remote_access_time(1 * GB, Processor.GPU)
        assert remote > stream

    def test_remote_access_custom_efficiency(self, link):
        fast = link.remote_access_time(1 * GB, Processor.GPU, efficiency=0.8)
        slow = link.remote_access_time(1 * GB, Processor.GPU, efficiency=0.25)
        assert slow > 3 * fast * 0.9

    def test_migration_runs_below_streaming_rate(self, link):
        stream = link.streaming_time(1 * GB, Processor.CPU, Processor.GPU)
        migrate = link.migration_time(1 * GB, Processor.CPU, Processor.GPU)
        assert migrate > stream

    def test_traffic_accounting(self, link):
        link.streaming_time(5 * GB, Processor.CPU, Processor.GPU)
        link.streaming_time(3 * GB, Processor.GPU, Processor.CPU)
        assert link.stats.h2d_bytes == 5 * GB
        assert link.stats.d2h_bytes == 3 * GB
        assert link.stats.total_bytes == 8 * GB

    def test_achieved_bandwidth(self, link, cfg):
        link.streaming_time(50 * GB, Processor.CPU, Processor.GPU)
        bw = link.achieved_bandwidth("h2d")
        assert bw == pytest.approx(cfg.c2c_h2d_bandwidth, rel=0.01)
        with pytest.raises(ValueError):
            link.achieved_bandwidth("sideways")

    def test_zero_bytes_is_free(self, link):
        assert link.streaming_time(0, Processor.CPU, Processor.GPU) == 0.0
        assert link.remote_access_time(0, Processor.GPU) == 0.0


class TestCopyEngine:
    def test_pageable_copy_slower_than_pinned(self, cfg, link):
        eng = CopyEngine(cfg, link)
        pinned = eng.memcpy(1 * GB, Processor.CPU, Processor.GPU, pinned=True)
        pageable = eng.memcpy(1 * GB, Processor.CPU, Processor.GPU, pinned=False)
        assert pageable > pinned

    def test_call_overhead_on_empty_copy(self, cfg, link):
        eng = CopyEngine(cfg, link)
        assert eng.memcpy(0, Processor.CPU, Processor.GPU) == pytest.approx(
            cfg.cuda_memcpy_call_cost
        )

    def test_d2d_copy_uses_hbm(self, cfg, link):
        eng = CopyEngine(cfg, link)
        t = eng.memcpy(1 * GB, Processor.GPU, Processor.GPU)
        assert t == pytest.approx(
            cfg.cuda_memcpy_call_cost + 1 * GB / cfg.hbm_bandwidth
        )

    def test_negative_size_rejected(self, cfg, link):
        eng = CopyEngine(cfg, link)
        with pytest.raises(ValueError):
            eng.memcpy(-1, Processor.CPU, Processor.GPU)
