"""Unit tests for the profiling tools (Section 3.2)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.profiling.counters import CounterSet, HardwareCounters, Histogram
from repro.profiling.memprofiler import MemoryProfile, MemoryProfiler, MemorySample
from repro.profiling.nsight import NsightTrace
from repro.sim.config import MiB, SystemConfig


@pytest.fixture
def gh():
    return GraceHopperSystem(SystemConfig.scaled(1 / 256, page_size=65536))


class TestCounterSet:
    def test_snapshot_and_delta(self):
        c = CounterSet(hbm_read_bytes=100)
        snap = c.snapshot()
        c.add(hbm_read_bytes=50, c2c_read_bytes=10)
        d = c.delta(snap)
        assert d.hbm_read_bytes == 50
        assert d.c2c_read_bytes == 10

    def test_as_dict_roundtrip(self):
        c = CounterSet(lpddr_read_bytes=3)
        assert c.as_dict()["lpddr_read_bytes"] == 3

    def test_snapshot_and_delta_match_the_field_by_field_form(self):
        names = [f.name for f in fields(CounterSet)]
        later = CounterSet(**{n: 1000 + 7 * i for i, n in enumerate(names)})
        earlier = CounterSet(**{n: 3 * i for i, n in enumerate(names)})
        snap = later.snapshot()
        assert snap is not later
        assert snap == CounterSet(**{n: getattr(later, n) for n in names})
        assert later.delta(earlier) == CounterSet(
            **{n: getattr(later, n) - getattr(earlier, n) for n in names}
        )


class TestKernelRecords:
    def test_per_kernel_traffic_capture(self, gh):
        x = gh.cuda_malloc(np.float32, (1 << 20,))
        gh.launch_kernel("warmup", [])
        gh.launch_kernel("k", [ArrayAccess.read(x)])
        rec = gh.counters.kernel_records[-1]
        assert rec.kernel == "k"
        assert rec.counters.hbm_read_bytes > 0
        assert rec.duration > 0

    def test_tier_throughput_decomposition(self, gh):
        x = gh.cuda_malloc(np.float32, (1 << 20,))
        gh.launch_kernel("warmup", [])
        gh.launch_kernel("k", [ArrayAccess.read(x)])
        tiers = gh.counters.kernel_records[-1].tier_throughput()
        assert tiers["gpu_memory"] > 0
        assert tiers["nvlink_c2c"] == 0
        assert tiers["l1l2"] > 0


class TestMemoryProfiler:
    def test_sampling_over_time(self, gh):
        profiler = MemoryProfiler(gh.clock, gh.mem, period=0.1)
        with profiler:
            x = gh.malloc(np.uint8, (64 * MiB,))
            gh.cpu_phase("init", [ArrayAccess.write_(x)])
            gh.clock.advance(0.5)
        prof = profiler.profile
        assert len(prof.samples) >= 5
        assert prof.peak_rss_bytes() >= 64 * MiB

    def test_gpu_series_includes_driver_baseline(self, gh):
        profiler = MemoryProfiler(gh.clock, gh.mem, period=0.05)
        with profiler:
            gh.clock.advance(0.2)
        assert min(profiler.profile.gpu_series) == gh.config.gpu_driver_baseline_bytes

    def test_annotations(self, gh):
        profiler = MemoryProfiler(gh.clock, gh.mem, period=0.1)
        with profiler:
            gh.clock.advance(0.15)
            profiler.annotate("compute-start")
        assert profiler.profile.annotations[0][1] == "compute-start"

    def test_at_lookup(self):
        prof = MemoryProfile(
            samples=[
                MemorySample(0.0, 0, 0),
                MemorySample(0.1, 100, 0),
                MemorySample(0.2, 200, 0),
            ]
        )
        assert prof.at(0.15).rss_bytes == 100
        assert prof.at(5.0).rss_bytes == 200

    def test_at_empty_raises(self):
        with pytest.raises(ValueError):
            MemoryProfile().at(0.0)

    def test_double_start_rejected(self, gh):
        profiler = MemoryProfiler(gh.clock, gh.mem)
        profiler.start()
        with pytest.raises(RuntimeError):
            profiler.start()


class TestNsightTrace:
    def test_system_faults_hidden_by_default(self, gh):
        """The paper notes Nsight only reports managed-memory faults."""
        x = gh.malloc(np.uint8, (4 * MiB,))
        gh.launch_kernel("touch", [ArrayAccess.write_(x)])
        trace = NsightTrace(gh.clock, gh.counters, gh.mem)
        summary = trace.fault_summary()
        assert summary.gpu_replayable_faults is None
        full = trace.fault_summary(include_system=True)
        assert full.gpu_replayable_faults > 0

    def test_kernel_timeline(self, gh):
        gh.launch_kernel("a", [])
        trace = NsightTrace(gh.clock, gh.counters, gh.mem)
        timeline = trace.kernel_timeline()
        assert timeline[0]["kernel"] == "a"
        assert timeline[0]["duration"] > 0


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.snapshot()["count"] == 0

    def test_mean_min_max(self):
        h = Histogram()
        for v in (0.1, 0.2, 0.3):
            h.record(v)
        assert h.mean == pytest.approx(0.2)
        assert h.min == pytest.approx(0.1)
        assert h.max == pytest.approx(0.3)

    def test_percentile_is_conservative_upper_bound(self):
        h = Histogram()
        samples = [0.001 * (i + 1) for i in range(100)]
        for v in samples:
            h.record(v)
        # bucket upper edges over-estimate, never under-estimate by more
        # than one bucket's width (base 2 => within 2x)
        p50 = h.percentile(50)
        assert 0.05 <= p50 <= 0.1001
        assert h.percentile(100) == pytest.approx(h.max)

    def test_nine_orders_of_magnitude(self):
        h = Histogram()
        for v in (1e-6, 1e-3, 1.0, 1e3):
            h.record(v)
        assert h.count == 4
        assert h.percentile(1) <= 1e-4  # clamped into the first bucket
        assert h.percentile(99) == pytest.approx(1e3)

    def test_snapshot_is_json_able(self):
        import json

        h = Histogram()
        h.record(0.42)
        assert json.loads(json.dumps(h.snapshot()))["count"] == 1
