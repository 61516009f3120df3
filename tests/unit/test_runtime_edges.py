"""Edge-path tests for the runtime, profiler views, and engine."""

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.profiling.nsight import NsightTrace
from repro.sim.config import Location, MiB, SystemConfig


@pytest.fixture
def gh():
    return GraceHopperSystem(SystemConfig.scaled(1 / 128, page_size=65536))


class TestMemcpySemantics:
    def test_d2h_copies_data_back(self, gh):
        dev = gh.cuda_malloc(np.float32, (256,), materialize=True)
        host = gh.malloc(np.float32, (256,), materialize=True)
        dev.np[:] = 5.0
        gh.memcpy_d2h(host, dev)
        assert (host.np == 5.0).all()

    def test_mismatched_sizes_copy_min(self, gh):
        dev = gh.cuda_malloc(np.float32, (128,), materialize=True)
        host = gh.malloc(np.float32, (256,), materialize=True)
        dev.np[:] = 2.0
        host.np[:] = 1.0
        gh.memcpy_d2h(host, dev)
        assert (host.np[:128] == 2.0).all()
        assert (host.np[128:] == 1.0).all()

    def test_memcpy_touches_host_pages(self, gh):
        host = gh.malloc(np.uint8, (4 * MiB,))
        dev = gh.cuda_malloc(np.uint8, (4 * MiB,))
        assert host.alloc.mapped_pages == 0
        gh.memcpy_h2d(dev, host)  # the copy faults the source in
        assert host.alloc.mapped_pages == host.alloc.n_pages

    def test_explicit_copy_counter(self, gh):
        host = gh.malloc(np.uint8, (1 * MiB,))
        dev = gh.cuda_malloc(np.uint8, (1 * MiB,))
        gh.memcpy_h2d(dev, host)
        assert gh.counters.total.explicit_copy_bytes == 1 * MiB


class TestFreeSemantics:
    def test_free_updates_rss(self, gh):
        x = gh.malloc(np.uint8, (4 * MiB,))
        gh.cpu_phase("touch", [ArrayAccess.write_(x)])
        assert gh.mem.process_rss_bytes() > 0
        gh.free(x)
        assert gh.mem.process_rss_bytes() == 0

    def test_free_of_partially_gpu_resident_system_alloc(self, gh):
        x = gh.malloc(np.uint8, (8 * MiB,))
        gh.cpu_phase("touch-half", [
            ArrayAccess.write_(x, x.pages_of_elements(0, 4 * MiB))
        ])
        gh.launch_kernel("touch-rest", [
            ArrayAccess.write_(x, x.pages_of_elements(4 * MiB, 8 * MiB))
        ])
        assert x.alloc.pages_at(Location.GPU) > 0
        gpu_before = gh.mem.physical.gpu.used
        gh.free(x)
        assert gh.mem.physical.gpu.used < gpu_before


class TestNsightViews:
    def test_migration_events_surface_prefetch(self):
        gh = GraceHopperSystem(
            SystemConfig.scaled(1 / 128, page_size=65536, timeline=True)
        )
        arr = gh.cuda_malloc_managed(np.uint8, (4 * MiB,))
        gh.cpu_phase("init", [ArrayAccess.write_(arr)])
        gh.prefetch_to_gpu(arr)
        trace = NsightTrace(gh.clock, gh.counters, gh.mem)
        events = trace.migration_events()
        assert any("prefetch" in e.get("name", "") for e in events)

    def test_migration_events_need_a_timeline(self, gh):
        trace = NsightTrace(gh.clock, gh.counters, gh.mem)
        with pytest.raises(RuntimeError, match="timeline"):
            trace.migration_events()

    def test_kernel_timeline_ordering(self, gh):
        gh.launch_kernel("first", [])
        gh.launch_kernel("second", [])
        timeline = NsightTrace(gh.clock, gh.counters, gh.mem).kernel_timeline()
        assert [r["kernel"] for r in timeline] == ["first", "second"]
        assert timeline[0]["start"] <= timeline[1]["start"]


class TestHostRegisterInteraction:
    def test_register_then_gpu_touch_stays_cpu_resident(self, gh):
        x = gh.malloc(np.uint8, (4 * MiB,))
        gh.host_register(x)
        gh.launch_kernel("read", [ArrayAccess.read(x)])
        # Pre-populated pages are CPU-resident; GPU reads them remotely
        # without relocating them (migration handles that separately).
        assert x.alloc.is_homogeneous(Location.CPU)
        assert gh.counters.total.gpu_replayable_faults == 0

    def test_preinit_loop_has_no_cuda_context_side_effect(self, gh):
        x = gh.malloc(np.uint8, (1 * MiB,))
        gh.preinit_loop(x)
        assert not gh.gpu.context_initialized
