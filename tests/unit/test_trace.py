"""Unit tests for access-trace recording and replay."""

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.arch import architecture_names
from repro.profiling.trace import AccessTrace, TraceRecord, TraceRecorder, replay
from repro.sim.config import MiB, Processor, SystemConfig


def fresh(page=65536, migration=False):
    return GraceHopperSystem(
        SystemConfig.scaled(1 / 256, page_size=page, migration_enable=migration)
    )


def record_workload(gh):
    recorder = TraceRecorder(gh.mem)
    with recorder:
        x = gh.malloc(np.float32, (1 << 20,), name="x")
        gh.cpu_phase("init", [ArrayAccess.write_(x)])
        gh.launch_kernel("sweep", [ArrayAccess.read(x)])
        gh.launch_kernel(
            "gather",
            [ArrayAccess.read(x, x.pages_of_indices(np.arange(0, 1 << 20, 50000)),
                              fraction=0.01, density=0.01)],
        )
    return recorder.trace


class TestRecording:
    def test_records_every_batch(self):
        trace = record_workload(fresh())
        assert len(trace) == 3
        assert [r.processor for r in trace] == ["cpu", "gpu", "gpu"]
        assert trace.records[0].write and not trace.records[1].write

    def test_range_pagesets_stored_compactly(self):
        trace = record_workload(fresh())
        assert trace.records[0].pages[0] == "range"

    def test_sparse_pagesets_keep_sparsity(self):
        trace = record_workload(fresh())
        rec = trace.records[2]
        # Sparse gathers must not degrade to their bounding range: either
        # exact indices or a symbolic run list is acceptable.
        assert rec.pages[0] in ("indices", "runs")
        ps = rec.pageset()
        assert ps.count < ps.stop - ps.start

    def test_recorder_restores_access(self):
        from repro.mem.subsystem import MemorySubsystem

        gh = fresh()
        with TraceRecorder(gh.mem):
            assert "access" in vars(gh.mem)  # instance-level wrapper
        assert "access" not in vars(gh.mem)
        assert gh.mem.access.__func__ is MemorySubsystem.access

    @pytest.mark.parametrize("mem_arch", architecture_names())
    def test_warm_epoch_records_every_descriptor(self, mem_arch):
        """Descriptors whose pages are all local take the access path's
        local-residency shortcut; the recorder still sees each one."""
        gh = GraceHopperSystem(
            SystemConfig.scaled(1 / 256, page_size=65536, mem_arch=mem_arch)
        )
        arrays = [
            gh.malloc(np.float32, (1 << 18,), name="sys"),
            gh.cuda_malloc_managed(np.float32, (1 << 18,), name="man"),
            gh.malloc(np.float32, (1 << 18,), name="sys2"),
        ]
        gh.launch_kernel("init", [ArrayAccess.write_(a) for a in arrays])
        local = gh.mem.arch.local_location(Processor.GPU)
        assert all(a.alloc.is_homogeneous(local) for a in arrays)
        warm = [ArrayAccess.read(a) for a in arrays] + [
            ArrayAccess.write_(arrays[1])
        ]
        with TraceRecorder(gh.mem) as recorder:
            gh.launch_kernel("warm", warm)
        assert [(r.alloc_name, r.write) for r in recorder.trace] == [
            (acc.array.alloc.name, acc.write) for acc in warm
        ]
        assert {r.processor for r in recorder.trace} == {"gpu"}

    def test_nested_recording_rejected(self):
        gh = fresh()
        rec = TraceRecorder(gh.mem)
        with rec:
            with pytest.raises(RuntimeError):
                rec.__enter__()

    def test_analysis_helpers(self):
        trace = record_workload(fresh())
        assert trace.gpu_write_fraction() == 0.0
        fp = trace.footprint_bytes()
        assert "x" in fp and fp["x"] > 0


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        trace = record_workload(fresh())
        path = trace.save(tmp_path / "trace.jsonl")
        loaded = AccessTrace.load(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.alloc_name == b.alloc_name
            assert a.pageset().count == b.pageset().count
            assert a.shape().density == b.shape().density


class TestReplay:
    def test_replay_reproduces_traffic(self):
        trace = record_workload(fresh())
        gh2 = fresh()
        summary = replay(trace, gh2)
        assert summary["allocations"] == 1
        assert summary["batches"] == 3
        # Same config -> same remote traffic as a fresh run would see.
        gh3 = fresh()
        record_workload(gh3)
        assert summary["c2c_read_bytes"] == (
            gh3.counters.total.c2c_read_bytes
        )

    def test_replay_onto_other_page_size(self):
        trace = record_workload(fresh(page=65536))
        small = fresh(page=4096)
        summary = replay(trace, small)
        assert summary["replay_seconds"] > 0
        # More, smaller pages -> more CPU faults during replay.
        assert small.counters.total.cpu_page_faults > 0

    def test_replay_with_migration_enabled(self):
        gh = fresh(migration=True)
        recorder = TraceRecorder(gh.mem)
        with recorder:
            x = gh.malloc(np.float32, (1 << 20,), name="x")
            gh.cpu_phase("init", [ArrayAccess.write_(x)])
            for i in range(6):
                gh.launch_kernel(f"sweep{i}", [ArrayAccess.read(x)])
        target = fresh(migration=True)
        summary = replay(recorder.trace, target)
        assert summary["pages_migrated_h2d"] > 0
