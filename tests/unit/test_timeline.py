"""Unit tests for the structured event-timeline layer.

Covers the emission API (finished spans and instants, ring-buffer
overflow, os-id tagging in serve workers), the analysis API
(attribution, critical path), the Perfetto exporter/validator, opt-in
gating (config / session), the disabled-mode no-op guarantee, and one
real model behaviour pinned by span ordering: delayed migration lands
only after the access-counter threshold crossing.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import repro.profiling.timeline as tlmod
from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.interconnect.nvlink import NvlinkC2C
from repro.profiling.timeline import (
    Timeline,
    TimelineSession,
    maybe_timeline,
    timeline_requested,
    to_perfetto,
    validate_perfetto,
)
from repro.sim.config import MiB, Processor, SystemConfig
from tests.helpers.timeline import assert_ordering, assert_span_within


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clocked():
    clock = FakeClock()
    return clock, Timeline(time_fn=clock, name="test")


# ----------------------------------------------------------------------
# Emission and reconstruction
# ----------------------------------------------------------------------


class TestSpans:
    def test_complete_and_instant(self, clocked):
        clock, tl = clocked
        tl.complete("work", 1.0, 0.5, cat="sim", nbytes=42)
        clock.t = 2.0
        tl.instant("marker", cat="sim")
        (span,) = tl.spans("work")
        assert span.start == 1.0 and span.end == 1.5
        assert span.args["nbytes"] == 42
        (marker,) = tl.events("i")
        assert (marker.name, marker.ts) == ("marker", 2.0)

    def test_helpers(self, clocked):
        clock, tl = clocked
        tl.complete("a", 0.0, 1.0)
        tl.complete("b", 2.0, 1.0)
        assert_ordering(tl, "a", "b", strict=True)
        assert_span_within(tl, "b", 1.5, 3.5)
        with pytest.raises(AssertionError):
            assert_ordering(tl, "b", "a", strict=True)
        with pytest.raises(AssertionError):
            assert_span_within(tl, "a", 0.5, 2.0)


class TestRingBuffer:
    def test_overflow_drops_oldest_and_counts(self):
        clock = FakeClock()
        tl = Timeline(capacity=8, time_fn=clock, name="ring")
        for i in range(20):
            clock.t = float(i)
            tl.instant(f"ev{i}")
        assert len(tl) == 8
        assert tl.dropped == 12
        names = [ev.name for ev in tl.events("i")]
        assert names == [f"ev{i}" for i in range(12, 20)]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Timeline(capacity=0)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


class TestAnalysis:
    def test_attribution_excludes_nested_child_time(self, clocked):
        _, tl = clocked
        tl.complete("outer", 0.0, 4.0, cat="sim")
        tl.complete("inner", 1.0, 2.0, cat="mem")
        attr = tl.attribution(by="name")
        assert attr["inner"] == pytest.approx(2.0)
        assert attr["outer"] == pytest.approx(2.0)  # 4.0 minus inner's 2.0
        by_cat = tl.attribution(by="cat")
        assert by_cat["mem"] == pytest.approx(2.0)
        assert by_cat["sim"] == pytest.approx(2.0)

    def test_attribution_rejects_bad_key(self, clocked):
        _, tl = clocked
        with pytest.raises(ValueError):
            tl.attribution(by="nope")

    def test_critical_path_reports_idle_gaps(self, clocked):
        _, tl = clocked
        tl.complete("a", 0.0, 1.0)
        tl.complete("a-child", 0.25, 0.5)  # nested: not top-level
        tl.complete("b", 3.0, 1.0)
        path = tl.critical_path()
        assert [e["name"] for e in path] == ["a", "(idle)", "b"]
        assert path[1]["duration"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Perfetto export / validation
# ----------------------------------------------------------------------


class TestPerfetto:
    def test_export_is_valid_and_scaled(self, clocked):
        _, tl = clocked
        tl.complete("outer", 0.0, 1.0, track="t1")
        tl.complete("x", 0.5, 0.25, track="t2")
        trace = to_perfetto([tl])
        assert validate_perfetto(trace)
        (x,) = [ev for ev in trace["traceEvents"] if ev["name"] == "x"]
        assert x["ts"] == pytest.approx(0.5e6)  # microseconds
        assert x["dur"] == pytest.approx(0.25e6)
        names = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert names == {"t1", "t2"}

    def test_validator_rejects_non_monotone(self):
        trace = {"traceEvents": [
            {"ph": "i", "name": "a", "ts": 5.0, "pid": 1, "tid": 1},
            {"ph": "i", "name": "b", "ts": 1.0, "pid": 1, "tid": 1},
        ]}
        with pytest.raises(ValueError, match="monotone"):
            validate_perfetto(trace)

    def test_validator_refuses_begin_end_and_counter_events(self):
        """A timeline records finished spans and instants only, so a
        ``B``/``E`` pair or a ``C`` counter sample is an unknown phase."""
        pair = [
            {"ph": "B", "name": "x", "ts": 1.0, "pid": 1, "tid": 1},
            {"ph": "E", "name": "x", "ts": 2.0, "pid": 1, "tid": 1},
        ]
        counter = {"ph": "C", "name": "c", "ts": 1.0, "pid": 1, "tid": 2,
                   "args": {"value": 1}}
        for events in (pair, pair[:1], pair[1:], [counter]):
            with pytest.raises(ValueError, match="unknown phase"):
                validate_perfetto({"traceEvents": events})

    def test_validator_rejects_bad_x_dur(self):
        with pytest.raises(ValueError, match="dur"):
            validate_perfetto({"traceEvents": [
                {"ph": "X", "name": "x", "ts": 1.0, "pid": 1, "tid": 1},
            ]})



# ----------------------------------------------------------------------
# Opt-in gating and the disabled-mode no-op guarantee
# ----------------------------------------------------------------------


class TestGating:
    def test_off_by_default(self):
        assert not timeline_requested(SystemConfig.scaled(1 / 64))
        assert maybe_timeline(None, time.monotonic) is None

    def test_config_flag(self):
        cfg = SystemConfig.scaled(1 / 64, timeline=True)
        assert timeline_requested(cfg)
        assert maybe_timeline(cfg, time.monotonic) is not None

    def test_session_registers_and_renames(self):
        with TimelineSession() as session:
            t1 = maybe_timeline(None, time.monotonic, name="sim:chip0")
            t2 = maybe_timeline(None, time.monotonic, name="sim:chip0")
            assert session.timelines == [t1, t2]
            assert t2.name == "sim:chip0#2"
        assert maybe_timeline(None, time.monotonic) is None

    def test_session_capacity_override(self):
        with TimelineSession(capacity=32):
            tl = maybe_timeline(None, time.monotonic)
            assert tl.capacity == 32
        # Without an override a timeline holds the default capacity.
        with TimelineSession():
            tl = maybe_timeline(None, time.monotonic)
            assert tl.capacity == tlmod.DEFAULT_CAPACITY

    def test_disabled_system_emits_nothing(self):
        gh = GraceHopperSystem(SystemConfig.scaled(1 / 64))
        assert gh.timeline is None
        assert gh.clock.timeline is None
        assert gh.mem.timeline is None
        before = tlmod.TOTAL_EMITTED
        a = gh.malloc(np.float32, 1 << 16, name="a")
        gh.launch_kernel("k", [ArrayAccess.read(a)])
        gh.launch_kernel("k2", [ArrayAccess.write_(a)])
        assert tlmod.TOTAL_EMITTED == before  # hot paths did zero work

    def test_enabled_system_wires_everything(self):
        gh = GraceHopperSystem(SystemConfig.scaled(1 / 64, timeline=True))
        assert gh.timeline is not None
        assert gh.clock.timeline is gh.timeline
        assert gh.mem.timeline is gh.timeline
        assert gh.mem.managed.timeline is gh.timeline
        assert gh.mem.link.timeline is gh.timeline


# ----------------------------------------------------------------------
# OS-id tagging in serve workers
# ----------------------------------------------------------------------

RUNNER_SPEC = f"{__name__}:_tiny_runner"


def _tiny_runner(exp_id: str, kwargs: dict) -> dict:
    return {"exp": exp_id}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker tests rely on fork inheriting this module",
)
class TestServeWorkerTagging:
    def test_worker_exec_span_tags_child_pid(self):
        from repro.serve.workers import SupervisedWorkerPool

        pool = SupervisedWorkerPool(1, RUNNER_SPEC)
        tl = Timeline(time_fn=time.monotonic, tag_os_ids=True, name="serve")
        try:
            payload = pool.run_with_retry(
                "expA", {}, timeline=tl, job_id="job-1"
            )
        finally:
            child_pid = pool.workers[0].pid
            pool.close()
        assert payload == {"exp": "expA"}
        (span,) = tl.spans("worker-exec")
        assert span.args["job_id"] == "job-1"
        assert span.args["worker_pid"] == child_pid
        assert span.args["worker_pid"] != os.getpid()
        # The emitting (parent) thread/process are stamped on the event.
        (ev,) = tl.events("X")
        assert ev.pid == os.getpid()
        assert ev.tid == threading.get_ident()
        # Exported traces keep the OS ids in args.
        trace = to_perfetto([tl])
        assert validate_perfetto(trace)
        (x,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert x["args"]["os_pid"] == os.getpid()


# ----------------------------------------------------------------------
# Model behaviour pinned by ordering: delayed migration
# ----------------------------------------------------------------------


class TestMigrationOrdering:
    def _run(self, *, kernels: int, cfg=None) -> Timeline:
        """CPU-first-touch an allocation, then run GPU kernels over it;
        returns the system timeline."""
        cfg = cfg or SystemConfig.scaled(1 / 64, timeline=True, page_size=65536)
        gh = GraceHopperSystem(cfg)
        a = gh.malloc(np.uint8, 32 * MiB, name="a")
        gh.cpu_phase("init", [ArrayAccess.write_(a)])
        for i in range(kernels):
            gh.launch_kernel(f"k{i}", [ArrayAccess.read(a)])
        return gh.timeline

    def test_migration_follows_threshold_crossing(self):
        tl = self._run(kernels=3)
        # The access counters cross the threshold during the remote
        # kernels; the driver services the batch at a *later* epoch
        # boundary — strictly after the first kernel began.
        assert_ordering(tl, "cpu:init", "kernel:k0", "migrate-batch")
        (first_kernel,) = tl.spans("kernel:k0")
        for m in tl.spans("migrate-batch"):
            assert m.start > first_kernel.start
            assert m.args["pages"] > 0
        # Remote GPU reads before the migration crossed the C2C link.
        assert_ordering(tl, "kernel:k0", "migrate-batch")
        assert tl.spans(cat="fabric", track="fabric/c2c")

    def test_no_migration_below_threshold(self):
        cfg = SystemConfig.scaled(
            1 / 64, timeline=True, page_size=65536, migration_enable=False
        )
        tl = self._run(kernels=3, cfg=cfg)
        assert tl.spans("kernel:k0")
        assert tl.spans("migrate-batch") == []

    def test_migrate_batch_lasts_the_migration_transfer(self):
        """A migration's transfer time is output only by its
        ``migrate-batch`` span: ``migration_time`` of the bytes moved
        plus ``migration_range_cost``. The ``c2c:migration`` span of the
        same bytes lasts ``migration_time`` alone."""
        cfg = SystemConfig.scaled(1 / 64, timeline=True, page_size=65536)
        tl = self._run(kernels=3, cfg=cfg)
        batches = tl.spans("migrate-batch")
        transfers = tl.spans("c2c:migration")
        assert batches and len(transfers) == len(batches)
        link = NvlinkC2C(cfg)
        for batch, transfer in zip(batches, transfers):
            # One allocation: each epoch migrates at most one range.
            nbytes = batch.args["bytes"]
            t = link.migration_time(nbytes, Processor.CPU, Processor.GPU)
            assert batch.duration == t + cfg.migration_range_cost
            assert transfer.args == {"bytes": nbytes, "direction": "h2d"}
            assert transfer.duration == t
