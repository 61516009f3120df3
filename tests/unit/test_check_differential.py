"""Differential conformance: batched production path vs naive reference.

Each test records a trace from a live system, then replays it through
both :func:`repro.profiling.trace.replay` (the production batched path)
and :class:`repro.check.ReferenceSystem` (a deliberately naive per-page
executor) and requires *exact* equality of every hardware counter, the
link's per-class bytes and per-direction seconds, and the accumulated
replay time.
"""

import numpy as np
import pytest

from repro.check import DifferentialReport, ReferenceSystem, differential_replay
from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.pageset import PageSet
from repro.profiling.trace import TraceRecorder
from repro.sim.config import SystemConfig

SMALL = SystemConfig.paper_gh200().scaled(1 / 256)


def record(builder, cfg=None):
    gh = GraceHopperSystem((cfg or SystemConfig.paper_gh200()).copy())
    with TraceRecorder(gh.mem) as rec:
        builder(gh)
    return rec.trace


def assert_conformant(trace, cfg=None, **kw):
    report = differential_replay(trace, (cfg or None) and cfg.copy(), **kw)
    assert isinstance(report, DifferentialReport)
    assert report.ok, report.summary()
    assert report.batches == len(trace)
    return report


# -- one trace per allocator class ----------------------------------------


def test_system_memory_trace_conforms():
    def wl(gh):
        a = gh.malloc(np.float32, 1 << 20, name="a")
        b = gh.malloc(np.float32, 1 << 20, name="b")
        gh.cpu_phase("init", [ArrayAccess.write_(a)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
        gh.cpu_phase("post", [ArrayAccess.read(b)])

    assert_conformant(record(wl))


def test_managed_memory_trace_conforms():
    def wl(gh):
        a = gh.cuda_malloc_managed(np.float32, 1 << 20, name="a")
        b = gh.cuda_malloc_managed(np.float32, 1 << 20, name="b")
        gh.cpu_phase("init", [ArrayAccess.write_(a)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
        gh.cpu_phase("post", [ArrayAccess.read(b)])

    assert_conformant(record(wl))


def test_pinned_memory_trace_conforms():
    def wl(gh):
        a = gh.cuda_malloc_host(np.float32, 1 << 20, name="a")
        d = gh.cuda_malloc(np.float32, 1 << 20, name="d")
        n = gh.numa_alloc_onnode(np.float32, 1 << 18, name="n")
        gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(n)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(d)])

    assert_conformant(record(wl))


# -- stress: oversubscription, epochs, sparsity ---------------------------


def test_managed_oversubscription_evictions_conform():
    def wl(gh):
        n = int(gh.free_gpu_memory() * 0.7) // 4
        a = gh.cuda_malloc_managed(np.float32, n, name="a")
        b = gh.cuda_malloc_managed(np.float32, n, name="b")
        gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(b)])
        for _ in range(5):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
            gh.cpu_phase("mix", [ArrayAccess.read(a)])

    report = assert_conformant(record(wl, SMALL), SMALL)
    # Eviction charges its blocks over the link as a batch: the D2H
    # bytes are in the counters, and the float seconds in the replay
    # time, both compared exactly.
    assert report.production["counters"]["pages_evicted"] > 0
    assert report.production["counters"]["migration_d2h_bytes"] > 0


def test_system_oversubscription_migration_conforms():
    def wl(gh):
        n = int(gh.free_gpu_memory() * 0.8) // 4
        a = gh.malloc(np.float32, n, name="a")
        b = gh.malloc(np.float32, n, name="b")
        gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(b)])
        for _ in range(6):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])

    assert_conformant(record(wl, SMALL), SMALL, epoch_every=2)


def test_sparse_strided_access_conforms():
    def wl(gh):
        a = gh.malloc(np.float32, 1 << 21, name="a")
        b = gh.cuda_malloc_managed(np.float32, 1 << 21, name="b")
        npg = a.alloc.n_pages
        gh.cpu_phase(
            "init",
            [
                ArrayAccess.write_(
                    a, PageSet.of(np.arange(0, npg, 3)), density=0.25
                )
            ],
        )
        for i in range(4):
            gh.launch_kernel(
                "gather",
                [
                    ArrayAccess.read(
                        a, PageSet.of(np.arange(i % 2, npg, 2)), density=0.1
                    ),
                    ArrayAccess.write_(b, PageSet.range(0, npg // 2)),
                ],
            )

    assert_conformant(record(wl, SMALL), SMALL)


# -- the harness detects real divergence ----------------------------------


def test_divergence_is_reported_not_hidden():
    def wl(gh):
        a = gh.malloc(np.float32, 1 << 20, name="a")
        gh.cpu_phase("init", [ArrayAccess.write_(a)])
        gh.launch_kernel("k", [ArrayAccess.read(a)])

    trace = record(wl)
    cfg = SystemConfig.paper_gh200()
    ref = ReferenceSystem(cfg.copy())
    ref.run(trace)
    good = dict(ref.counters)
    # A reference whose fault tally is perturbed must flag divergence.
    ref2 = ReferenceSystem(cfg.copy())
    ref2.run(trace)
    ref2.counters["gpu_replayable_faults"] += 1
    assert ref2.counters != good

    report = differential_replay(trace, cfg.copy())
    assert report.ok
    report.reference["counters"]["gpu_replayable_faults"] += 1
    divergent = {
        k: (report.production["counters"][k], report.reference["counters"][k])
        for k in report.production["counters"]
        if report.production["counters"][k] != report.reference["counters"][k]
    }
    assert "gpu_replayable_faults" in divergent


def test_report_summary_mentions_divergent_keys():
    report = DifferentialReport(
        batches=3,
        production={},
        reference={},
        divergent={"counter:hbm_read_bytes": (10, 11)},
    )
    assert not report.ok
    text = report.summary()
    assert "hbm_read_bytes" in text and "10" in text and "11" in text
