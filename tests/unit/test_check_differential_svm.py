"""Differential conformance for the ``svm`` backend.

Replays recorded access traces through the SVM production path and
:class:`repro.check.SvmReferenceSystem`, demanding exact counter/link/
time equality — and asserts the backend's defining contrast: a trace
that shares pages at cacheline grain over the C2C fabric under GH200
replays **fault-only** under SVM (zero remote-class bytes, every
non-resident touch a page fault plus a page-granularity migration),
and oversubscribing the device pool triggers eviction thrash no
integrated design ever pays.
"""

import numpy as np
import pytest

from repro.check import (
    SvmReferenceSystem,
    differential_replay,
    reference_system_for,
)
from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.pageset import PageSet
from repro.profiling.trace import TraceRecorder
from repro.sim.config import SystemConfig

SMALL = SystemConfig.paper_gh200().scaled(1 / 256)
SMALL_SVM = SMALL.copy(mem_arch="svm")

#: Remote (cacheline-grain) traffic counters — the sharing mechanism SVM
#: machines do not have for pageable memory.
REMOTE_COUNTERS = (
    "c2c_read_bytes",
    "c2c_write_bytes",
    "cpu_remote_read_bytes",
    "cpu_remote_write_bytes",
)


def record(builder, cfg):
    gh = GraceHopperSystem(cfg.copy())
    with TraceRecorder(gh.mem) as rec:
        builder(gh)
    return rec.trace


def assert_conformant(trace, cfg, **kw):
    report = differential_replay(trace, cfg.copy(), **kw)
    assert report.ok, report.summary()
    return report


def sharing_workload(gh):
    # Two kernel launches only: GPU access counters on the CPU-resident
    # pages stay below the migration threshold, so GH200 serves every
    # touch remotely over C2C while SVM must fault + migrate.
    n = int(0.5 * gh.config.gpu_memory_bytes) // 8
    a = gh.malloc(np.float32, n, name="a")
    b = gh.malloc(np.float32, n, name="b")
    gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(b)])
    for _ in range(2):
        gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
    gh.cpu_phase("post", [ArrayAccess.read(b)])


def oversubscribing_workload(gh):
    # Working set ~1.5x the device pool: SVM must evict to make room.
    n = int(0.75 * gh.config.gpu_memory_bytes) // 4
    a = gh.malloc(np.float32, n, name="a")
    b = gh.malloc(np.float32, n, name="b")
    gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(b)])
    for _ in range(3):
        gh.launch_kernel("ka", [ArrayAccess.read(a)])
        gh.launch_kernel("kb", [ArrayAccess.read(b)])


def test_reference_selection_includes_svm():
    assert type(reference_system_for(SMALL_SVM.copy())) is SvmReferenceSystem


def test_svm_system_memory_trace_conforms():
    def wl(gh):
        a = gh.malloc(np.float32, 1 << 20, name="a")
        b = gh.malloc(np.float32, 1 << 20, name="b")
        gh.cpu_phase("init", [ArrayAccess.write_(a)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
        gh.cpu_phase("post", [ArrayAccess.read(b)])

    cfg = SystemConfig.paper_gh200(mem_arch="svm")
    assert_conformant(record(wl, cfg), cfg)


def test_svm_managed_memory_trace_conforms():
    def wl(gh):
        a = gh.cuda_malloc_managed(np.float32, 1 << 20, name="a")
        b = gh.cuda_malloc_managed(np.float32, 1 << 20, name="b")
        gh.cpu_phase("init", [ArrayAccess.write_(a)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
        gh.cpu_phase("post", [ArrayAccess.read(b)])

    cfg = SystemConfig.paper_gh200(mem_arch="svm")
    assert_conformant(record(wl, cfg), cfg)


def test_svm_pinned_memory_trace_conforms():
    def wl(gh):
        a = gh.cuda_malloc_host(np.float32, 1 << 20, name="a")
        d = gh.cuda_malloc(np.float32, 1 << 20, name="d")
        n = gh.numa_alloc_onnode(np.float32, 1 << 18, name="n")
        gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(n)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(d)])

    cfg = SystemConfig.paper_gh200(mem_arch="svm")
    assert_conformant(record(wl, cfg), cfg)


def test_svm_sparse_strided_access_conforms():
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

    assert_conformant(record(wl, SMALL_SVM), SMALL_SVM, epoch_every=2)


def test_remote_sharing_trace_is_fault_only_under_svm():
    """The trace GH200 serves at cacheline grain over C2C replays as
    page faults + page-granularity migration under SVM."""
    trace = record(sharing_workload, SMALL)

    gh200 = assert_conformant(trace, SMALL, epoch_every=2)
    # Under GH200 the GPU reads CPU-resident pages remotely: C2C traffic.
    assert (
        gh200.production["counters"]["c2c_read_bytes"]
        + gh200.production["counters"]["c2c_write_bytes"]
        > 0
    )

    svm = assert_conformant(trace, SMALL_SVM, epoch_every=2)
    for name in REMOTE_COUNTERS:
        assert svm.production["counters"][name] == 0, name
        assert svm.reference["counters"][name] == 0, name
    # ... replaced by faults and whole-page migration.
    assert svm.production["counters"]["gpu_replayable_faults"] > 0
    assert svm.production["counters"]["migration_h2d_bytes"] > 0
    assert svm.production["counters"]["pages_migrated_h2d"] > 0


def test_oversubscribed_trace_evicts_under_svm_only():
    trace = record(oversubscribing_workload, SMALL)

    gh200 = assert_conformant(trace, SMALL, epoch_every=2)
    assert gh200.production["counters"]["eviction_bytes"] == 0

    svm = assert_conformant(trace, SMALL_SVM, epoch_every=2)
    assert svm.production["counters"]["eviction_bytes"] > 0
    assert svm.production["counters"]["pages_evicted"] > 0
    # Evictions flow device-to-host over the link.
    assert (
        svm.production["counters"]["eviction_bytes"]
        <= svm.production["counters"]["migration_d2h_bytes"]
    )


def test_svm_epoch_boundaries_cost_nothing():
    trace = record(sharing_workload, SMALL)
    every_batch = assert_conformant(trace, SMALL_SVM, epoch_every=1)
    rarely = assert_conformant(trace, SMALL_SVM, epoch_every=4)
    assert (
        every_batch.production["replay_seconds"]
        == rarely.production["replay_seconds"]
    )
    assert every_batch.production["counters"] == rarely.production["counters"]


def test_svm_config_knobs_validated():
    with pytest.raises(ValueError, match="svm_link_gbps"):
        SystemConfig.paper_gh200(svm_link_gbps=0.0)
    with pytest.raises(ValueError, match="svm_fault_cost"):
        SystemConfig.paper_gh200(svm_fault_cost=-1.0)
