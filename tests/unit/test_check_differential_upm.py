"""Differential conformance for the ``upm`` backend.

Replays recorded access traces through the UPM production path and
:class:`repro.check.UpmReferenceSystem`, demanding exact counter/link/
time equality — and asserts the backend's defining negative result: a
trace that migrates pages under GH200 migrates **nothing** under UPM.
"""

import numpy as np
import pytest

from repro.check import (
    UpmReferenceSystem,
    differential_replay,
    reference_system_for,
)
from repro.check.reference import ReferenceSystem
from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.pageset import PageSet
from repro.profiling.trace import TraceRecorder
from repro.sim.config import SystemConfig

SMALL = SystemConfig.paper_gh200().scaled(1 / 256)
SMALL_UPM = SMALL.copy(mem_arch="upm")

#: Counters that must stay zero when nothing ever moves after placement.
MIGRATION_COUNTERS = (
    "pages_migrated_h2d",
    "pages_migrated_d2h",
    "pages_evicted",
    "migration_h2d_bytes",
    "migration_d2h_bytes",
    "eviction_bytes",
    "managed_far_faults",
    "migration_notifications",
    "tlb_shootdowns",
)

#: Counters of cacheline traffic across NVLink-C2C, which one pool never
#: crosses.
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


def migrating_workload(gh):
    # Iterations sized so GPU access counters on the CPU-resident pages
    # cross the migration threshold (~32 counts/page/kernel at 4 KB).
    n = int(gh.free_gpu_memory() * 0.8) // 4
    a = gh.malloc(np.float32, n, name="a")
    b = gh.malloc(np.float32, n, name="b")
    gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(b)])
    for _ in range(12):
        gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])


def test_reference_selection_follows_mem_arch():
    assert type(reference_system_for(SMALL.copy())) is ReferenceSystem
    assert type(reference_system_for(SMALL_UPM.copy())) is UpmReferenceSystem
    with pytest.raises(ValueError, match="no reference executor"):
        reference_system_for(SMALL.copy(mem_arch="no-such-backend"))


def test_upm_system_memory_trace_conforms():
    def wl(gh):
        a = gh.malloc(np.float32, 1 << 20, name="a")
        b = gh.malloc(np.float32, 1 << 20, name="b")
        gh.cpu_phase("init", [ArrayAccess.write_(a)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
        gh.cpu_phase("post", [ArrayAccess.read(b)])

    cfg = SystemConfig.paper_gh200(mem_arch="upm")
    assert_conformant(record(wl, cfg), cfg)


def test_upm_managed_memory_trace_conforms():
    def wl(gh):
        a = gh.cuda_malloc_managed(np.float32, 1 << 20, name="a")
        b = gh.cuda_malloc_managed(np.float32, 1 << 20, name="b")
        gh.cpu_phase("init", [ArrayAccess.write_(a)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
        gh.cpu_phase("post", [ArrayAccess.read(b)])

    cfg = SystemConfig.paper_gh200(mem_arch="upm")
    assert_conformant(record(wl, cfg), cfg)


def test_upm_pinned_memory_trace_conforms():
    def wl(gh):
        a = gh.cuda_malloc_host(np.float32, 1 << 20, name="a")
        d = gh.cuda_malloc(np.float32, 1 << 20, name="d")
        n = gh.numa_alloc_onnode(np.float32, 1 << 18, name="n")
        gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(n)])
        for _ in range(4):
            gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(d)])

    cfg = SystemConfig.paper_gh200(mem_arch="upm")
    assert_conformant(record(wl, cfg), cfg)


def test_upm_sparse_strided_access_conforms():
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

    assert_conformant(record(wl, SMALL_UPM), SMALL_UPM, epoch_every=2)


def test_migrating_trace_is_migration_free_under_upm():
    """The trace that migrates under GH200 moves zero pages under UPM."""
    trace = record(migrating_workload, SMALL)

    gh200 = assert_conformant(trace, SMALL, epoch_every=2)
    assert gh200.production["counters"]["pages_migrated_h2d"] > 0
    assert gh200.production["counters"]["migration_h2d_bytes"] > 0

    upm = assert_conformant(trace, SMALL_UPM, epoch_every=2)
    for name in MIGRATION_COUNTERS:
        assert upm.production["counters"][name] == 0, name
        assert upm.reference["counters"][name] == 0, name
    # And the single pool never touches the C2C link at all.
    for name in REMOTE_COUNTERS:
        assert upm.production["counters"][name] == 0, name


def test_upm_epoch_boundaries_cost_nothing():
    trace = record(migrating_workload, SMALL)
    every_batch = assert_conformant(trace, SMALL_UPM, epoch_every=1)
    rarely = assert_conformant(trace, SMALL_UPM, epoch_every=4)
    assert (
        every_batch.production["replay_seconds"]
        == rarely.production["replay_seconds"]
    )
    assert every_batch.production["counters"] == rarely.production["counters"]
