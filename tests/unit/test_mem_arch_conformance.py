"""Cross-backend conformance contract for MemoryArchitecture backends.

Every registered backend — current and future — must uphold the same
invariant contract: residency exclusivity (each page in exactly one
location), byte conservation (pool tag ledgers equal resident bytes),
counter conservation (fault counters agree with the SMMU ledger), and
page-table coherence across allocate/access/epoch/free. The whole suite
is parameterized over :func:`repro.mem.arch.architecture_names`, so
registering a new backend automatically subjects it to the contract.

Workloads run with the invariant sanitizer enabled, so the production
:class:`~repro.check.MemSanitizer` checks fire at every access/epoch/free
on top of the explicit assertions below.
"""

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.arch import (
    MemoryArchitecture,
    architecture_descriptions,
    architecture_names,
    resolve_arch,
)
from repro.mem.coherence import AccessShape
from repro.mem.pageset import PageSet
from repro.mem.pagetable import AllocKind
from repro.mem.subsystem import MemorySubsystem
from repro.profiling.counters import HardwareCounters
from repro.profiling.timeline import Timeline
from repro.sim.config import Location, MiB, Processor, SystemConfig


@pytest.fixture(params=architecture_names())
def arch_name(request):
    """Every registered memory-architecture backend, by name."""
    return request.param


def make_cfg(arch_name, **overrides):
    overrides.setdefault("sanitize", True)
    return SystemConfig.scaled(
        1 / 256, page_size=65536, mem_arch=arch_name, **overrides
    )


def make_mem(arch_name, **overrides):
    return MemorySubsystem(make_cfg(arch_name, **overrides), HardwareCounters())


# -- registry contract ------------------------------------------------------


def test_registry_lists_all_builtin_backends():
    names = architecture_names()
    assert names[0] == "gh200"
    assert "upm" in names
    assert "svm" in names


def test_descriptions_are_nonempty_one_liners():
    for name, desc in architecture_descriptions().items():
        assert desc.strip(), name
        assert "\n" not in desc


def test_resolve_is_a_shared_instance(arch_name):
    inst = resolve_arch(arch_name)
    assert isinstance(inst, MemoryArchitecture)
    assert inst is resolve_arch(arch_name)
    assert inst.name == arch_name


def test_unknown_backend_raises_with_registered_list():
    with pytest.raises(ValueError, match="gh200"):
        resolve_arch("no-such-backend")


def test_config_selects_backend(arch_name):
    mem = make_mem(arch_name)
    assert mem.arch is resolve_arch(arch_name)


def test_local_location_is_a_location(arch_name):
    arch = resolve_arch(arch_name)
    for proc in (Processor.CPU, Processor.GPU):
        assert isinstance(arch.local_location(proc), Location)


# -- invariant contract on raw subsystems -----------------------------------


def assert_partition(alloc):
    """Residency exclusivity: locations partition the allocation."""
    counts = [alloc.pages_at(loc) for loc in Location]
    assert min(counts) >= 0
    assert sum(counts) == alloc.n_pages


def assert_byte_conservation(mem, allocs):
    """Pool tag ledgers equal resident bytes, pool- or unified-layout."""
    unified = mem.physical.cpu is mem.physical.gpu

    def tag_bytes(prefixes):
        pools = (mem.physical.cpu,) if unified else (
            mem.physical.cpu, mem.physical.gpu
        )
        return sum(
            v
            for pool in pools
            for k, v in pool.by_tag.items()
            if k.startswith(prefixes)
        )

    resident = sum(
        a.bytes_at(Location.CPU)
        + a.bytes_at(Location.CPU_PINNED)
        + a.bytes_at(Location.GPU)
        for a in allocs
        if not a.freed
    )
    assert tag_bytes(("sys:", "mng:")) == resident
    for pool in {id(mem.physical.cpu): mem.physical.cpu,
                 id(mem.physical.gpu): mem.physical.gpu}.values():
        assert pool.used == sum(pool.by_tag.values())
        assert 0 <= pool.used <= pool.capacity


def drive(mem, kind, ops, live=()):
    """Apply (processor, start, count, write) ops with epochs between."""
    alloc = mem.allocate(kind, 4 * MiB)
    shape = AccessShape(useful_bytes=mem.config.system_page_size)
    now = 0.0
    for proc, start, count, write in ops:
        pages = PageSet.range(start, start + count).clip(alloc.n_pages)
        mem.access(proc, alloc, pages, shape, write=write, now=now)
        mem.begin_epoch()
        now += 0.001
        assert_partition(alloc)
        assert_byte_conservation(mem, [alloc, *live])
    return alloc


OPS = [
    (Processor.CPU, 0, 40, True),
    (Processor.GPU, 0, 64, False),
    (Processor.GPU, 16, 48, True),
    (Processor.CPU, 8, 8, False),
    (Processor.GPU, 0, 64, False),
]


@pytest.mark.parametrize("kind", [AllocKind.SYSTEM, AllocKind.MANAGED])
def test_access_sequences_uphold_contract(arch_name, kind):
    mem = make_mem(arch_name)
    alloc = drive(mem, kind, OPS)
    mem.free(alloc)
    assert alloc.freed
    assert_byte_conservation(mem, [alloc])


def test_interleaved_allocations_conserve(arch_name):
    mem = make_mem(arch_name)
    a = mem.allocate(AllocKind.SYSTEM, 4 * MiB)
    b = mem.allocate(AllocKind.MANAGED, 4 * MiB)
    shape = AccessShape(useful_bytes=mem.config.system_page_size)
    now = 0.0
    for proc, start, count, write in OPS:
        for alloc in (a, b):
            pages = PageSet.range(start, start + count).clip(alloc.n_pages)
            mem.access(proc, alloc, pages, shape, write=write, now=now)
        mem.begin_epoch()
        now += 0.001
        for alloc in (a, b):
            assert_partition(alloc)
        assert_byte_conservation(mem, [a, b])
    mem.free(b)
    assert_byte_conservation(mem, [a, b])


def test_page_table_coherent_after_free(arch_name):
    mem = make_mem(arch_name)
    baseline_used = mem.physical.cpu.used + (
        0 if mem.physical.cpu is mem.physical.gpu else mem.physical.gpu.used
    )
    allocs = []
    for kind in (AllocKind.SYSTEM, AllocKind.MANAGED):
        allocs.append(drive(mem, kind, OPS[:3], live=allocs))
    for alloc in allocs:
        mem.free(alloc)
        for tag in (f"sys:{alloc.aid}", f"mng:{alloc.aid}"):
            assert mem.physical.cpu.by_tag.get(tag, 0) == 0
            assert mem.physical.gpu.by_tag.get(tag, 0) == 0
    after = mem.physical.cpu.used + (
        0 if mem.physical.cpu is mem.physical.gpu else mem.physical.gpu.used
    )
    assert after == baseline_used


def test_host_register_populates_everything(arch_name):
    mem = make_mem(arch_name)
    alloc = mem.allocate(AllocKind.SYSTEM, 4 * MiB)
    seconds = mem.host_register(alloc)
    assert seconds > 0
    assert alloc.pages_at(Location.UNMAPPED) == 0
    assert_partition(alloc)
    assert_byte_conservation(mem, [alloc])
    # Re-registering an already-populated allocation is free.
    assert mem.host_register(alloc) == 0.0


@pytest.mark.parametrize(
    "backend, kind",
    [
        ("gh200", AllocKind.SYSTEM),
        ("upm", AllocKind.SYSTEM),
        ("upm", AllocKind.MANAGED),
        ("svm", AllocKind.SYSTEM),
        ("svm", AllocKind.MANAGED),
    ],
)
def test_gpu_first_touch_is_one_span(backend, kind):
    """Wherever a backend's fault handler serves an access, a GPU touch
    of N unmapped pages is exactly one ``first-touch`` span of N pages."""
    mem = make_mem(backend)
    mem.timeline = Timeline(time_fn=lambda: 0.0)
    alloc = mem.allocate(kind, 4 * MiB)
    shape = AccessShape(useful_bytes=mem.config.system_page_size)
    mem.access(Processor.GPU, alloc, PageSet.range(0, 24), shape, now=0.0)
    spans = mem.timeline.spans("first-touch")
    assert len(spans) == 1
    assert spans[0].args["pages"] == 24


def test_prefetch_is_nonnegative_and_coherent(arch_name):
    mem = make_mem(arch_name)
    alloc = mem.allocate(AllocKind.MANAGED, 4 * MiB)
    shape = AccessShape(useful_bytes=mem.config.system_page_size)
    mem.access(
        Processor.CPU, alloc, PageSet.full(alloc.n_pages), shape,
        write=True, now=0.0,
    )
    seconds = mem.prefetch_async(alloc, None, now=0.0)
    assert seconds >= 0.0
    assert_partition(alloc)
    assert_byte_conservation(mem, [alloc])


def _oversubscribe(mem):
    """CPU-first-touch two allocations whose combined footprint exceeds
    the GPU-sized tier, then ping-pong full-range GPU reads — the access
    pattern that forces device-pool eviction on designs with one."""
    size = int(0.75 * mem.config.gpu_memory_bytes)
    a = mem.allocate(AllocKind.SYSTEM, size)
    b = mem.allocate(AllocKind.SYSTEM, size)
    shape = AccessShape(useful_bytes=mem.config.system_page_size)
    now = 0.0
    for alloc in (a, b):
        mem.access(
            Processor.CPU, alloc, PageSet.full(alloc.n_pages), shape,
            write=True, now=now,
        )
    mem.begin_epoch()
    for _ in range(3):
        for alloc in (a, b):
            now += 0.001
            mem.access(
                Processor.GPU, alloc, PageSet.full(alloc.n_pages), shape,
                write=False, now=now,
            )
            mem.begin_epoch()
            assert_partition(a)
            assert_partition(b)
            assert_byte_conservation(mem, [a, b])
    return a, b


def test_oversubscription_stress_upholds_contract(arch_name):
    """Working set ~1.5x the device tier: invariants hold through every
    fault/migration/eviction step on every backend, and pool occupancy
    never exceeds capacity."""
    mem = make_mem(arch_name)
    a, b = _oversubscribe(mem)
    assert mem.physical.gpu.used <= mem.physical.gpu.capacity
    assert mem.physical.cpu.used <= mem.physical.cpu.capacity
    total = mem.counters.total
    if arch_name == "svm":
        # A discrete device pool cannot hold both allocations: the
        # ping-pong must have evicted, and every evicted byte is also a
        # D2H migration.
        assert total.pages_evicted > 0
        assert total.eviction_bytes > 0
        assert total.eviction_bytes <= total.migration_d2h_bytes
    mem.free(a)
    mem.free(b)
    assert_byte_conservation(mem, [a, b])


def test_free_after_evict_drains_all_pool_tags(arch_name):
    """Freeing an allocation whose pages were scattered across tiers by
    eviction returns every pool ledger to its pre-allocation state."""
    mem = make_mem(arch_name)
    unified = mem.physical.cpu is mem.physical.gpu
    baseline = mem.physical.cpu.used + (
        0 if unified else mem.physical.gpu.used
    )
    a, b = _oversubscribe(mem)
    for alloc in (a, b):
        mem.free(alloc)
        assert alloc.freed
        for tag in (f"sys:{alloc.aid}", f"mng:{alloc.aid}"):
            assert mem.physical.cpu.by_tag.get(tag, 0) == 0
            assert mem.physical.gpu.by_tag.get(tag, 0) == 0
        assert_byte_conservation(mem, [a, b])
    after = mem.physical.cpu.used + (
        0 if unified else mem.physical.gpu.used
    )
    assert after == baseline


# -- full-system workload under the sanitizer -------------------------------


def test_mixed_workload_sanitized_end_to_end(arch_name):
    gh = GraceHopperSystem(make_cfg(arch_name))
    assert gh.mem.sanitizer is not None
    a = gh.malloc(np.float32, 1 << 16, name="a")
    m = gh.cuda_malloc_managed(np.float32, 1 << 16, name="m")
    p = gh.cuda_malloc_host(np.float32, 1 << 14, name="p")
    d = gh.cuda_malloc(np.float32, 1 << 14, name="d")
    gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(m),
                          ArrayAccess.write_(p)])
    gh.host_register(a)
    gh.prefetch_to_gpu(m)
    for _ in range(3):
        gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(m),
                               ArrayAccess.read(p), ArrayAccess.write_(d)])
    gh.cpu_phase("post", [ArrayAccess.read(m)])
    for arr in (a, m, p, d):
        gh.free(arr)
    allocs = [arr.alloc for arr in (a, m, p, d)]
    assert all(al.freed for al in allocs)


def test_device_memory_is_never_cpu_accessible(arch_name):
    """The application-visible exception contract is backend-independent."""
    gh = GraceHopperSystem(make_cfg(arch_name))
    d = gh.cuda_malloc(np.float32, 1 << 12, name="d")
    with pytest.raises(PermissionError):
        gh.cpu_phase("bad", [ArrayAccess.read(d)])


def test_oversubscription_reference_free_positive(arch_name):
    gh = GraceHopperSystem(make_cfg(arch_name))
    free = gh.balloon_reference_free()
    assert 0 < free <= gh.config.gpu_memory_bytes
    # Installing a balloon shrinks the reference tier by at least its
    # size (device reservations round up to GPU-page granularity) and
    # removing it restores the tier exactly.
    balloon = gh.install_balloon(free // 2)
    assert free - gh.balloon_reference_free() >= balloon.alloc.nbytes
    gh.remove_balloon()
    assert gh.balloon_reference_free() == free
