"""The memory-model invariant sanitizer: hooks, invariants, violations."""

import numpy as np
import pytest

from repro.check import InvariantViolation, MemSanitizer, sanitize_requested
from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.sim.config import Location, SystemConfig


@pytest.fixture()
def gh():
    return GraceHopperSystem(SystemConfig.paper_gh200().copy(sanitize=True))


def _run_kernels(gh, n=2):
    a = gh.malloc(np.float32, 1 << 18, name="a")
    b = gh.cuda_malloc_managed(np.float32, 1 << 18, name="b")
    gh.cpu_phase("init", [ArrayAccess.write_(a)])
    for _ in range(n):
        gh.launch_kernel("k", [ArrayAccess.read(a), ArrayAccess.write_(b)])
    return a, b


# -- enablement ------------------------------------------------------------


def test_sanitize_requested_config_flag():
    assert sanitize_requested(SystemConfig(sanitize=True))
    assert not sanitize_requested(SystemConfig())


def test_sanitize_requested_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize_requested()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitize_requested()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_requested()


def test_env_enables_sanitizer_on_system(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    gh = GraceHopperSystem()
    assert isinstance(gh.mem.sanitizer, MemSanitizer)
    assert gh.mem.sanitizer.clock is gh.clock


def test_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert GraceHopperSystem().mem.sanitizer is None


# -- hooks fire ------------------------------------------------------------


def test_hooks_run_checks_through_workload(gh):
    a, b = _run_kernels(gh)
    san = gh.mem.sanitizer
    assert san.checks_run > 0
    # Each kernel launch services an epoch through begin_epoch.
    assert san.epoch >= 2
    before = san.checks_run
    gh.free(a)
    gh.free(b)
    assert san.checks_run > before


def test_clean_workload_has_no_violations(gh):
    _run_kernels(gh, n=4)
    gh.mem.sanitizer.check_all()  # explicit final sweep


# -- structured violations -------------------------------------------------


def test_violation_carries_time_epoch_and_alloc(gh):
    a, _ = _run_kernels(gh)
    san = gh.mem.sanitizer
    # Corrupt the incremental location tally behind the subsystem's back.
    a.alloc._loc_counts[int(Location.GPU)] += 1
    with pytest.raises(InvariantViolation) as exc:
        san.check_all()
    v = exc.value
    assert v.invariant == "residency-exclusivity"
    assert v.alloc_name == "a"
    assert v.sim_time == pytest.approx(gh.now)
    assert v.epoch == san.epoch
    assert "recount" in v.details and "incremental" in v.details
    # The formatted message names all three coordinates.
    assert "sim_time=" in str(v) and "epoch=" in str(v) and "alloc=a" in str(v)
    assert isinstance(v, AssertionError)


def test_negative_counter_detected(gh):
    _run_kernels(gh)
    gh.counters.total.add(migration_h2d_bytes=-(10**9))
    with pytest.raises(InvariantViolation, match="counter-conservation"):
        gh.mem.sanitizer.check_all()


def test_pool_ledger_drift_detected(gh):
    _run_kernels(gh)
    gh.mem.physical.cpu.by_tag["ghost"] = 4096
    with pytest.raises(InvariantViolation, match="pool-ledger"):
        gh.mem.sanitizer.check_all()


def test_byte_conservation_drift_detected(gh):
    a, _ = _run_kernels(gh)
    tag = f"sys:{a.alloc.aid}"
    pool = gh.mem.physical.cpu
    if pool.by_tag.get(tag):
        pool.by_tag[tag] -= a.alloc.page_size
        pool.used -= a.alloc.page_size
    else:  # fully migrated: fabricate a phantom reservation instead
        pool.by_tag[tag] = a.alloc.page_size
        pool.used += a.alloc.page_size
    with pytest.raises(InvariantViolation, match="byte-conservation"):
        gh.mem.sanitizer.check_all()


def test_remote_without_fabric_port_detected(gh):
    a, _ = _run_kernels(gh)
    alloc = a.alloc
    from repro.mem.pageset import PageSet

    alloc.set_location(PageSet.range(0, 1), Location.REMOTE)
    with pytest.raises(InvariantViolation, match="remote-accounting"):
        gh.mem.sanitizer.check_alloc(alloc)


def test_counter_peak_below_a_count_detected(gh):
    a, _ = _run_kernels(gh)
    counters = a.alloc.counters
    from repro.mem.pageset import PageSet

    counters.add(PageSet.range(0, 2), 300)
    gh.mem.sanitizer.check_alloc(a.alloc)
    counters.peak = 299
    with pytest.raises(InvariantViolation, match="counter-peak"):
        gh.mem.sanitizer.check_alloc(a.alloc)


def test_stale_run_record_detected(gh):
    from repro.mem.pageset import PageSet

    _, b = _run_kernels(gh)
    alloc = b.alloc
    gh.mem.physical.move(alloc, PageSet.range(0, 3), Location.CPU)
    gh.mem.sanitizer.check_alloc(alloc)
    record = alloc._runs
    assert record == (
        (0, 3, Location.CPU), (3, alloc.n_pages, Location.GPU),
    )
    # A boundary one page off, and the fragmented marker on two runs.
    for stale in (((0, 4, 1), (4, alloc.n_pages, 2)), ()):
        alloc._runs = stale
        with pytest.raises(InvariantViolation, match="residency-runs"):
            gh.mem.sanitizer.check_alloc(alloc)
    alloc._runs = record
    gh.mem.sanitizer.check_alloc(alloc)


def test_stale_touch_record_detected(gh):
    from repro.mem.pageset import PageSet

    t = gh.cuda_malloc_managed(np.float32, 1 << 21, name="t")
    alloc = t.alloc
    gh.launch_kernel("all", [ArrayAccess.write_(t)])
    gh.launch_kernel("head", [ArrayAccess.read(t, PageSet.range(0, 1))])
    gh.mem.sanitizer.check_alloc(alloc)
    record = alloc._touch
    head, rest = alloc.block_last_touch[0], alloc.block_last_touch[-1]
    assert head > rest and alloc.n_blocks > 2
    assert record == ((0, 1, head), (1, alloc.n_blocks, rest))
    # A boundary one block off, and the fragmented marker on two runs.
    for stale in (((0, 2, head), (2, alloc.n_blocks, rest)), ()):
        alloc._touch = stale
        with pytest.raises(InvariantViolation, match="touch-runs"):
            gh.mem.sanitizer.check_alloc(alloc)
    alloc._touch = record
    gh.mem.sanitizer.check_alloc(alloc)


def test_link_class_counter_identity_detected(gh):
    _run_kernels(gh)
    gh.counters.total.add(c2c_read_bytes=12345)
    with pytest.raises(InvariantViolation, match="link-conservation"):
        gh.mem.sanitizer.check_all()


def test_freed_allocation_must_drain(gh):
    a, _ = _run_kernels(gh)
    tag = f"sys:{a.alloc.aid}"
    san = gh.mem.sanitizer
    gh.free(a)  # hooks ran clean
    gh.mem.physical.cpu.by_tag[tag] = 4096
    with pytest.raises(InvariantViolation, match="still holds bytes"):
        san._check_freed_drained(a.alloc)


def test_table_coherence_detected(gh):
    a, _ = _run_kernels(gh)
    a.alloc.freed = True
    try:
        with pytest.raises(InvariantViolation, match="table-coherence"):
            gh.mem.sanitizer.check_tables()
    finally:
        a.alloc.freed = False


# -- sharded systems -------------------------------------------------------


def test_sharded_step_sweeps_every_shard():
    from repro.topology.sharded import ShardedSystem

    cfg = SystemConfig.paper_gh200().scaled(1 / 64).copy(
        sanitize=True, n_superchips=2
    )
    node = ShardedSystem(cfg)
    for gh in node:
        assert gh.mem.sanitizer is not None

    def phase(chip, gh):
        a = gh.malloc(np.float32, 1 << 16, name=f"x{chip}")
        gh.launch_kernel("k", [ArrayAccess.write_(a)])

    node.step(phase)
    assert all(gh.mem.sanitizer.checks_run > 0 for gh in node)


def test_sharded_fabric_conservation_violation():
    from repro.topology.sharded import ShardedSystem

    cfg = SystemConfig.paper_gh200().scaled(1 / 64).copy(
        sanitize=True, n_superchips=2
    )
    node = ShardedSystem(cfg)
    link = node.topology.links[0]
    link.stats.fwd_bytes += 4096  # direction total without a class entry
    with pytest.raises(InvariantViolation, match="fabric-conservation"):
        node.step(lambda chip, gh: None)
