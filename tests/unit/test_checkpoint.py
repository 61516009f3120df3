"""Unit tests: epoch checkpoints capture, restore, and content-address
the full mutable system state."""

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.mem.pageset import PageSet
from repro.sim.checkpoint import (
    CKPT_SCHEMA,
    CheckpointStore,
    CheckpointUnavailable,
    SystemCheckpoint,
)
from repro.sim.config import Location, SystemConfig


def make_system() -> GraceHopperSystem:
    return GraceHopperSystem(
        SystemConfig.scaled(1 / 512, page_size=65536, migration_enable=True)
    )


def warm(gh: GraceHopperSystem, *, iterations: int = 2):
    a = gh.malloc(np.float32, (1 << 18,), name="ck.a")
    b = gh.cuda_malloc_managed(np.float32, (1 << 18,), name="ck.b")
    gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(b)])
    for i in range(iterations):
        gh.launch_kernel(
            f"k{i}", [ArrayAccess.read(a), ArrayAccess.write_(b)], flops=1e8
        )
    return a, b


class TestRoundTrip:
    def test_save_mutate_restore_fingerprints_identical(self):
        gh = make_system()
        a, b = warm(gh)
        ck = SystemCheckpoint.capture(gh)
        fp = ck.fingerprint()

        # Mutate: more kernels move pages, counters, clock, pools.
        gh.launch_kernel(
            "later", [ArrayAccess.read(a), ArrayAccess.write_(b)], flops=1e9
        )
        mutated = SystemCheckpoint.capture(gh).fingerprint()
        assert mutated != fp

        ck.restore(gh)
        assert SystemCheckpoint.capture(gh).fingerprint() == fp
        assert gh.now == ck.clock_now

    def test_restore_is_repeatable(self):
        gh = make_system()
        a, b = warm(gh)
        ck = SystemCheckpoint.capture(gh)
        fp = ck.fingerprint()
        for _ in range(2):
            gh.launch_kernel("mut", [ArrayAccess.write_(b)], flops=1e8)
            ck.restore(gh)
            assert SystemCheckpoint.capture(gh).fingerprint() == fp

    def test_restore_carries_the_counter_peak(self):
        """Counters restored into another system report the same hot
        pages: their peak bound comes with them, so a bound from the
        target's own history cannot hide them."""
        gh = make_system()
        a, _ = warm(gh)
        a.alloc.counters.add(PageSet.range(0, 3), 1000)
        ck = SystemCheckpoint.capture(gh)

        target = make_system()
        warm(target, iterations=0)
        ck.restore(target)
        (restored,) = [
            x for x in target.mem.allocations.values()
            if x.name == "ck.a"
        ]
        want = a.alloc.counters.crossed(PageSet.full(a.alloc.n_pages), 256)
        got = restored.counters.crossed(PageSet.full(restored.n_pages), 256)
        assert got.count >= 3
        assert np.array_equal(got.indices(), want.indices())

    def test_restored_run_continues_identically(self):
        """Divergence test: run A straight through; run B checkpoints
        midway, keeps going, rewinds, and re-runs the tail — both ends
        must fingerprint identically."""
        gh_a = make_system()
        a1, b1 = warm(gh_a, iterations=4)
        end_a = SystemCheckpoint.capture(gh_a).fingerprint()

        gh_b = make_system()
        a2, b2 = warm(gh_b, iterations=2)
        mid = SystemCheckpoint.capture(gh_b)

        def tail(gh, a, b):
            for i in range(2, 4):
                gh.launch_kernel(
                    f"k{i}", [ArrayAccess.read(a), ArrayAccess.write_(b)],
                    flops=1e8,
                )

        tail(gh_b, a2, b2)
        first_end = SystemCheckpoint.capture(gh_b).fingerprint()
        assert first_end == end_a
        mid.restore(gh_b)
        tail(gh_b, a2, b2)
        assert SystemCheckpoint.capture(gh_b).fingerprint() == end_a

    def test_restore_forgets_the_run_record(self):
        """Restore writes the page-state array directly, so the run record
        that moves after the capture spliced must not answer for it."""
        gh = make_system()
        _, b = warm(gh)
        alloc = b.alloc
        ck = SystemCheckpoint.capture(gh)
        head = PageSet.range(0, alloc.n_pages // 2)
        moved_to = Location.CPU_PINNED
        assert not alloc.subset(head, moved_to)
        alloc.set_location(head, moved_to)
        assert alloc._runs and alloc.split_counts(head)[moved_to] == head.count
        ck.restore(gh)
        state = alloc.state
        for ps in (PageSet.full(alloc.n_pages), head,
                   PageSet.range(1, alloc.n_pages // 2 + 3)):
            want = np.bincount(state[ps.indices()], minlength=len(Location))
            assert alloc.split_counts(ps).tolist() == want.tolist()
            for loc in Location:
                got = alloc.subset(ps, loc)
                assert np.array_equal(got.indices(), ps.where(state, loc).indices())

    def test_restored_system_evicts_the_same_blocks(self):
        """Restore writes ``block_last_touch`` directly, so a target whose
        own touches spliced a different touch record must relearn it: the
        restored system then evicts the same blocks, for the same seconds,
        as the system the checkpoint was captured from."""

        def touched(gh, order):
            arrays = [
                gh.cuda_malloc_managed(np.float32, (1 << 21,), name=f"ev.{k}")
                for k in "ab"
            ]
            gh.launch_kernel("fill", [ArrayAccess.write_(x) for x in arrays])
            for k, head in order:
                n = arrays[k].alloc.n_pages
                pages = PageSet.range(0, n // 2) if head else PageSet.range(n // 2, n)
                gh.launch_kernel("half", [ArrayAccess.read(arrays[k], pages)])
            return [x.alloc for x in arrays]

        source, target = make_system(), make_system()
        src_allocs = touched(source, [(0, 0), (1, 1), (0, 1)])
        dst_allocs = touched(target, [(1, 0), (0, 1), (1, 1), (0, 0)])
        assert all(a._touch for a in src_allocs + dst_allocs)
        SystemCheckpoint.capture(source).restore(target)

        def evict(gh):
            block = gh.config.gpu_page_size
            needed = gh.mem.physical.gpu.free + 5 * block
            return gh.mem.managed.evict_bytes(needed, now=gh.now)

        freed, seconds = evict(source)
        assert freed >= 5 * source.config.gpu_page_size
        assert evict(target) == (freed, seconds)
        for a, b in zip(src_allocs, dst_allocs):
            assert np.array_equal(a.state, b.state)
            assert a._touch == b._touch
        assert (
            target.counters.total.as_dict() == source.counters.total.as_dict()
        )

    def test_fingerprint_ignores_allocation_ids(self):
        """Two identical runs in one process get different global
        allocation ids; their state must fingerprint the same."""
        fps = []
        for _ in range(2):
            gh = make_system()
            warm(gh)
            fps.append(SystemCheckpoint.capture(gh).fingerprint())
        assert fps[0] == fps[1]


class TestGuards:
    def test_tick_listeners_block_capture(self):
        gh = make_system()
        warm(gh)
        gh.clock.add_tick_listener(0.1, lambda t: None)
        with pytest.raises(CheckpointUnavailable, match="listener"):
            SystemCheckpoint.capture(gh)

    def test_restore_requires_matching_allocations(self):
        gh = make_system()
        warm(gh)
        ck = SystemCheckpoint.capture(gh)
        other = make_system()
        with pytest.raises(CheckpointUnavailable, match="absent"):
            ck.restore(other)

    def test_restore_rejects_size_mismatch(self):
        gh = make_system()
        warm(gh)
        ck = SystemCheckpoint.capture(gh)
        other = make_system()
        other.malloc(np.float32, (1 << 10,), name="ck.a")
        other.cuda_malloc_managed(np.float32, (1 << 18,), name="ck.b")
        with pytest.raises(CheckpointUnavailable, match="differs"):
            ck.restore(other)


class TestStore:
    def test_put_get_round_trip_and_spill(self, tmp_path):
        gh = make_system()
        warm(gh)
        ck = SystemCheckpoint.capture(gh)
        store = CheckpointStore(tmp_path)
        key = CheckpointStore.key("cfg", 1, "digest", [])
        assert not store.contains(key)
        store.put(key, ck)
        assert store.contains(key)
        assert store.get(key).fingerprint() == ck.fingerprint()

        # A second store sharing the directory reads the pickle spill.
        fresh = CheckpointStore(tmp_path)
        assert fresh.contains(key)
        assert fresh.get(key).fingerprint() == ck.fingerprint()
        assert fresh.hits == 1 and fresh.restored_bytes == ck.nbytes

    def test_spill_of_another_schema_is_a_miss(self, tmp_path):
        gh = make_system()
        warm(gh)
        ck = SystemCheckpoint.capture(gh)
        ck.schema = CKPT_SCHEMA - 1
        key = CheckpointStore.key("cfg", 1, "digest", [])
        CheckpointStore(tmp_path).put(key, ck)

        # A second store finds the pickle but never hands it out.
        fresh = CheckpointStore(tmp_path)
        assert fresh.contains(key)
        assert fresh.get(key) is None
        assert fresh.get(key) is None
        assert fresh.misses == 2 and fresh.hits == 0
        assert fresh.restored_bytes == 0

    def test_key_depends_on_prefix_and_interventions(self):
        base = CheckpointStore.key("cfg", 1, "digest", [])
        assert CheckpointStore.key("cfg", 1, "digest", []) == base
        assert CheckpointStore.key("cfg", 2, "digest", []) != base
        assert CheckpointStore.key("cfg", 1, "other", []) != base
        assert (
            CheckpointStore.key("cfg", 1, "digest", [[1, "x", []]]) != base
        )

    def test_stats_and_lifetime_sidecar(self, tmp_path):
        gh = make_system()
        warm(gh)
        ck = SystemCheckpoint.capture(gh)
        store = CheckpointStore(tmp_path)
        key = CheckpointStore.key("cfg", 1, "d", [])
        assert store.get(key) is None  # miss
        store.put(key, ck)
        store.get(key)  # hit
        s = store.stats()
        assert s["entries"] == 1
        assert s["session_hits"] == 1 and s["session_misses"] == 1
        assert s["session_restored_bytes"] == ck.nbytes
        store.save_session_stats()
        assert store.hits == store.misses == 0
        later = CheckpointStore(tmp_path).stats()
        assert later["lifetime_hits"] == 1
        assert later["lifetime_misses"] == 1
        assert later["lifetime_restored_bytes"] == ck.nbytes

    def test_invalidate_drops_everything(self, tmp_path):
        gh = make_system()
        warm(gh)
        store = CheckpointStore(tmp_path)
        store.put(CheckpointStore.key("c", 1, "d", []),
                  SystemCheckpoint.capture(gh))
        assert store.invalidate() == 1
        assert store.stats()["entries"] == 0
