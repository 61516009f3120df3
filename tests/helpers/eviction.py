"""Reference implementations for LRU eviction of managed memory: the
per-block loop ``ManagedMemoryManager.evict_bytes`` must equal bit for
bit, and the maximal runs its touch record must equal."""

from __future__ import annotations

import numpy as np

from repro.mem.pageset import MAX_SYMBOLIC_RUNS
from repro.sim.config import Location, Processor


def lru_gpu_blocks(alloc):
    """An allocation's GPU-resident 2 MB block ids, least recently
    touched first (ties in block order)."""
    blocks = np.flatnonzero(alloc._gpu_block_counts)
    order = np.argsort(alloc.block_last_touch[blocks], kind="stable")
    return blocks[order]


def per_block_evict(mgr, needed, now):
    """The per-block eviction loop that batched charging replaced: one
    ``streaming_time`` call and one TLB shootdown per block, in global
    LRU order. The oracle for ``evict_bytes``."""
    page = mgr.config.system_page_size
    if needed <= mgr.physical.gpu.free:
        return 0, 0.0
    target = needed - mgr.physical.gpu.free
    allocs = [a for a in mgr.allocations.values() if a.pages_at(Location.GPU)]
    if not allocs:
        return 0, 0.0
    per_alloc_blocks = [lru_gpu_blocks(a) for a in allocs]
    blocks = np.concatenate(per_alloc_blocks)
    touch = np.concatenate(
        [a.block_last_touch[b] for a, b in zip(allocs, per_alloc_blocks)]
    )
    counts = np.concatenate(
        [a._gpu_block_counts[b] for a, b in zip(allocs, per_alloc_blocks)]
    )
    owner = np.repeat(np.arange(len(allocs)), [b.size for b in per_alloc_blocks])
    order = np.argsort(touch, kind="stable")
    blocks, counts, owner = blocks[order], counts[order], owner[order]
    nbytes_each = counts * page
    cum = np.cumsum(nbytes_each)
    n_sel = int(np.count_nonzero(cum - nbytes_each < target))
    blocks, counts, owner = blocks[:n_sel], counts[:n_sel], owner[:n_sel]
    freed = int(cum[n_sel - 1]) if n_sel else 0
    seconds = 0.0
    for i in range(n_sel):
        t = mgr.link.streaming_time(
            int(nbytes_each[i]), Processor.GPU, Processor.CPU
        )
        seconds += t / mgr.config.eviction_bandwidth_fraction
        seconds += mgr.config.tlb_shootdown_time(int(counts[i]))
    for ai in np.unique(owner):
        alloc = allocs[ai]
        sel = blocks[owner == ai]
        gpu_pages = alloc.subset(alloc.block_pageset(sel), Location.GPU)
        nbytes = gpu_pages.count * page
        alloc.set_location(gpu_pages, Location.CPU)
        mgr.physical.gpu.release(nbytes, tag=alloc.tag)
        mgr.physical.cpu.reserve(nbytes, tag=alloc.tag)
        mgr.counters.bump(
            eviction_bytes=nbytes,
            migration_d2h_bytes=nbytes,
            pages_evicted=gpu_pages.count,
            pages_migrated_d2h=gpu_pages.count,
            tlb_shootdowns=int(sel.size),
        )
    if mgr.timeline is not None and freed:
        mgr.timeline.complete(
            "evict-batch", now, seconds, cat="mem", track="mem/eviction",
            bytes=freed,
        )
    return freed, seconds


def touch_maximal_runs(alloc) -> tuple:
    """``(block_lo, block_hi, time)`` of every maximal run of
    ``alloc.block_last_touch``, however many there are."""
    t = alloc.block_last_touch
    edges = (np.flatnonzero(t[1:] != t[:-1]) + 1).tolist()
    starts = [0, *edges]
    return tuple(zip(starts, [*edges, t.size], t[starts].tolist()))


def assert_touch_record(alloc) -> None:
    """A known touch record equals the maximal runs of
    ``block_last_touch``; ``()`` stands for more than
    :data:`MAX_SYMBOLIC_RUNS` of them."""
    if alloc._touch is None:
        return
    want = touch_maximal_runs(alloc)
    if alloc._touch == ():
        assert len(want) > MAX_SYMBOLIC_RUNS
    else:
        assert alloc._touch == want
