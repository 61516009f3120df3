"""Differential conformance: a deliberately naive per-page reference.

The production memory subsystem earns its speed from symbolic interval
PageSets, incrementally maintained location tallies, batched counter
flushes, and closed-form batch costs. :class:`ReferenceSystem` computes
the *same model* the slow, obvious way — every allocation's residency is
a plain Python list with one entry per page, subsets and counts are
``for`` loops, access counters are per-page integers — and
:func:`differential_replay` runs a recorded
:class:`~repro.profiling.trace.AccessTrace` through both executors,
demanding **identical** hardware counters (NVLink-C2C traffic
included) and simulated time. Any vectorisation bug in the fast paths
(a wrong mask, a stale tally, an off-by-one interval split) shows up as
a non-empty :attr:`DifferentialReport.divergent`.

Exactness: counters and wire traffic are integers, so equality is exact
by construction. Times are floats; the reference reproduces the
production model's *batch-level* cost expressions in the same operation
order (per-page naivety applies to state and integer bookkeeping), so
simulated-time equality is also exact: asserted with ``==``, no
tolerance.

The reference intentionally does not import the production ``PageSet``,
``Allocation``, ``MemoryPool``, counter, or wire-traffic code: the only
shared dependency is :class:`~repro.sim.config.SystemConfig`, whose cost
constants are the model's specification. Single-superchip scope: traces
are recorded on single-chip systems, and no page ever resides on another
chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.config import (
    FirstTouchPolicy,
    Location,
    Processor,
    SystemConfig,
)

#: CounterSet field names the reference tracks (kept in sync with
#: :class:`repro.profiling.counters.CounterSet` by the conformance tests,
#: which compare full ``as_dict()`` output).
_COUNTERS = (
    "hbm_read_bytes",
    "hbm_write_bytes",
    "lpddr_read_bytes",
    "lpddr_write_bytes",
    "c2c_read_bytes",
    "c2c_write_bytes",
    "cpu_remote_read_bytes",
    "cpu_remote_write_bytes",
    "l1l2_bytes",
    "migration_h2d_bytes",
    "migration_d2h_bytes",
    "eviction_bytes",
    "explicit_copy_bytes",
    "fabric_bytes",
    "fabric_hop_bytes",
    "gpu_replayable_faults",
    "cpu_page_faults",
    "managed_far_faults",
    "migration_notifications",
    "pages_migrated_h2d",
    "pages_migrated_d2h",
    "pages_evicted",
    "tlb_shootdowns",
    "fabric_transfers",
)


def _wire_bytes(useful: int, element: int, density: float, line: int) -> int:
    """Per-page wire traffic, derived independently from the model spec:
    dense streams move their useful bytes; sparse streams interpolate
    between perfectly coalesced lines and one line per element, capped by
    the distinct lines in the scatter span."""
    if useful == 0:
        return 0
    if density >= 1.0:
        return useful
    n_elements = max(1, useful // element)
    per_line = max(1, line // element)
    coalesced = -(-n_elements // per_line)
    lines = int(coalesced + (n_elements - coalesced) * (1.0 - density))
    span = int(useful / density)
    lines = min(lines, max(1, -(-span // line)))
    return lines * line


class _RefPool:
    """A byte-accounted pool: capacity, used, nothing clever."""

    def __init__(self, name: str, capacity: int):
        self.name = name
        self.capacity = capacity
        self.used = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def reserve(self, nbytes: int) -> None:
        if nbytes > self.free:
            raise RuntimeError(
                f"reference {self.name}: reservation exceeds capacity"
            )
        self.used += nbytes

    def release(self, nbytes: int) -> None:
        if nbytes > self.used:
            raise RuntimeError(f"reference {self.name}: released too much")
        self.used -= nbytes


class _RefLink:
    """NVLink-C2C cost of streaming and cacheline-remote transfers."""

    def __init__(self, config: SystemConfig):
        self.config = config

    def streaming_time(self, nbytes, src, dst) -> float:
        if nbytes <= 0:
            return 0.0
        bw = self.config.c2c_bandwidth(src, dst)
        return nbytes / bw + self.config.c2c_latency

    def remote_access_time(self, nbytes, accessor, *, efficiency=None) -> float:
        if nbytes <= 0:
            return 0.0
        eff = (
            self.config.remote_access_efficiency
            if efficiency is None
            else efficiency
        )
        src = accessor.other
        bw = self.config.c2c_bandwidth(src, accessor) * eff
        return nbytes / bw + self.config.c2c_latency


class _RefAlloc:
    """Per-page state, the obvious way: one list entry per page."""

    def __init__(self, name: str, kind: str, nbytes: int, config: SystemConfig):
        self.name = name
        self.kind = kind
        self.nbytes = int(nbytes)
        self.page_size = config.system_page_size
        self.n_pages = -(-self.nbytes // self.page_size)
        initial = Location.UNMAPPED
        if kind == "device":
            initial = Location.GPU
        elif kind in ("host-pinned", "numa-cpu"):
            initial = Location.CPU
        self.loc = [initial] * self.n_pages
        self.counter = [0] * self.n_pages
        self.block_pages = max(1, config.pages_per_gpu_page)
        self.n_blocks = -(-self.n_pages // self.block_pages)
        self.last_touch = [0.0] * self.n_blocks
        self.oversubscription_pinned = False

    # -- naive set helpers (each one a loop; no interval algebra) --------

    def pages_at(self, loc: Location) -> int:
        return sum(1 for s in self.loc if s is loc)

    def subset(self, pages: list[int], loc: Location) -> list[int]:
        return [p for p in pages if self.loc[p] is loc]

    def counts(self, pages: list[int]) -> dict[Location, int]:
        out = {loc: 0 for loc in Location}
        for p in pages:
            out[self.loc[p]] += 1
        return out

    def set_location(self, pages: list[int], loc: Location) -> None:
        for p in pages:
            self.loc[p] = loc

    def expand_blocks(self, pages: list[int], grain: int) -> list[int]:
        """align_down + clip: every page of every ``grain``-block any of
        ``pages`` falls in, within bounds."""
        out: set[int] = set()
        for p in pages:
            start = (p // grain) * grain
            out.update(range(start, min(start + grain, self.n_pages)))
        return sorted(out)

    def blocks_of(self, pages: list[int]) -> list[int]:
        return sorted({p // self.block_pages for p in pages})

    def touch_blocks(self, pages: list[int], now: float) -> None:
        for b in self.blocks_of(pages):
            self.last_touch[b] = now

    def lru_gpu_blocks(self) -> list[int]:
        gpu_blocks = self.blocks_of(
            [p for p in range(self.n_pages) if self.loc[p] is Location.GPU]
        )
        return sorted(gpu_blocks, key=lambda b: self.last_touch[b])

    def block_pageset(self, block: int) -> list[int]:
        start = block * self.block_pages
        return list(range(start, min(start + self.block_pages, self.n_pages)))


class _Out:
    """Mutable cost accumulator mirroring AccessResult/ManagedOutcome."""

    def __init__(self):
        self.fault_seconds = 0.0
        self.remote_seconds = 0.0
        self.transfer_seconds = 0.0
        self.hbm_bytes = 0
        self.lpddr_bytes = 0
        self.remote_bytes = 0


class ReferenceSystem:
    """Naive per-page executor for recorded access traces."""

    def __init__(self, config: SystemConfig | None = None):
        self.config = config or SystemConfig()
        self.time = 0.0
        self.counters = {name: 0 for name in _COUNTERS}
        self.link = _RefLink(self.config)
        self.cpu = _RefPool("LPDDR5X", self.config.cpu_memory_bytes)
        self.gpu = _RefPool("HBM3", self.config.gpu_memory_bytes)
        self.gpu.reserve(self.config.gpu_driver_baseline_bytes)
        #: Registration order matters: the migrator and the LRU evictor
        #: both iterate allocations in it.
        self.allocs: dict[str, _RefAlloc] = {}

    def _bump(self, **kv: int) -> None:
        for name, value in kv.items():
            self.counters[name] += value

    # -- trace replay ----------------------------------------------------

    def run(self, trace, *, epoch_every: int = 1) -> dict:
        """Replay ``trace`` start to finish; returns the summary dict."""
        gpu_batches = 0
        for rec in trace:
            alloc = self.allocs.get(rec.alloc_name)
            if alloc is None:
                alloc = self._allocate(rec)
            proc = Processor(rec.processor)
            if proc is Processor.GPU:
                gpu_batches += 1
                if gpu_batches % max(epoch_every, 1) == 0:
                    self.begin_epoch()
            pages = self._decode_pages(rec, alloc)
            out = self.access(proc, alloc, pages, rec, write=rec.write)
            cost = (
                out.fault_seconds
                + out.remote_seconds
                + out.transfer_seconds
                + out.hbm_bytes / self.config.hbm_bandwidth
                + out.lpddr_bytes / self.config.cpu_memory_bandwidth
            )
            self.time = self.time + cost
        return self.summary()

    def summary(self) -> dict:
        return {"replay_seconds": self.time, "counters": dict(self.counters)}

    def _allocate(self, rec) -> _RefAlloc:
        alloc = _RefAlloc(
            rec.alloc_name, rec.alloc_kind, rec.alloc_bytes, self.config
        )
        if rec.alloc_kind == "device":
            self.gpu.reserve(alloc.n_pages * alloc.page_size)
        elif rec.alloc_kind in ("host-pinned", "numa-cpu"):
            self.cpu.reserve(alloc.n_pages * alloc.page_size)
        self.allocs[rec.alloc_name] = alloc
        return alloc

    @staticmethod
    def _decode_pages(rec, alloc: _RefAlloc) -> list[int]:
        kind = rec.pages[0]
        if kind == "range":
            pages = range(rec.pages[1], rec.pages[2])
        elif kind == "runs":
            pages = (p for lo, hi in rec.pages[1] for p in range(lo, hi))
        else:
            pages = rec.pages[1]
        return sorted({int(p) for p in pages if 0 <= int(p) < alloc.n_pages})

    # -- access dispatch -------------------------------------------------

    def access(self, proc, alloc, pages, rec, *, write: bool) -> _Out:
        out = _Out()
        if not pages:
            return out
        useful = rec.useful_bytes
        if alloc.kind == "managed":
            if proc is Processor.GPU:
                self._managed_gpu(alloc, pages, rec, out, write)
            else:
                self._managed_cpu(alloc, pages, rec, out, write)
        elif alloc.kind == "device":
            if proc is Processor.CPU:
                raise PermissionError(
                    f"{alloc.name}: cudaMalloc memory is not CPU-accessible"
                )
            nbytes = useful * len(pages)
            out.hbm_bytes += nbytes
            self._bump(
                **{("hbm_write_bytes" if write else "hbm_read_bytes"): nbytes}
            )
        elif alloc.kind in ("host-pinned", "numa-cpu"):
            self._pinned(proc, alloc, pages, rec, out, write)
        else:
            self._system(proc, alloc, pages, rec, out, write)
        return out

    def _per_page_wire(self, proc, rec) -> int:
        return _wire_bytes(
            rec.useful_bytes,
            rec.element_bytes,
            rec.density,
            self.config.cacheline_bytes(proc),
        )

    # -- system (malloc) -------------------------------------------------

    def _system(self, proc, alloc, pages, rec, out, write) -> None:
        cfg = self.config
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            out.fault_seconds += self._first_touch(alloc, unmapped, proc)

        counts = alloc.counts(pages)
        if proc is Processor.GPU:
            n_local = counts[Location.GPU]
            n_remote = counts[Location.CPU] + counts[Location.CPU_PINNED]
        else:
            n_local = counts[Location.CPU] + counts[Location.CPU_PINNED]
            n_remote = counts[Location.GPU]

        local_bytes = rec.useful_bytes * n_local
        if proc is Processor.GPU:
            out.hbm_bytes += local_bytes
            self._bump(
                **{
                    (
                        "hbm_write_bytes" if write else "hbm_read_bytes"
                    ): local_bytes
                }
            )
        else:
            out.lpddr_bytes += local_bytes
            self._bump(
                **{
                    (
                        "lpddr_write_bytes" if write else "lpddr_read_bytes"
                    ): local_bytes
                }
            )

        if n_remote:
            wire = 0
            per_page = self._per_page_wire(proc, rec)
            for _ in range(n_remote):
                wire += per_page
            out.remote_bytes += wire
            out.remote_seconds += self.link.remote_access_time(wire, proc)
            if proc is Processor.GPU:
                self._bump(
                    **{("c2c_write_bytes" if write else "c2c_read_bytes"): wire}
                )
                if cfg.migration_enable:
                    per = max(
                        1,
                        (wire // max(n_remote, 1)) // cfg.cacheline_bytes_gpu,
                    )
                    for p in alloc.subset(pages, Location.CPU):
                        alloc.counter[p] += per
            else:
                self._bump(
                    **{
                        (
                            "cpu_remote_write_bytes"
                            if write
                            else "cpu_remote_read_bytes"
                        ): wire
                    }
                )

    def _first_touch(self, alloc, unmapped: list[int], proc) -> float:
        cfg = self.config
        page_size = cfg.system_page_size
        want_gpu = (
            proc is Processor.GPU
            and cfg.first_touch_policy is FirstTouchPolicy.ACCESSOR
        )
        gpu_part: list[int] = []
        if want_gpu:
            gpu_part = unmapped[: self.gpu.free // page_size]
        cpu_part = [p for p in unmapped if p not in set(gpu_part)]
        if gpu_part:
            alloc.set_location(gpu_part, Location.GPU)
            self.gpu.reserve(len(gpu_part) * page_size)
        if cpu_part:
            alloc.set_location(cpu_part, Location.CPU)
            self.cpu.reserve(len(cpu_part) * page_size)
        n = len(unmapped)
        seconds = 0.0
        if proc is Processor.GPU:
            seconds += n * cfg.gpu_replayable_fault_cost
            self._bump(gpu_replayable_faults=n)
        else:
            cost = n * cfg.cpu_fault_cost
            if cfg.autonuma_enable:
                cost += n * cfg.autonuma_hint_fault_cost
            seconds += cost
            self._bump(cpu_page_faults=n)
        seconds += (n * page_size) / cfg.fault_zeroing_bandwidth
        return seconds

    # -- pinned / numa ---------------------------------------------------

    def _pinned(self, proc, alloc, pages, rec, out, write) -> None:
        useful = rec.useful_bytes * len(pages)
        if proc is Processor.CPU:
            out.lpddr_bytes = useful
            self._bump(
                **{
                    (
                        "lpddr_write_bytes" if write else "lpddr_read_bytes"
                    ): useful
                }
            )
        else:
            wire = self._per_page_wire(proc, rec) * len(pages)
            out.remote_bytes = wire
            out.remote_seconds = self.link.remote_access_time(wire, proc)
            self._bump(
                **{("c2c_write_bytes" if write else "c2c_read_bytes"): wire}
            )

    # -- managed ---------------------------------------------------------

    def _managed_gpu(self, alloc, pages, rec, out, write) -> None:
        counts = alloc.counts(pages)  # snapshot gates the steps below
        alloc.touch_blocks(pages, self.time)

        n_gpu = counts[Location.GPU]
        if n_gpu:
            out.hbm_bytes += rec.useful_bytes * n_gpu

        if counts[Location.UNMAPPED]:
            self._managed_first_touch(
                alloc, alloc.subset(pages, Location.UNMAPPED), rec, out
            )

        if counts[Location.CPU]:
            cpu_pages = alloc.subset(pages, Location.CPU)
            if alloc.oversubscription_pinned:
                self._managed_remote(alloc, cpu_pages, rec, out)
            else:
                self._on_demand_migrate(alloc, cpu_pages, rec, out)

        if counts[Location.CPU_PINNED]:
            self._managed_remote(
                alloc, alloc.subset(pages, Location.CPU_PINNED), rec, out
            )

        if write:
            self._bump(
                hbm_write_bytes=out.hbm_bytes, c2c_write_bytes=out.remote_bytes
            )
        else:
            self._bump(
                hbm_read_bytes=out.hbm_bytes, c2c_read_bytes=out.remote_bytes
            )

    def _naturally_oversubscribed(self, alloc) -> bool:
        return alloc.nbytes > self.gpu.capacity - (
            self.config.gpu_driver_baseline_bytes
        )

    def _evict_bytes(self, needed: int) -> float:
        """LRU eviction across every managed allocation; returns seconds."""
        cfg = self.config
        if needed <= self.gpu.free:
            return 0.0
        target = needed - self.gpu.free
        freed = 0
        seconds = 0.0
        candidates = []
        for alloc in self.allocs.values():
            if alloc.kind != "managed":
                continue
            for block in alloc.lru_gpu_blocks():
                candidates.append((alloc.last_touch[block], alloc, block))
        candidates.sort(key=lambda c: c[0])
        for _, alloc, block in candidates:
            if freed >= target:
                break
            gpu_pages = alloc.subset(alloc.block_pageset(block), Location.GPU)
            if not gpu_pages:
                continue
            nbytes = len(gpu_pages) * cfg.system_page_size
            alloc.set_location(gpu_pages, Location.CPU)
            self.gpu.release(nbytes)
            self.cpu.reserve(nbytes)
            t = self.link.streaming_time(nbytes, Processor.GPU, Processor.CPU)
            seconds += t / cfg.eviction_bandwidth_fraction
            seconds += cfg.tlb_shootdown_cost + len(gpu_pages) * 1e-9
            freed += nbytes
            self._bump(
                eviction_bytes=nbytes,
                migration_d2h_bytes=nbytes,
                pages_evicted=len(gpu_pages),
                pages_migrated_d2h=len(gpu_pages),
                tlb_shootdowns=1,
            )
        return seconds

    def _managed_first_touch(self, alloc, pages, rec, out) -> None:
        cfg = self.config
        pages = alloc.subset(
            alloc.expand_blocks(pages, alloc.block_pages), Location.UNMAPPED
        )
        nbytes = len(pages) * cfg.system_page_size
        if nbytes == 0:
            return
        evict_t = self._evict_bytes(
            nbytes + cfg.managed_eviction_headroom_bytes
        )
        out.fault_seconds += evict_t
        fit_pages = max(
            self.gpu.free - cfg.managed_eviction_headroom_bytes, 0
        ) // cfg.system_page_size
        gpu_part = pages[:fit_pages]
        cpu_part = pages[fit_pages:]
        if gpu_part:
            alloc.set_location(gpu_part, Location.GPU)
            self.gpu.reserve(len(gpu_part) * cfg.system_page_size)
            n_blocks = len(alloc.blocks_of(gpu_part))
            out.fault_seconds += n_blocks * cfg.gpu_pte_create_cost
            out.hbm_bytes += rec.useful_bytes * len(gpu_part)
        if cpu_part:
            loc = (
                Location.CPU_PINNED
                if self._naturally_oversubscribed(alloc)
                else Location.CPU
            )
            alloc.set_location(cpu_part, loc)
            self.cpu.reserve(len(cpu_part) * cfg.system_page_size)
            out.fault_seconds += (
                len(alloc.blocks_of(cpu_part)) * cfg.managed_farfault_cost
            )
            out.remote_seconds += self.link.remote_access_time(
                rec.useful_bytes * len(cpu_part),
                Processor.GPU,
                efficiency=cfg.managed_remote_eff(),
            )
            out.remote_bytes += rec.useful_bytes * len(cpu_part)

    def _on_demand_migrate(self, alloc, cpu_pages, rec, out) -> None:
        cfg = self.config
        if self._naturally_oversubscribed(alloc):
            alloc.oversubscription_pinned = True
            alloc.set_location(cpu_pages, Location.CPU_PINNED)
            self._managed_remote(alloc, cpu_pages, rec, out)
            return
        nbytes = len(cpu_pages) * cfg.system_page_size
        evict_t = self._evict_bytes(
            nbytes + cfg.managed_eviction_headroom_bytes
        )
        thrash = cfg.eviction_thrash_factor() if evict_t > 0 else 1.0
        fit_pages = max(
            self.gpu.free - cfg.managed_eviction_headroom_bytes, 0
        ) // cfg.system_page_size
        move = cpu_pages[:fit_pages]
        rest = cpu_pages[fit_pages:]
        if move:
            moved_bytes = len(move) * cfg.system_page_size
            batches = -(-moved_bytes // cfg.managed_migration_granularity)
            out.fault_seconds += batches * cfg.managed_farfault_cost + evict_t
            effective = int(moved_bytes * thrash)
            out.transfer_seconds += self.link.streaming_time(
                effective, Processor.CPU, Processor.GPU
            )
            alloc.set_location(move, Location.GPU)
            self.cpu.release(moved_bytes)
            self.gpu.reserve(moved_bytes)
            out.hbm_bytes += rec.useful_bytes * len(move)
            self._bump(
                migration_h2d_bytes=effective,
                pages_migrated_h2d=len(move),
                managed_far_faults=batches,
            )
        if rest:
            self._streaming_thrash(alloc, rest, rec, out)

    def _streaming_thrash(self, alloc, pages, rec, out) -> None:
        cfg = self.config
        nbytes = len(pages) * cfg.system_page_size
        if nbytes == 0:
            return
        effective = int(nbytes * cfg.eviction_thrash_factor())
        batches = -(-nbytes // cfg.managed_migration_granularity)
        out.fault_seconds += batches * cfg.managed_farfault_cost
        out.transfer_seconds += self.link.streaming_time(
            effective, Processor.CPU, Processor.GPU
        )
        out.transfer_seconds += (
            self.link.streaming_time(effective, Processor.GPU, Processor.CPU)
            / cfg.eviction_bandwidth_fraction
        )
        out.hbm_bytes += rec.useful_bytes * len(pages)
        self._bump(
            migration_h2d_bytes=effective,
            migration_d2h_bytes=effective,
            eviction_bytes=effective,
            managed_far_faults=batches,
            pages_migrated_h2d=len(pages),
            pages_migrated_d2h=len(pages),
            pages_evicted=len(pages),
        )

    def _managed_remote(self, alloc, pages, rec, out) -> None:
        wire = self._per_page_wire(Processor.GPU, rec) * len(pages)
        out.remote_seconds += self.link.remote_access_time(
            wire, Processor.GPU, efficiency=self.config.managed_remote_eff()
        )
        out.remote_bytes += wire

    def _managed_cpu(self, alloc, pages, rec, out, write) -> None:
        cfg = self.config
        counts = alloc.counts(pages)

        n_unmapped = counts[Location.UNMAPPED]
        if n_unmapped:
            unmapped = alloc.subset(pages, Location.UNMAPPED)
            alloc.set_location(unmapped, Location.CPU)
            self.cpu.reserve(len(unmapped) * cfg.system_page_size)
            out.fault_seconds += len(unmapped) * cfg.cpu_fault_cost
            self._bump(cpu_page_faults=len(unmapped))

        n_gpu = counts[Location.GPU]
        if n_gpu:
            gpu_pages = alloc.subset(pages, Location.GPU)
            victim = alloc.subset(
                alloc.expand_blocks(gpu_pages, alloc.block_pages), Location.GPU
            )
            nbytes = len(victim) * cfg.system_page_size
            alloc.set_location(victim, Location.CPU)
            self.gpu.release(nbytes)
            self.cpu.reserve(nbytes)
            out.transfer_seconds += self.link.streaming_time(
                nbytes, Processor.GPU, Processor.CPU
            )
            out.fault_seconds += len(
                alloc.blocks_of(victim)
            ) * cfg.managed_farfault_cost + (
                cfg.tlb_shootdown_cost + len(victim) * 1e-9
            )
            self._bump(
                migration_d2h_bytes=nbytes,
                pages_migrated_d2h=len(victim),
                tlb_shootdowns=1,
            )

        cpu_like = counts[Location.CPU] + counts[Location.CPU_PINNED]
        local_bytes = rec.useful_bytes * (cpu_like + n_unmapped + n_gpu)
        out.lpddr_bytes += local_bytes
        self._bump(
            lpddr_write_bytes=local_bytes if write else 0,
            lpddr_read_bytes=0 if write else local_bytes,
        )

    # -- epoch servicing (access-counter migration) ----------------------

    def begin_epoch(self) -> None:
        cfg = self.config
        if not cfg.migration_enable:
            return
        budget_pages = cfg.migration_epoch_budget_bytes // cfg.system_page_size
        region = max(1, cfg.gpu_page_size // cfg.system_page_size)
        for alloc in self.allocs.values():
            if budget_pages <= 0:
                break
            if alloc.kind != "system":
                continue
            cpu_pages = [
                p for p in range(alloc.n_pages) if alloc.loc[p] is Location.CPU
            ]
            if not cpu_pages:
                continue
            hot = [
                p
                for p in cpu_pages
                if alloc.counter[p] >= cfg.migration_threshold
            ]
            if not hot:
                continue
            self._bump(migration_notifications=1)
            hot_regions = alloc.expand_blocks(hot, region)
            candidates = alloc.subset(hot_regions, Location.CPU)
            take = candidates[:budget_pages]
            budget_pages -= self._migrate_to_gpu(alloc, take, region)

    def _migrate_to_gpu(self, alloc, pages: list[int], region: int) -> int:
        cfg = self.config
        page_size = cfg.system_page_size
        pages = pages[: self.gpu.free // page_size]
        if not pages:
            return 0
        nbytes = len(pages) * page_size
        alloc.set_location(pages, Location.GPU)
        for p in alloc.expand_blocks(pages, region):
            alloc.counter[p] = 0
        self.cpu.release(nbytes)
        self.gpu.reserve(nbytes)
        # The transfer/stall seconds land in a MigrationReport the trace
        # replay discards, so the reference does not compute them.
        self._bump(
            migration_h2d_bytes=nbytes,
            pages_migrated_h2d=len(pages),
            tlb_shootdowns=1,
        )
        return len(pages)


class UpmReferenceSystem(ReferenceSystem):
    """Naive per-page reference for the ``upm`` backend.

    Mirrors :class:`repro.mem.arch_upm.UpmArchitecture` the obvious way:
    one pool of ``cpu + gpu`` bytes backs everything, first touch by
    either engine lands in it at the uniform
    :attr:`~repro.sim.config.SystemConfig.upm_fault_cost` (plus page
    zeroing), nothing ever migrates or evicts, GPU-issued local traffic
    counts as ``hbm_*`` and CPU-issued as ``lpddr_*``, and pinned host
    memory is GPU-accessible zero-copy with no C2C hop. The same
    batch-level cost expressions in the same operation order keep time
    equality exact.
    """

    def __init__(self, config: SystemConfig | None = None):
        super().__init__(config)
        pool = _RefPool(
            "UnifiedHBM",
            self.config.cpu_memory_bytes + self.config.gpu_memory_bytes,
        )
        pool.reserve(self.config.gpu_driver_baseline_bytes)
        # One pool behind both endpoints: the inherited ``_allocate``
        # (device -> gpu, pinned/numa -> cpu) reserves into it either way.
        self.cpu = pool
        self.gpu = pool

    # -- uniform fault economics -----------------------------------------

    def _first_touch(self, alloc, unmapped: list[int], proc) -> float:
        cfg = self.config
        page_size = cfg.system_page_size
        if len(unmapped) > self.gpu.free // page_size:
            raise RuntimeError(
                f"reference {self.gpu.name}: unified pool exhausted"
            )
        alloc.set_location(unmapped, Location.GPU)
        self.gpu.reserve(len(unmapped) * page_size)
        n = len(unmapped)
        if proc is Processor.GPU:
            self._bump(gpu_replayable_faults=n)
        else:
            self._bump(cpu_page_faults=n)
        seconds = 0.0
        seconds += n * cfg.upm_fault_cost
        seconds += (n * page_size) / cfg.fault_zeroing_bandwidth
        return seconds

    def _local_bytes(self, alloc, pages, rec, out, proc, write) -> None:
        counts = alloc.counts(pages)
        n_local = (
            counts[Location.GPU]
            + counts[Location.CPU]
            + counts[Location.CPU_PINNED]
        )
        local_bytes = rec.useful_bytes * n_local
        if proc is Processor.GPU:
            out.hbm_bytes += local_bytes
            self._bump(
                **{
                    (
                        "hbm_write_bytes" if write else "hbm_read_bytes"
                    ): local_bytes
                }
            )
        else:
            out.lpddr_bytes += local_bytes
            self._bump(
                **{
                    (
                        "lpddr_write_bytes" if write else "lpddr_read_bytes"
                    ): local_bytes
                }
            )

    # -- access paths ----------------------------------------------------

    def _system(self, proc, alloc, pages, rec, out, write) -> None:
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            out.fault_seconds += self._first_touch(alloc, unmapped, proc)
        self._local_bytes(alloc, pages, rec, out, proc, write)

    def _managed_gpu(self, alloc, pages, rec, out, write) -> None:
        alloc.touch_blocks(pages, self.time)
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            out.fault_seconds += self._first_touch(
                alloc, unmapped, Processor.GPU
            )
        self._local_bytes(alloc, pages, rec, out, Processor.GPU, write)

    def _managed_cpu(self, alloc, pages, rec, out, write) -> None:
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            out.fault_seconds += self._first_touch(
                alloc, unmapped, Processor.CPU
            )
        self._local_bytes(alloc, pages, rec, out, Processor.CPU, write)

    def _pinned(self, proc, alloc, pages, rec, out, write) -> None:
        useful = rec.useful_bytes * len(pages)
        if proc is Processor.CPU:
            out.lpddr_bytes = useful
            self._bump(
                **{
                    (
                        "lpddr_write_bytes" if write else "lpddr_read_bytes"
                    ): useful
                }
            )
        else:
            # Zero-copy from the unified pool at the GPU roofline.
            out.hbm_bytes = useful
            self._bump(
                **{("hbm_write_bytes" if write else "hbm_read_bytes"): useful}
            )

    # -- epochs ----------------------------------------------------------

    def begin_epoch(self) -> None:
        # No migrator: epoch boundaries move nothing and cost nothing.
        return


class SvmReferenceSystem(ReferenceSystem):
    """Naive per-page reference for the ``svm`` backend.

    Mirrors :class:`repro.mem.arch_svm.SvmArchitecture` the obvious way:
    split host/device pools, first touch always host-side at
    :attr:`~repro.sim.config.SystemConfig.svm_fault_cost` (GPU) or the
    OS anonymous-fault cost (CPU) plus zeroing, every touch of a page
    resident on the other side a fault plus an eager page-granularity
    transfer over the :meth:`~repro.sim.config.SystemConfig
    .svm_transfer_time` link, device-pool eviction in registration
    order, and overflow batches streaming in and straight back out. No
    cacheline-grain remote path exists, so ``c2c_*``/``cpu_remote_*``
    stay zero except for pinned-memory DMA. The same batch-level cost
    expressions in the same operation order keep time equality exact.
    """

    # -- fault economics -------------------------------------------------

    def _first_touch(self, alloc, unmapped: list[int], proc) -> float:
        cfg = self.config
        page_size = cfg.system_page_size
        alloc.set_location(unmapped, Location.CPU)
        self.cpu.reserve(len(unmapped) * page_size)
        n = len(unmapped)
        seconds = 0.0
        if proc is Processor.GPU:
            self._bump(gpu_replayable_faults=n)
            seconds += n * cfg.svm_fault_cost
        else:
            cost = n * cfg.cpu_fault_cost
            if cfg.autonuma_enable:
                cost += n * cfg.autonuma_hint_fault_cost
            seconds += cost
            self._bump(cpu_page_faults=n)
        seconds += (n * page_size) / cfg.fault_zeroing_bandwidth
        return seconds

    # -- eviction --------------------------------------------------------

    def _svm_evict(self, needed: int, protect_name: str, protect) -> float:
        cfg = self.config
        if needed <= self.gpu.free:
            return 0.0
        page_size = cfg.system_page_size
        target = needed - self.gpu.free
        protect_set = set(protect)
        seconds = 0.0
        for victim in list(self.allocs.values()):
            if target <= 0:
                break
            if victim.kind not in ("system", "managed"):
                continue
            cand = [
                p
                for p in range(victim.n_pages)
                if victim.loc[p] is Location.GPU
            ]
            if victim.name == protect_name:
                cand = [p for p in cand if p not in protect_set]
            take = cand[: -(-target // page_size)]
            if not take:
                continue
            nbytes = len(take) * page_size
            victim.set_location(take, Location.CPU)
            self.gpu.release(nbytes)
            self.cpu.reserve(nbytes)
            seconds += (
                cfg.svm_transfer_time(nbytes) / cfg.eviction_bandwidth_fraction
            )
            seconds += cfg.tlb_shootdown_cost + len(take) * 1e-9
            self._bump(
                eviction_bytes=nbytes,
                migration_d2h_bytes=nbytes,
                pages_evicted=len(take),
                pages_migrated_d2h=len(take),
                tlb_shootdowns=1,
            )
            target -= nbytes
        return seconds

    # -- shared access paths ---------------------------------------------

    def _svm_gpu(self, alloc, pages, rec, out, write) -> None:
        cfg = self.config
        page_size = cfg.system_page_size
        counts = alloc.counts(pages)  # snapshot before fault servicing
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            out.fault_seconds += self._first_touch(
                alloc, unmapped, Processor.GPU
            )
        n_stale = counts[Location.CPU] + counts[Location.CPU_PINNED]
        if n_stale:
            self._bump(gpu_replayable_faults=n_stale)
            out.fault_seconds += n_stale * cfg.svm_fault_cost

        move = alloc.subset(pages, Location.CPU)
        if move:
            out.fault_seconds += self._svm_evict(
                len(move) * page_size, alloc.name, pages
            )
            fit = move[: self.gpu.free // page_size]
            rest = move[len(fit):]
            if fit:
                nbytes = len(fit) * page_size
                alloc.set_location(fit, Location.GPU)
                self.cpu.release(nbytes)
                self.gpu.reserve(nbytes)
                out.transfer_seconds += cfg.svm_transfer_time(nbytes)
                self._bump(
                    migration_h2d_bytes=nbytes,
                    pages_migrated_h2d=len(fit),
                )
            if rest:
                nbytes = len(rest) * page_size
                t_in = cfg.svm_transfer_time(nbytes)
                t_out = (
                    cfg.svm_transfer_time(nbytes)
                    / cfg.eviction_bandwidth_fraction
                )
                out.transfer_seconds += t_in + t_out
                self._bump(
                    migration_h2d_bytes=nbytes,
                    migration_d2h_bytes=nbytes,
                    eviction_bytes=nbytes,
                    pages_migrated_h2d=len(rest),
                    pages_migrated_d2h=len(rest),
                    pages_evicted=len(rest),
                )

        local_bytes = rec.useful_bytes * len(pages)
        out.hbm_bytes += local_bytes
        self._bump(
            **{("hbm_write_bytes" if write else "hbm_read_bytes"): local_bytes}
        )

    def _svm_cpu(self, alloc, pages, rec, out, write) -> None:
        cfg = self.config
        page_size = cfg.system_page_size
        unmapped = alloc.subset(pages, Location.UNMAPPED)
        if unmapped:
            out.fault_seconds += self._first_touch(
                alloc, unmapped, Processor.CPU
            )

        gpu_set = alloc.subset(pages, Location.GPU)
        if gpu_set:
            n = len(gpu_set)
            self._bump(cpu_page_faults=n)
            out.fault_seconds += n * cfg.svm_fault_cost
            nbytes = n * page_size
            alloc.set_location(gpu_set, Location.CPU)
            self.gpu.release(nbytes)
            self.cpu.reserve(nbytes)
            out.transfer_seconds += cfg.svm_transfer_time(nbytes)
            out.fault_seconds += cfg.tlb_shootdown_cost + n * 1e-9
            self._bump(
                migration_d2h_bytes=nbytes,
                pages_migrated_d2h=n,
                tlb_shootdowns=1,
            )

        local_bytes = rec.useful_bytes * len(pages)
        out.lpddr_bytes += local_bytes
        self._bump(
            **{
                (
                    "lpddr_write_bytes" if write else "lpddr_read_bytes"
                ): local_bytes
            }
        )

    # -- per-kind dispatch -----------------------------------------------

    def _system(self, proc, alloc, pages, rec, out, write) -> None:
        if proc is Processor.GPU:
            self._svm_gpu(alloc, pages, rec, out, write)
        else:
            self._svm_cpu(alloc, pages, rec, out, write)

    def _managed_gpu(self, alloc, pages, rec, out, write) -> None:
        alloc.touch_blocks(pages, self.time)
        self._svm_gpu(alloc, pages, rec, out, write)

    def _managed_cpu(self, alloc, pages, rec, out, write) -> None:
        self._svm_cpu(alloc, pages, rec, out, write)

    def _pinned(self, proc, alloc, pages, rec, out, write) -> None:
        useful = rec.useful_bytes * len(pages)
        if proc is Processor.CPU:
            out.lpddr_bytes = useful
            self._bump(
                **{
                    (
                        "lpddr_write_bytes" if write else "lpddr_read_bytes"
                    ): useful
                }
            )
        else:
            # Page-granularity DMA over the link, not a coherent load.
            wire = self._per_page_wire(proc, rec) * len(pages)
            out.remote_bytes = wire
            out.remote_seconds = self.config.svm_transfer_time(wire)
            self._bump(
                **{("c2c_write_bytes" if write else "c2c_read_bytes"): wire}
            )

    # -- epochs ----------------------------------------------------------

    def begin_epoch(self) -> None:
        # Migration is eager and on-fault; epochs move nothing.
        return


#: ``SystemConfig.mem_arch`` -> naive reference executor for that backend.
REFERENCE_SYSTEMS: dict[str, type] = {
    "gh200": ReferenceSystem,
    "upm": UpmReferenceSystem,
    "svm": SvmReferenceSystem,
}


def reference_system_for(config: SystemConfig) -> "ReferenceSystem":
    """A fresh reference executor matching ``config.mem_arch``."""
    try:
        cls = REFERENCE_SYSTEMS[config.mem_arch]
    except KeyError:
        raise ValueError(
            f"no reference executor for memory architecture "
            f"{config.mem_arch!r}; known: {sorted(REFERENCE_SYSTEMS)}"
        ) from None
    return cls(config)


@dataclass
class DifferentialReport:
    """Outcome of one production-vs-reference trace replay."""

    batches: int
    production: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    #: metric name -> (production value, reference value); empty == pass.
    divergent: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergent

    def summary(self) -> str:
        if self.ok:
            return (
                f"conformance OK: {self.batches} batches, "
                f"{len(self.production['counters'])} counters identical, "
                f"time identical ({self.production['replay_seconds']:.6g}s)"
            )
        lines = [f"conformance FAILED on {len(self.divergent)} metric(s):"]
        for name, (prod, ref) in sorted(self.divergent.items()):
            lines.append(f"  {name}: production={prod!r} reference={ref!r}")
        return "\n".join(lines)


def differential_replay(
    trace,
    config: SystemConfig | None = None,
    *,
    epoch_every: int = 1,
) -> DifferentialReport:
    """Replay ``trace`` through both executors and diff the outcomes.

    The production side goes through
    :func:`repro.profiling.trace.replay` on a fresh
    :class:`~repro.core.runtime.GraceHopperSystem`; the reference side
    through :class:`ReferenceSystem`. Equality is exact — integers for
    counters, identical-expression floats for time.
    """
    from ..core.runtime import GraceHopperSystem
    from ..profiling.trace import replay as production_replay

    config = config or SystemConfig()
    gh = GraceHopperSystem(config)
    production_replay(trace, gh, epoch_every=epoch_every)
    production = {
        "replay_seconds": gh.now,
        "counters": gh.counters.total.as_dict(),
    }

    reference = reference_system_for(config.copy()).run(
        trace, epoch_every=epoch_every
    )

    divergent: dict[str, tuple] = {}
    for name in set(production["counters"]) | set(reference["counters"]):
        prod = production["counters"].get(name, 0)
        ref = reference["counters"].get(name, 0)
        if prod != ref:
            divergent[f"counter:{name}"] = (prod, ref)
    if production["replay_seconds"] != reference["replay_seconds"]:
        divergent["replay_seconds"] = (
            production["replay_seconds"],
            reference["replay_seconds"],
        )
    return DifferentialReport(
        batches=len(trace),
        production=production,
        reference=reference,
        divergent=divergent,
    )
