"""Opt-in invariant checking for the simulated memory subsystem.

The paper's conclusions rest on *relative* numbers from the simulated
GH200 memory model, so a silent invariant break — bytes unaccounted
after a REMOTE spill, counters diverging from link traffic, the
incremental location tallies drifting from the per-page state array —
corrupts every table the repo regenerates. :class:`MemSanitizer` is the
guard rail: an epoch-hooked checker wired into
:meth:`~repro.mem.subsystem.MemorySubsystem.begin_epoch` / ``access`` /
``allocate`` / ``free`` that re-derives every conservation law from
first principles and raises a structured :class:`InvariantViolation`
(sim-time, epoch, offending allocation) the moment one fails.

Enabling it:

* ``SystemConfig(sanitize=True)`` — per-system opt-in;
* ``REPRO_SANITIZE=1`` in the environment — global switch, inherited by
  forked worker processes (the serving layer and the parallel runner
  propagate it explicitly for non-fork start methods).

The checks are deliberately written against the *naive* definitions
(``np.bincount`` over the state array, sums over ``by_tag``) rather than
the incremental fast-path bookkeeping they validate.

Invariants enforced
-------------------

1. **Pool sanity** — ``0 <= used <= capacity``, ``used`` equals the sum
   of its ``by_tag`` ledger, no negative tag entries, ``peak >= used``.
2. **Residency exclusivity** — every page holds exactly one valid
   :class:`~repro.sim.config.Location`, and the incrementally maintained
   ``_loc_counts`` equal a fresh ``bincount`` of the state array.
3. **Byte conservation** — each live allocation's per-pool ``by_tag``
   reservations equal its resident bytes per location, including peer
   pools reached through the fabric port for ``Location.REMOTE`` pages,
   and ``remote_pages_by_node`` sums to ``pages_at(REMOTE)``.
4. **Counter conservation** — migration/eviction byte counters bracket
   their page counters times the page size (the upper bound allows the
   managed thrash amplification), eviction traffic never exceeds D2H
   migration traffic, the NVLink-C2C per-class ledgers are conserved,
   and the link's "remote" class equals the sum of the four remote-access
   hardware counters. The fault counters are compared exactly against
   the reference executors by differential replay (``check.reference``).
5. **Page-table coherence** — no freed or mis-kinded allocation is
   registered, managed allocations appear in both tables and in the
   managed manager, device allocations are fully GPU-resident.
6. **Access-counter bound** — each allocation's ``counters.peak`` is at
   least its largest per-page count, since ``crossed`` skips its scan on
   that bound.
7. **Residency runs** — a known run record equals the maximal runs of
   the state array, and the ``()`` marker stands for more runs than
   :data:`~repro.mem.pageset.MAX_SYMBOLIC_RUNS`, since range and
   interval-list queries answer from the record without reading the
   state.
8. **Touch runs** — a known touch record equals the maximal runs of
   ``block_last_touch``, with the same ``()`` marker, since LRU eviction
   orders blocks from the record without reading the array.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from ..mem.pageset import MAX_SYMBOLIC_RUNS
from ..mem.pagetable import Allocation, AllocKind
from ..sim.config import Location

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mem.subsystem import MemorySubsystem

#: Environment switch equivalent to ``SystemConfig.sanitize=True``.
ENV_FLAG = "REPRO_SANITIZE"


def sanitize_requested(config=None) -> bool:
    """Is sanitizing enabled — by config field or ``REPRO_SANITIZE``?"""
    if config is not None and getattr(config, "sanitize", False):
        return True
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class InvariantViolation(AssertionError):
    """A memory-model invariant failed.

    Structured: carries the invariant name, the simulated time and epoch
    at which the check ran, the offending allocation (when one is
    implicated), and a details dict with the numbers that disagreed.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        sim_time: float = 0.0,
        epoch: int = 0,
        alloc=None,
        details: dict | None = None,
    ):
        self.invariant = invariant
        self.message = message
        self.sim_time = float(sim_time)
        self.epoch = int(epoch)
        self.alloc_name = (
            alloc if (alloc is None or isinstance(alloc, str)) else alloc.name
        )
        self.details = dict(details or {})
        super().__init__(self._format())

    def _format(self) -> str:
        where = f"sim_time={self.sim_time:.9f}s epoch={self.epoch}"
        who = f" alloc={self.alloc_name}" if self.alloc_name else ""
        extra = f" details={self.details}" if self.details else ""
        return f"[{self.invariant}] {self.message} ({where}{who}){extra}"


class MemSanitizer:
    """Epoch-hooked invariant checker over one :class:`MemorySubsystem`.

    Hook protocol (called by the subsystem when sanitizing is enabled):

    * :meth:`after_alloc` / :meth:`after_free` — full sweep;
    * :meth:`begin_epoch` — bumps the epoch counter, full sweep (runs
      *after* the migrator serviced its notifications);
    * :meth:`after_access` — cheap path: the touched allocation plus the
      pool and counter ledgers (a full sweep per access batch would make
      large runs quadratic in the allocation count).
    """

    def __init__(self, mem: "MemorySubsystem"):
        self.mem = mem
        self.epoch = 0
        #: Simulated time of the most recent hooked event; a
        #: :class:`~repro.core.runtime.GraceHopperSystem` overrides this
        #: with its clock via :attr:`clock`.
        self.last_now = 0.0
        self.clock = None
        self.checks_run = 0

    # -- context ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now if self.clock is not None else self.last_now

    def _fail(
        self, invariant: str, message: str, *, alloc=None, details=None
    ) -> None:
        raise InvariantViolation(
            invariant,
            message,
            sim_time=self.now,
            epoch=self.epoch,
            alloc=alloc,
            details=details,
        )

    # -- hooks ------------------------------------------------------------

    def after_alloc(self, alloc: Allocation) -> None:
        self.check_all(alloc=alloc)

    def after_free(self, alloc: Allocation) -> None:
        self._check_freed_drained(alloc)
        self.check_all()

    def begin_epoch(self) -> None:
        self.epoch += 1
        self.check_all()

    def after_access(self, alloc: Allocation, now: float) -> None:
        self.last_now = max(self.last_now, float(now))
        self.checks_run += 1
        self.check_pools()
        self.check_alloc(alloc)
        self.check_counters()

    # -- full sweep -------------------------------------------------------

    def check_all(self, alloc: Allocation | None = None) -> None:
        """Run every invariant; ``alloc`` is only used for attribution."""
        self.checks_run += 1
        self.check_pools()
        self.check_tables()
        for a in self._live_allocations():
            self.check_alloc(a)
        self.check_counters()

    def _live_allocations(self) -> list[Allocation]:
        seen: dict[int, Allocation] = {}
        for table in (self.mem.system_table, self.mem.gpu_table):
            for a in table.live_allocations():
                seen[a.aid] = a
        return list(seen.values())

    # -- invariant groups -------------------------------------------------

    def check_pools(self) -> None:
        for pool in (self.mem.physical.cpu, self.mem.physical.gpu):
            if not 0 <= pool.used <= pool.capacity:
                self._fail(
                    "pool-capacity",
                    f"{pool.name}: used bytes outside [0, capacity]",
                    details={"used": pool.used, "capacity": pool.capacity},
                )
            ledger = sum(pool.by_tag.values())
            if ledger != pool.used:
                self._fail(
                    "pool-ledger",
                    f"{pool.name}: by_tag ledger disagrees with used bytes",
                    details={"by_tag_sum": ledger, "used": pool.used},
                )
            for tag, nbytes in pool.by_tag.items():
                if nbytes < 0:
                    self._fail(
                        "pool-ledger",
                        f"{pool.name}: negative reservation under tag {tag!r}",
                        details={"tag": tag, "bytes": nbytes},
                    )
            if pool.peak < pool.used:
                self._fail(
                    "pool-peak",
                    f"{pool.name}: peak fell below current occupancy",
                    details={"peak": pool.peak, "used": pool.used},
                )

    def check_alloc(self, alloc: Allocation) -> None:
        """Residency exclusivity + byte conservation for one allocation."""
        state = alloc.state
        if state.size and (state.min() < 0 or state.max() >= len(Location)):
            self._fail(
                "residency-exclusivity",
                "state array holds an out-of-range location value",
                alloc=alloc,
                details={"min": int(state.min()), "max": int(state.max())},
            )
        fresh = np.bincount(state.astype(np.int64), minlength=len(Location))
        if not np.array_equal(fresh, alloc._loc_counts):
            self._fail(
                "residency-exclusivity",
                "incremental location counts drifted from the state array",
                alloc=alloc,
                details={
                    "recount": fresh.tolist(),
                    "incremental": alloc._loc_counts.tolist(),
                },
            )
        if int(fresh.sum()) != alloc.n_pages:
            self._fail(
                "residency-exclusivity",
                "location counts do not partition the allocation",
                alloc=alloc,
                details={"sum": int(fresh.sum()), "n_pages": alloc.n_pages},
            )
        fresh_blocks = np.bincount(
            np.flatnonzero(state == Location.GPU) // alloc.block_pages,
            minlength=alloc.n_blocks,
        )
        if not np.array_equal(fresh_blocks, alloc._gpu_block_counts):
            self._fail(
                "residency-exclusivity",
                "incremental per-block GPU counts drifted from the state "
                "array",
                alloc=alloc,
                details={
                    "recount_sum": int(fresh_blocks.sum()),
                    "incremental_sum": int(alloc._gpu_block_counts.sum()),
                },
            )
        self._check_runs(
            alloc, "residency-runs", alloc._runs, alloc.state,
            "run record disagrees with the maximal runs of the state array",
        )
        self._check_runs(
            alloc, "touch-runs", alloc._touch, alloc.block_last_touch,
            "touch record disagrees with the maximal runs of "
            "block_last_touch",
        )
        counters = alloc.counters
        if counters.extra is not None and counters.extra.max() > counters.peak:
            self._fail(
                "counter-peak",
                "access-counter peak bound fell below a per-page count",
                alloc=alloc,
                details={
                    "peak": counters.peak,
                    "max_extra": int(counters.extra.max()),
                },
            )
        self._check_remote_map(alloc)
        if not alloc.freed:
            self._check_alloc_bytes(alloc)

    def _check_runs(
        self,
        alloc: Allocation,
        invariant: str,
        record: tuple | None,
        values: np.ndarray,
        message: str,
    ) -> None:
        """A known ``(start, stop, value)`` record equals the maximal runs
        of ``values``; ``()`` stands for more than the cap."""
        if record is None:
            return
        edges = np.flatnonzero(values[1:] != values[:-1]) + 1
        if record == ():
            if edges.size >= MAX_SYMBOLIC_RUNS:
                return
        elif edges.size + 1 == len(record):
            stops = edges.tolist()
            starts = [0, *stops]
            fresh = zip(starts, [*stops, values.size], values[starts].tolist())
            if tuple(fresh) == record:
                return
        self._fail(
            invariant,
            message,
            alloc=alloc,
            details={
                "record_runs": len(record),
                "array_runs": int(edges.size) + 1,
            },
        )

    def _check_remote_map(self, alloc: Allocation) -> None:
        n_remote = alloc.pages_at(Location.REMOTE)
        mapped = sum(alloc.remote_pages_by_node.values())
        if mapped != n_remote:
            self._fail(
                "remote-accounting",
                "remote_pages_by_node does not sum to the REMOTE residency",
                alloc=alloc,
                details={"by_node_sum": mapped, "pages_at_remote": n_remote},
            )
        if any(n <= 0 for n in alloc.remote_pages_by_node.values()):
            self._fail(
                "remote-accounting",
                "remote_pages_by_node holds a non-positive page count",
                alloc=alloc,
                details={
                    str(k): v for k, v in alloc.remote_pages_by_node.items()
                },
            )
        if n_remote and self.mem.fabric_port is None:
            self._fail(
                "remote-accounting",
                "REMOTE-resident pages on a system without a fabric port",
                alloc=alloc,
                details={"pages_at_remote": n_remote},
            )

    def _tag_for(self, alloc: Allocation) -> str:
        prefix = {
            AllocKind.SYSTEM: "sys:",
            AllocKind.MANAGED: "mng:",
            AllocKind.DEVICE: "dev:",
            AllocKind.HOST_PINNED: "pin:",
            AllocKind.NUMA_CPU: "pin:",
        }[alloc.kind]
        return f"{prefix}{alloc.aid}"

    def _check_alloc_bytes(self, alloc: Allocation) -> None:
        tag = self._tag_for(alloc)
        cpu_tag = self.mem.physical.cpu.by_tag.get(tag, 0)
        gpu_tag = self.mem.physical.gpu.by_tag.get(tag, 0)
        if alloc.kind is AllocKind.DEVICE:
            expect_cpu = 0
            expect_gpu = alloc.bytes_at(Location.GPU)
            if alloc.pages_at(Location.GPU) != alloc.n_pages:
                self._fail(
                    "byte-conservation",
                    "device allocation is not fully GPU-resident",
                    alloc=alloc,
                    details={"gpu_pages": alloc.pages_at(Location.GPU)},
                )
        elif alloc.kind in (AllocKind.HOST_PINNED, AllocKind.NUMA_CPU):
            expect_cpu = alloc.bytes_at(Location.CPU)
            expect_gpu = 0
            if alloc.pages_at(Location.CPU) != alloc.n_pages:
                self._fail(
                    "byte-conservation",
                    "pinned allocation is not fully CPU-resident",
                    alloc=alloc,
                    details={"cpu_pages": alloc.pages_at(Location.CPU)},
                )
        else:  # SYSTEM / MANAGED share the CPU pool for CPU + CPU_PINNED
            expect_cpu = alloc.bytes_at(Location.CPU) + alloc.bytes_at(
                Location.CPU_PINNED
            )
            expect_gpu = alloc.bytes_at(Location.GPU)
            if (
                alloc.kind is AllocKind.SYSTEM
                and alloc.pages_at(Location.CPU_PINNED)
            ):
                self._fail(
                    "residency-exclusivity",
                    "system allocation holds CPU_PINNED pages (managed-only "
                    "state)",
                    alloc=alloc,
                    details={"pinned": alloc.pages_at(Location.CPU_PINNED)},
                )
            if (
                alloc.kind is AllocKind.MANAGED
                and alloc.pages_at(Location.REMOTE)
            ):
                self._fail(
                    "remote-accounting",
                    "managed allocation holds REMOTE pages (system-only "
                    "state)",
                    alloc=alloc,
                    details={"remote": alloc.pages_at(Location.REMOTE)},
                )
        if self.mem.physical.cpu is self.mem.physical.gpu:
            # Unified-pool backend (e.g. "upm"): one ledger entry backs
            # both residency classes — conservation is against the sum.
            if cpu_tag != expect_cpu + expect_gpu:
                self._fail(
                    "byte-conservation",
                    "unified pool reservation disagrees with resident bytes",
                    alloc=alloc,
                    details={
                        "pool_tag_bytes": cpu_tag,
                        "resident": expect_cpu + expect_gpu,
                    },
                )
        else:
            if cpu_tag != expect_cpu:
                self._fail(
                    "byte-conservation",
                    "CPU pool reservation disagrees with CPU-resident bytes",
                    alloc=alloc,
                    details={"pool_tag_bytes": cpu_tag, "resident": expect_cpu},
                )
            if gpu_tag != expect_gpu:
                self._fail(
                    "byte-conservation",
                    "GPU pool reservation disagrees with GPU-resident bytes",
                    alloc=alloc,
                    details={"pool_tag_bytes": gpu_tag, "resident": expect_gpu},
                )
        if alloc.remote_pages_by_node and self.mem.fabric_port is not None:
            page_size = alloc.page_size
            for node, n_pages in alloc.remote_pages_by_node.items():
                peer = self.mem.fabric_port.pool(node).by_tag.get(tag, 0)
                if peer != n_pages * page_size:
                    self._fail(
                        "byte-conservation",
                        f"peer pool {node} reservation disagrees with the "
                        "spilled page count",
                        alloc=alloc,
                        details={
                            "node": str(node),
                            "pool_tag_bytes": peer,
                            "expected": n_pages * page_size,
                        },
                    )

    def _check_freed_drained(self, alloc: Allocation) -> None:
        """After ``free``, no pool may still hold bytes under its tag."""
        tag = self._tag_for(alloc)
        for pool in (self.mem.physical.cpu, self.mem.physical.gpu):
            left = pool.by_tag.get(tag, 0)
            if left:
                self._fail(
                    "byte-conservation",
                    f"{pool.name}: freed allocation still holds bytes",
                    alloc=alloc,
                    details={"tag": tag, "bytes": left},
                )
        if alloc.remote_pages_by_node:
            self._fail(
                "remote-accounting",
                "freed allocation still records remote residency",
                alloc=alloc,
                details={
                    str(k): v for k, v in alloc.remote_pages_by_node.items()
                },
            )

    def check_tables(self) -> None:
        mem = self.mem
        for alloc in mem.system_table.live_allocations():
            if alloc.freed:
                self._fail(
                    "table-coherence",
                    "freed allocation still registered in the system table",
                    alloc=alloc,
                )
            if alloc.kind is AllocKind.DEVICE:
                self._fail(
                    "table-coherence",
                    "device allocation registered in the system page table",
                    alloc=alloc,
                )
            if alloc.kind is AllocKind.MANAGED:
                if alloc.aid not in mem.gpu_table.allocations:
                    self._fail(
                        "table-coherence",
                        "managed allocation missing from the GPU page table",
                        alloc=alloc,
                    )
                if alloc.aid not in mem.managed.allocations:
                    self._fail(
                        "table-coherence",
                        "managed allocation missing from the managed manager",
                        alloc=alloc,
                    )
        for alloc in mem.gpu_table.live_allocations():
            if alloc.freed:
                self._fail(
                    "table-coherence",
                    "freed allocation still registered in the GPU table",
                    alloc=alloc,
                )
            if alloc.kind not in (AllocKind.DEVICE, AllocKind.MANAGED):
                self._fail(
                    "table-coherence",
                    "non-device, non-managed allocation in the GPU table",
                    alloc=alloc,
                )

    def check_counters(self) -> None:
        mem = self.mem
        total = mem.counters.total  # flushes pending increments
        for name, value in total.as_dict().items():
            if value < 0:
                self._fail(
                    "counter-conservation",
                    f"counter {name} went negative",
                    details={name: value},
                )
        page = mem.config.system_page_size
        thrash = mem.config.eviction_thrash_factor()
        for bytes_name, pages_name in (
            ("migration_h2d_bytes", "pages_migrated_h2d"),
            ("migration_d2h_bytes", "pages_migrated_d2h"),
        ):
            nbytes = getattr(total, bytes_name)
            npages = getattr(total, pages_name)
            lo = npages * page
            hi = int(npages * page * max(thrash, 1.0))
            if not lo <= nbytes <= hi:
                self._fail(
                    "counter-conservation",
                    f"{bytes_name} outside the [pages, pages*thrash] "
                    "bracket of its page counter",
                    details={
                        bytes_name: nbytes,
                        pages_name: npages,
                        "page_size": page,
                        "thrash": thrash,
                    },
                )
        if total.eviction_bytes > total.migration_d2h_bytes:
            self._fail(
                "counter-conservation",
                "eviction traffic exceeds D2H migration traffic",
                details={
                    "eviction_bytes": total.eviction_bytes,
                    "migration_d2h_bytes": total.migration_d2h_bytes,
                },
            )
        if total.pages_evicted > total.pages_migrated_d2h:
            self._fail(
                "counter-conservation",
                "evicted page count exceeds D2H-migrated page count",
                details={
                    "pages_evicted": total.pages_evicted,
                    "pages_migrated_d2h": total.pages_migrated_d2h,
                },
            )
        stats = mem.link.stats
        if not stats.conserved():
            self._fail(
                "link-conservation",
                "NVLink-C2C per-class byte tallies do not sum to the "
                "direction totals",
                details={
                    "h2d": stats.h2d_bytes,
                    "h2d_by_class": dict(stats.h2d_by_class),
                    "d2h": stats.d2h_bytes,
                    "d2h_by_class": dict(stats.d2h_by_class),
                },
            )
        remote_counters = (
            total.c2c_read_bytes
            + total.c2c_write_bytes
            + total.cpu_remote_read_bytes
            + total.cpu_remote_write_bytes
        )
        if stats.class_bytes("remote") != remote_counters:
            self._fail(
                "link-conservation",
                'link "remote" traffic class disagrees with the remote-'
                "access hardware counters",
                details={
                    "link_remote_bytes": stats.class_bytes("remote"),
                    "counter_sum": remote_counters,
                },
            )
        if stats.class_bytes("migration") > total.migration_h2d_bytes:
            self._fail(
                "link-conservation",
                'link "migration" class exceeds the H2D migration counter',
                details={
                    "link_migration_bytes": stats.class_bytes("migration"),
                    "migration_h2d_bytes": total.migration_h2d_bytes,
                },
            )
        if total.fabric_hop_bytes < total.fabric_bytes:
            self._fail(
                "counter-conservation",
                "fabric hop-bytes fell below fabric payload bytes",
                details={
                    "fabric_hop_bytes": total.fabric_hop_bytes,
                    "fabric_bytes": total.fabric_bytes,
                },
            )
