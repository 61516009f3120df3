"""Lockstep multi-superchip execution.

A :class:`ShardedSystem` runs one :class:`~repro.core.runtime.GraceHopperSystem`
per superchip — each with its own clock, memory subsystem and counters —
over a shared :class:`~repro.topology.Topology` and
:class:`~repro.topology.FabricRouter`. Bulk-synchronous workloads alternate

* :meth:`ShardedSystem.step` — a per-shard closure (kernel launches, CPU
  phases) run on every shard between two barriers, timed as the slowest
  shard;
* :meth:`ShardedSystem.exchange` — a concurrent transfer phase routed over
  the fabric with per-link contention, whose duration is charged to every
  shard's clock.

Shards share no memory: every page of a shard lives on its own chip, and
the fabric carries only exchange phases.
"""

from __future__ import annotations

from ..core.runtime import GraceHopperSystem
from ..profiling.counters import CounterSet
from ..sim.config import NodeId, SystemConfig
from .model import Topology
from .routing import ExchangeOutcome, FabricRouter


class ShardedSystem:
    """N lockstepped superchip simulators over one fabric."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        n_superchips: int | None = None,
    ):
        base = config or SystemConfig.paper_gh200()
        if n_superchips is not None and base.n_superchips != n_superchips:
            base = base.copy(n_superchips=n_superchips)
        self.config = base
        self.topology = Topology.from_config(base)
        self.router = FabricRouter(self.topology)
        # Each shard gets its own config copy: per-shard tuning calls
        # (e.g. set_migration_threshold) must not leak across chips.
        self.shards = [
            GraceHopperSystem(base.copy(), chip=i)
            for i in range(base.n_superchips)
        ]
        from ..profiling.timeline import maybe_timeline

        #: Node-level timeline on the lockstep time axis (``None`` unless
        #: requested): BSP exchange phases plus every fabric link's
        #: per-transfer spans (shard-internal events live on each shard's
        #: own ``gh.timeline``).
        self.timeline = maybe_timeline(
            base, lambda: self.now, name="fabric:node"
        )
        if self.timeline is not None:
            for link in self.topology.links:
                link.timeline = self.timeline

    @property
    def n_superchips(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def __getitem__(self, chip: int) -> GraceHopperSystem:
        return self.shards[chip]

    # -- lockstep time ----------------------------------------------------

    @property
    def now(self) -> float:
        """Node-level wall time: the furthest-ahead shard clock."""
        return max(gh.now for gh in self.shards)

    def barrier(self, activity: str = "barrier") -> float:
        """Synchronise all shard clocks to the slowest shard (BSP
        barrier); returns the synchronised time."""
        t = self.now
        for gh in self.shards:
            dt = t - gh.now
            if dt > 0:
                gh.clock.advance(dt, activity=activity)
        return t

    def step(self, fn, *, label: str = "step") -> list:
        """Run ``fn(chip, gh)`` on every shard between two barriers.

        Models one bulk-synchronous superstep: shards work concurrently,
        so the step lasts as long as the slowest shard. Returns the
        per-shard results of ``fn``.
        """
        self.barrier(activity=f"{label}:enter")
        results = [fn(i, gh) for i, gh in enumerate(self.shards)]
        self.barrier(activity=f"{label}:exit")
        self._sanitize()
        return results

    # -- fabric exchange phases -------------------------------------------

    def exchange(
        self,
        transfers: list[tuple[int, NodeId, NodeId]],
        *,
        label: str = "exchange",
    ) -> ExchangeOutcome:
        """One concurrent transfer phase (halo exchange, statevector
        butterfly): routed with per-link contention, charged to every
        shard's clock, and tallied on each *sending* chip's counters."""
        self.barrier(activity=f"{label}:enter")
        start = self.now
        outcome = self.router.exchange_phase(transfers)
        if self.timeline is not None:
            self.timeline.complete(
                label, start, outcome.seconds,
                cat="fabric", track="fabric/exchange",
                bytes=outcome.total_bytes,
                transfers=outcome.n_transfers,
                bottleneck=str(outcome.bottleneck_link or ""),
            )
        for nbytes, src, dst in transfers:
            if nbytes <= 0 or src == dst:
                continue
            self.shards[src.chip].counters.bump(
                fabric_bytes=nbytes,
                fabric_hop_bytes=nbytes * self.router.route(src, dst).n_hops,
                fabric_transfers=1,
            )
        if outcome.seconds:
            for gh in self.shards:
                gh.clock.advance(outcome.seconds, activity=label)
        self._sanitize()
        return outcome

    # -- reporting --------------------------------------------------------

    def aggregate_counters(self) -> CounterSet:
        """Node-level counter totals summed across shards."""
        total = CounterSet()
        for gh in self.shards:
            total.add(**gh.counters.total.as_dict())
        return total

    def _sanitize(self) -> None:
        """Node-level sanitizer hook: after every superstep / exchange,
        sweep each shard whose sanitizer is enabled."""
        for gh in self.shards:
            if gh.mem.sanitizer is not None:
                gh.mem.sanitizer.check_all()

    def __repr__(self) -> str:
        return f"<ShardedSystem {self.n_superchips} superchip(s) @ {self.now:.6f}s>"
