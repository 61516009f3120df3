"""Routing and contention over the multi-superchip fabric.

A transfer between two memory nodes traverses every link on its route
and is charged to each of them, per direction. Transfers run only as
:meth:`FabricRouter.exchange_phase` — a bulk-synchronous exchange step
(halo exchange, statevector butterfly): all transfers proceed
concurrently, each link serialises the bytes routed through it per
direction, and the phase completes when the most loaded link direction
drains. This is the standard BSP congestion model and what makes
exchange-heavy sharded workloads fabric-bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..interconnect.fabric import FabricLink
from ..sim.config import NodeId

#: A route step: the link plus the direction it is traversed in.
Hop = tuple[FabricLink, bool]


@dataclass(frozen=True)
class Route:
    """An ordered sequence of directed hops between two nodes."""

    src: NodeId
    dst: NodeId
    hops: tuple[Hop, ...]

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def latency(self) -> float:
        return sum(link.latency for link, _ in self.hops)

    @property
    def bottleneck_bandwidth(self) -> float:
        if not self.hops:
            return float("inf")
        return min(link.bandwidth(fwd) for link, fwd in self.hops)


@dataclass
class ExchangeOutcome:
    """Result of one bulk-synchronous exchange phase."""

    seconds: float = 0.0
    total_bytes: int = 0
    #: payload bytes x links traversed (the fabric's actual load)
    hop_bytes: int = 0
    n_transfers: int = 0
    #: drain time of the most loaded (link, direction), i.e. the critical
    #: link of the phase
    bottleneck_link: str = ""
    per_link_bytes: dict[str, int] = field(default_factory=dict)


class FabricRouter:
    """Shortest-path routing with per-link charging and contention."""

    def __init__(self, topology):
        self.topology = topology
        self._routes: dict[tuple[NodeId, NodeId], Route] = {}
        for src in topology.nodes():
            self._bfs_from(src)

    # -- route computation -----------------------------------------------

    def _bfs_from(self, src: NodeId) -> None:
        """Fewest-hops routes from ``src``; ties broken by the higher
        bottleneck bandwidth (GPUs prefer the NVLink fabric over a detour
        through the CPUs' socket link). Relaxation runs to a fixpoint —
        the graphs are a handful of nodes."""

        def better(cand: Route, cur: Route | None) -> bool:
            if cur is None:
                return True
            if cand.n_hops != cur.n_hops:
                return cand.n_hops < cur.n_hops
            return cand.bottleneck_bandwidth > cur.bottleneck_bandwidth

        best: dict[NodeId, Route] = {src: Route(src, src, ())}
        frontier = deque([src])
        while frontier:
            here = frontier.popleft()
            base = best[here]
            for link in self.topology.links:
                if here == link.a:
                    nxt = link.b
                elif here == link.b:
                    nxt = link.a
                else:
                    continue
                fwd = link.direction(here, nxt)
                cand = Route(src, nxt, base.hops + ((link, fwd),))
                if better(cand, best.get(nxt)):
                    best[nxt] = cand
                    frontier.append(nxt)
        for dst, route in best.items():
            self._routes[(src, dst)] = route

    def route(self, src: NodeId, dst: NodeId) -> Route:
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise ValueError(f"no route from {src} to {dst}") from None

    # -- bulk-synchronous exchange phases --------------------------------

    def exchange_phase(
        self, transfers: list[tuple[int, NodeId, NodeId]]
    ) -> ExchangeOutcome:
        """Run concurrent transfers as one BSP step.

        Each ``(nbytes, src, dst)`` is routed independently; per
        (link, direction) loads accumulate, every link is charged its
        routed bytes, and the phase time is the drain time of the most
        loaded link direction plus the longest route latency.
        """
        out = ExchangeOutcome()
        loads: dict[tuple[int, bool], int] = {}
        max_latency = 0.0
        for nbytes, src, dst in transfers:
            if nbytes <= 0 or src == dst:
                continue
            route = self.route(src, dst)
            out.n_transfers += 1
            out.total_bytes += nbytes
            max_latency = max(max_latency, route.latency)
            for link, fwd in route.hops:
                out.hop_bytes += nbytes
                key = (id(link), fwd)
                loads[key] = loads.get(key, 0) + nbytes
                link.charge(nbytes, forward=fwd)
                name = link.name
                out.per_link_bytes[name] = out.per_link_bytes.get(name, 0) + nbytes
        if not loads:
            return out
        by_id = {id(link): link for link in self.topology.links}
        worst = 0.0
        for (link_id, fwd), nbytes in loads.items():
            link = by_id[link_id]
            drain = nbytes / link.bandwidth(fwd)
            if drain > worst:
                worst = drain
                out.bottleneck_link = ("fwd:" if fwd else "rev:") + link.name
        out.seconds = worst + max_latency
        return out
