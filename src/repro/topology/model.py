"""Declarative description of a multi-superchip node.

A :class:`Topology` is data, not behaviour: N :class:`Superchip` entries
(each contributing a CPU_DDR and a GPU_HBM memory node) and the set of
:class:`~repro.interconnect.fabric.FabricLink` instances wiring them —
the intra-chip NVLink-C2C link plus, on multi-chip nodes, an NVLink
fabric link per GPU pair and a coherent socket link per CPU pair
(quad-GH200 nodes connect every pair; Khalilov et al.). Link bandwidths,
latencies and direction asymmetries all come from
:class:`~repro.sim.config.SystemConfig` fields, so ablations tune the
fabric the same way they tune the paper's calibrated constants.

Behaviour — shortest-path routing, per-link charging, contention — lives
in :mod:`repro.topology.routing`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..interconnect.fabric import FabricLink, LinkKind
from ..sim.config import MemKind, NodeId, SystemConfig


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one link class (the declarative schema)."""

    kind: LinkKind
    fwd_bandwidth: float
    rev_bandwidth: float
    latency: float

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "fwd_bandwidth": self.fwd_bandwidth,
            "rev_bandwidth": self.rev_bandwidth,
            "latency": self.latency,
        }


@dataclass(frozen=True)
class Superchip:
    """One GH200 superchip: its two memory nodes and their capacities."""

    chip: int
    ddr_bytes: int
    hbm_bytes: int

    @property
    def ddr(self) -> NodeId:
        return NodeId(self.chip, MemKind.DDR)

    @property
    def hbm(self) -> NodeId:
        return NodeId(self.chip, MemKind.HBM)


class Topology:
    """N superchips plus the fabric links that wire them together."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.n_superchips = config.n_superchips
        self.superchips = [
            Superchip(i, config.cpu_memory_bytes, config.gpu_memory_bytes)
            for i in range(self.n_superchips)
        ]
        self.links: list[FabricLink] = []
        self._build(config)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_config(cls, config: SystemConfig) -> "Topology":
        return cls(config)

    @classmethod
    def single(cls, config: SystemConfig | None = None) -> "Topology":
        """The paper's testbed: one superchip, one C2C link."""
        config = config or SystemConfig.paper_gh200()
        if config.n_superchips != 1:
            config = config.copy(n_superchips=1)
        return cls(config)

    @classmethod
    def multi(cls, n_superchips: int, config: SystemConfig | None = None) -> "Topology":
        """An N-superchip node of identical paper-testbed chips."""
        config = config or SystemConfig.paper_gh200()
        if config.n_superchips != n_superchips:
            config = config.copy(n_superchips=n_superchips)
        return cls(config)

    def _add(self, a: NodeId, b: NodeId, spec: LinkSpec) -> None:
        link = FabricLink(
            a,
            b,
            spec.kind,
            fwd_bandwidth=spec.fwd_bandwidth,
            rev_bandwidth=spec.rev_bandwidth,
            latency=spec.latency,
        )
        self.links.append(link)

    def _build(self, cfg: SystemConfig) -> None:
        c2c = LinkSpec(
            LinkKind.C2C,
            fwd_bandwidth=cfg.c2c_h2d_bandwidth,
            rev_bandwidth=cfg.c2c_d2h_bandwidth,
            latency=cfg.c2c_latency,
        )
        nvlink = LinkSpec(
            LinkKind.NVLINK,
            fwd_bandwidth=cfg.nvlink_fabric_bandwidth,
            rev_bandwidth=cfg.nvlink_fabric_bandwidth,
            latency=cfg.nvlink_fabric_latency,
        )
        socket = LinkSpec(
            LinkKind.SOCKET,
            fwd_bandwidth=cfg.cpu_socket_bandwidth,
            rev_bandwidth=cfg.cpu_socket_bandwidth,
            latency=cfg.cpu_socket_latency,
        )
        for sc in self.superchips:
            self._add(sc.ddr, sc.hbm, c2c)
        for i in range(self.n_superchips):
            for j in range(i + 1, self.n_superchips):
                self._add(self.superchips[i].hbm, self.superchips[j].hbm, nvlink)
                self._add(self.superchips[i].ddr, self.superchips[j].ddr, socket)

    # -- inventory -------------------------------------------------------

    def nodes(self) -> list[NodeId]:
        """All memory nodes, in OS NUMA-node order (DDR0, HBM0, DDR1, ...)."""
        out: list[NodeId] = []
        for sc in self.superchips:
            out.extend((sc.ddr, sc.hbm))
        return out

    def capacity(self, node: NodeId) -> int:
        sc = self.superchips[node.chip]
        return sc.ddr_bytes if node.kind is MemKind.DDR else sc.hbm_bytes

    def local_bandwidth(self, node: NodeId) -> float:
        return (
            self.config.cpu_memory_bandwidth
            if node.kind is MemKind.DDR
            else self.config.hbm_bandwidth
        )

    # -- the declarative schema ------------------------------------------

    def describe(self) -> dict:
        """The topology as plain data (docs/model.md schema; also folded
        into the result-cache fingerprint so entries from different
        superchip counts can never collide)."""
        return {
            "n_superchips": self.n_superchips,
            "nodes": [
                {
                    "node": str(n),
                    "numa_index": n.numa_index,
                    "capacity_bytes": self.capacity(n),
                    "local_bandwidth": self.local_bandwidth(n),
                }
                for n in self.nodes()
            ],
            "links": [
                {
                    "a": str(link.a),
                    "b": str(link.b),
                    "kind": link.kind.value,
                    "fwd_bandwidth": link.fwd_bandwidth,
                    "rev_bandwidth": link.rev_bandwidth,
                    "latency": link.latency,
                }
                for link in self.links
            ],
        }

    def fingerprint(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return (
            f"<Topology {self.n_superchips} superchip(s), "
            f"{len(self.nodes())} nodes, {len(self.links)} links>"
        )
