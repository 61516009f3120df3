"""Inter-superchip fabric links (beyond the paper's single GH200).

Quad-GH200 nodes expose a NUMA/NVLink fabric whose cross-superchip paths
behave very differently from the local NVLink-C2C link (Khalilov et al.,
"Understanding Data Movement in Tightly Coupled Heterogeneous Systems"):
GPU pairs are connected by NVLink fabric links, Grace CPUs by coherent
socket links, and every path has its own bandwidth, latency, and
direction asymmetry.

This module is the *link-level* model beside :mod:`repro.interconnect.nvlink`:
one :class:`FabricLink` per physical link, with per-direction and
per-traffic-class byte accounting so multi-hop routing (in
:mod:`repro.topology.routing`) can charge every traversed link and tests
can assert traffic conservation. The graph layer — which links exist and
how transfers route across them — lives in :mod:`repro.topology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..sim.config import NodeId


class LinkKind(Enum):
    """The three physical link types of a multi-superchip node."""

    #: Intra-superchip NVLink-C2C (the paper's CPU<->GPU link).
    C2C = "c2c"
    #: Inter-superchip GPU-GPU NVLink fabric link.
    NVLINK = "nvlink"
    #: Inter-superchip CPU-CPU coherent socket link.
    SOCKET = "socket"


#: Traffic classes distinguished on every link, mirroring the three
#: classes the paper separates on NVLink-C2C (plus bulk shard exchange).
TRAFFIC_CLASSES = ("dma", "remote", "migration", "exchange")


@dataclass
class FabricLinkStats:
    """Per-direction, per-class byte/time accounting of one link.

    ``fwd`` is the a->b direction of the owning link. Per-class byte
    tallies and the direction totals are updated together, so the class
    sums always equal the bytes charged — the conservation invariant the
    property tests pin down.
    """

    fwd_bytes: int = 0
    rev_bytes: int = 0
    fwd_seconds: float = 0.0
    rev_seconds: float = 0.0
    fwd_by_class: dict[str, int] = field(default_factory=dict)
    rev_by_class: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.fwd_bytes + self.rev_bytes

    def class_bytes(self, cls: str) -> int:
        return self.fwd_by_class.get(cls, 0) + self.rev_by_class.get(cls, 0)

    def conserved(self) -> bool:
        """Do the per-class tallies sum to the direction totals?"""
        return (
            sum(self.fwd_by_class.values()) == self.fwd_bytes
            and sum(self.rev_by_class.values()) == self.rev_bytes
        )


class FabricLink:
    """One directional-bandwidth link between two memory nodes."""

    def __init__(
        self,
        a: NodeId,
        b: NodeId,
        kind: LinkKind,
        *,
        fwd_bandwidth: float,
        rev_bandwidth: float,
        latency: float,
    ):
        if fwd_bandwidth <= 0 or rev_bandwidth <= 0:
            raise ValueError("link bandwidths must be positive")
        self.a = a
        self.b = b
        self.kind = kind
        self.fwd_bandwidth = fwd_bandwidth
        self.rev_bandwidth = rev_bandwidth
        self.latency = latency
        self.stats = FabricLinkStats()
        #: Optional structured event timeline (wired by the topology
        #: layer); every charge then emits a per-link transfer span.
        self.timeline = None

    @property
    def name(self) -> str:
        return f"{self.kind.value}:{self.a}->{self.b}"

    def endpoints(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b)

    def direction(self, src: NodeId, dst: NodeId) -> bool:
        """``True`` for the forward (a->b) direction of this link."""
        if (src, dst) == (self.a, self.b):
            return True
        if (src, dst) == (self.b, self.a):
            return False
        raise ValueError(f"{self.name} does not connect {src}->{dst}")

    def bandwidth(self, forward: bool) -> float:
        return self.fwd_bandwidth if forward else self.rev_bandwidth

    def charge(
        self, nbytes: int, *, forward: bool, cls: str, seconds: float = 0.0
    ) -> None:
        """Account ``nbytes`` of ``cls`` traffic in one direction."""
        if nbytes < 0:
            raise ValueError("cannot charge negative bytes")
        if cls not in TRAFFIC_CLASSES:
            raise ValueError(f"unknown traffic class {cls!r}")
        s = self.stats
        if forward:
            s.fwd_bytes += nbytes
            s.fwd_seconds += seconds
            s.fwd_by_class[cls] = s.fwd_by_class.get(cls, 0) + nbytes
        else:
            s.rev_bytes += nbytes
            s.rev_seconds += seconds
            s.rev_by_class[cls] = s.rev_by_class.get(cls, 0) + nbytes
        if self.timeline is not None:
            self.timeline.complete(
                f"{self.kind.value}:{cls}", self.timeline.now(), seconds,
                cat="fabric", track=f"fabric/{self.a}->{self.b}",
                bytes=nbytes, forward=forward,
            )

    def __repr__(self) -> str:
        return (
            f"<FabricLink {self.name} "
            f"{self.stats.fwd_bytes}B fwd / {self.stats.rev_bytes}B rev>"
        )
