"""Inter-superchip fabric links (beyond the paper's single GH200).

Quad-GH200 nodes expose a NUMA/NVLink fabric whose cross-superchip paths
behave very differently from the local NVLink-C2C link (Khalilov et al.,
"Understanding Data Movement in Tightly Coupled Heterogeneous Systems"):
GPU pairs are connected by NVLink fabric links, Grace CPUs by coherent
socket links, and every path has its own bandwidth, latency, and
direction asymmetry.

This module is the *link-level* model beside :mod:`repro.interconnect.nvlink`:
one :class:`FabricLink` per physical link, with per-direction bandwidths
that the exchange phases of multi-hop routing (in
:mod:`repro.topology.routing`) drain, charging every traversed link. The
graph layer — which links exist and how transfers route across them —
lives in :mod:`repro.topology`.
"""

from __future__ import annotations

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
        #: Optional structured event timeline (wired by the topology
        #: layer); every charge then emits a per-link transfer span.
        self.timeline = None

    @property
    def name(self) -> str:
        return f"{self.kind.value}:{self.a}->{self.b}"

    def direction(self, src: NodeId, dst: NodeId) -> bool:
        """``True`` for the forward (a->b) direction of this link."""
        if (src, dst) == (self.a, self.b):
            return True
        if (src, dst) == (self.b, self.a):
            return False
        raise ValueError(f"{self.name} does not connect {src}->{dst}")

    def bandwidth(self, forward: bool) -> float:
        return self.fwd_bandwidth if forward else self.rev_bandwidth

    def charge(self, nbytes: int, *, forward: bool) -> None:
        """Record ``nbytes`` of exchange traffic in one direction, as one
        ``<kind>:exchange`` span when a timeline is wired."""
        if nbytes < 0:
            raise ValueError("cannot charge negative bytes")
        if self.timeline is not None:
            self.timeline.complete(
                f"{self.kind.value}:exchange", self.timeline.now(), 0.0,
                cat="fabric", track=f"fabric/{self.a}->{self.b}",
                bytes=nbytes, forward=forward,
            )

    def __repr__(self) -> str:
        return f"<FabricLink {self.name}>"
