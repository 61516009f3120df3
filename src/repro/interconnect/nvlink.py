"""The NVLink-C2C chip-to-chip interconnect.

Carries three traffic classes the paper distinguishes:

* **direct remote accesses** at cacheline granularity (system memory's
  ATS path, and managed memory's remote mapping under oversubscription);
* **page migrations** (driver-initiated, both directions);
* **explicit DMA copies** (``cudaMemcpy`` and the copy engines).

Bandwidth is asymmetric — the paper measures 375 GB/s host-to-device and
297 GB/s device-to-host against a 450 GB/s theoretical figure — and
fine-grained traffic runs below the streaming rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.config import Processor, SystemConfig


def _fold(start: float, steps: np.ndarray) -> float:
    """``start`` plus each of ``steps`` in order, as repeated ``+=``."""
    return float(np.add.accumulate(np.concatenate(([start], steps)))[-1])


@dataclass
class LinkStats:
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_seconds: float = 0.0
    d2h_seconds: float = 0.0
    #: Byte tallies split by traffic class ("dma" / "remote" /
    #: "migration"), updated together with the direction totals so the
    #: class sums always equal the bytes charged per direction.
    h2d_by_class: dict[str, int] = field(default_factory=dict)
    d2h_by_class: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes

    def class_bytes(self, cls: str) -> int:
        return self.h2d_by_class.get(cls, 0) + self.d2h_by_class.get(cls, 0)

    def conserved(self) -> bool:
        """Do the per-class tallies sum to the direction totals?"""
        return (
            sum(self.h2d_by_class.values()) == self.h2d_bytes
            and sum(self.d2h_by_class.values()) == self.d2h_bytes
        )


class NvlinkC2C:
    """Directional bandwidth/latency model of NVLink-C2C."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.stats = LinkStats()
        #: Optional structured event timeline (wired by the runtime);
        #: every charged transfer then emits a ``c2c:<class>`` span.
        self.timeline = None

    def _account(
        self, nbytes: int, src: Processor, seconds: float, cls: str
    ) -> None:
        if src is Processor.CPU:
            self.stats.h2d_bytes += nbytes
            self.stats.h2d_seconds += seconds
            by = self.stats.h2d_by_class
        else:
            self.stats.d2h_bytes += nbytes
            self.stats.d2h_seconds += seconds
            by = self.stats.d2h_by_class
        by[cls] = by.get(cls, 0) + nbytes
        if self.timeline is not None:
            self.timeline.complete(
                f"c2c:{cls}", self.timeline.now(), seconds,
                cat="fabric", track="fabric/c2c",
                bytes=nbytes,
                direction="h2d" if src is Processor.CPU else "d2h",
            )

    def account_external(
        self, nbytes: int, src: Processor, seconds: float, cls: str = "dma"
    ) -> None:
        """Account traffic whose timing was computed elsewhere (e.g. the
        explicit out-of-core pipeline overlapping DMA with compute)."""
        self._account(nbytes, src, seconds, cls)

    def streaming_time(self, nbytes: int, src: Processor, dst: Processor) -> float:
        """Time for a streaming (DMA/migration) transfer of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        bw = self.config.c2c_bandwidth(src, dst)
        t = nbytes / bw + self.config.c2c_latency
        self._account(nbytes, src, t, "dma")
        return t

    def streaming_times(
        self, nbytes: np.ndarray, src: Processor, dst: Processor
    ) -> np.ndarray:
        """:meth:`streaming_time` for each of ``nbytes`` (all positive),
        charged in order; returns the per-transfer times.

        Bit-identical to the per-transfer calls: the same elementwise
        expression, and the seconds ledger folds the times left to right
        with ``np.add.accumulate`` (never a pairwise sum), exactly as
        repeated ``+=`` would.
        """
        t = nbytes / self.config.c2c_bandwidth(src, dst) + self.config.c2c_latency
        total = int(nbytes.sum())
        stats = self.stats
        if src is Processor.CPU:
            stats.h2d_bytes += total
            stats.h2d_seconds = _fold(stats.h2d_seconds, t)
            by, direction = stats.h2d_by_class, "h2d"
        else:
            stats.d2h_bytes += total
            stats.d2h_seconds = _fold(stats.d2h_seconds, t)
            by, direction = stats.d2h_by_class, "d2h"
        by["dma"] = by.get("dma", 0) + total
        if self.timeline is not None:
            for n, ti in zip(nbytes.tolist(), t.tolist()):
                self.timeline.complete(
                    "c2c:dma", self.timeline.now(), ti,
                    cat="fabric", track="fabric/c2c",
                    bytes=n, direction=direction,
                )
        return t

    def remote_access_time(
        self,
        nbytes: int,
        accessor: Processor,
        *,
        efficiency: float | None = None,
    ) -> float:
        """Time for cacheline-granularity remote access of ``nbytes``.

        The *accessor* pulls (reads) or pushes (writes) across the link;
        direction for bandwidth purposes is data movement toward the
        accessor for reads. We charge the link in the direction data
        flows to the accessor, which for a GPU reading CPU memory is H2D.
        """
        if nbytes <= 0:
            return 0.0
        eff = self.config.remote_access_efficiency if efficiency is None else efficiency
        src = accessor.other
        bw = self.config.c2c_bandwidth(src, accessor) * eff
        t = nbytes / bw + self.config.c2c_latency
        self._account(nbytes, src, t, "remote")
        return t

    def migration_time(self, nbytes: int, src: Processor, dst: Processor) -> float:
        """Background-migration transfer time (driver rate-limited)."""
        if nbytes <= 0:
            return 0.0
        bw = (
            self.config.c2c_bandwidth(src, dst)
            * self.config.migration_bandwidth_fraction
        )
        t = nbytes / bw + self.config.c2c_latency
        self._account(nbytes, src, t, "migration")
        return t

    def achieved_bandwidth(self, direction: str) -> float:
        """Observed bandwidth so far for ``"h2d"`` or ``"d2h"`` traffic."""
        if direction == "h2d":
            return (
                self.stats.h2d_bytes / self.stats.h2d_seconds
                if self.stats.h2d_seconds
                else 0.0
            )
        if direction == "d2h":
            return (
                self.stats.d2h_bytes / self.stats.d2h_seconds
                if self.stats.d2h_seconds
                else 0.0
            )
        raise ValueError("direction must be 'h2d' or 'd2h'")
