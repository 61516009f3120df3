"""The NVLink-C2C chip-to-chip interconnect.

Carries three traffic classes the paper distinguishes:

* **direct remote accesses** at cacheline granularity (system memory's
  ATS path, and managed memory's remote mapping under oversubscription);
* **page migrations** (driver-initiated, both directions);
* **explicit DMA copies** (``cudaMemcpy`` and the copy engines).

Bandwidth is asymmetric — the paper measures 375 GB/s host-to-device and
297 GB/s device-to-host against a 450 GB/s theoretical figure — and
fine-grained traffic runs below the streaming rate.

The link prices transfers and keeps no tally of its own: the hardware
counters record its traffic, as Nsight Compute's memory-workload
counters do in the paper, and with a timeline wired every charged
transfer emits one ``c2c:<class>`` span with its bytes and direction.
"""

from __future__ import annotations

import numpy as np

from ..sim.config import Processor, SystemConfig


class NvlinkC2C:
    """Directional bandwidth/latency model of NVLink-C2C."""

    def __init__(self, config: SystemConfig):
        self.config = config
        #: Optional structured event timeline (wired by the runtime);
        #: every charged transfer then emits a ``c2c:<class>`` span.
        self.timeline = None

    def account_external(
        self, nbytes: int, src: Processor, seconds: float, cls: str = "dma"
    ) -> None:
        """Record one transfer of ``nbytes`` sent by ``src`` that took
        ``seconds``, as a ``c2c:<cls>`` span when a timeline is wired.
        The cost formulas below record through it, and so does traffic
        timed elsewhere (svm's page transfers, the explicit out-of-core
        pipeline overlapping DMA with compute)."""
        if self.timeline is not None:
            self.timeline.complete(
                f"c2c:{cls}", self.timeline.now(), seconds,
                cat="fabric", track="fabric/c2c",
                bytes=nbytes,
                direction="h2d" if src is Processor.CPU else "d2h",
            )

    def streaming_time(self, nbytes: int, src: Processor, dst: Processor) -> float:
        """Time for a streaming (DMA/migration) transfer of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        bw = self.config.c2c_bandwidth(src, dst)
        t = nbytes / bw + self.config.c2c_latency
        self.account_external(nbytes, src, t, "dma")
        return t

    def streaming_times(
        self, nbytes: np.ndarray, src: Processor, dst: Processor
    ) -> np.ndarray:
        """:meth:`streaming_time` for each of ``nbytes`` (all positive),
        recorded in order; returns the per-transfer times, bit-identical
        to the per-transfer calls (the same elementwise expression)."""
        t = nbytes / self.config.c2c_bandwidth(src, dst) + self.config.c2c_latency
        if self.timeline is not None:
            for n, ti in zip(nbytes.tolist(), t.tolist()):
                self.account_external(n, src, ti, "dma")
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
        self.account_external(nbytes, src, t, "remote")
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
        self.account_external(nbytes, src, t, "migration")
        return t
