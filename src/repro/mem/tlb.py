"""TLB models: CPU TLB, GPU TLB, and the GPU's ATS-TBU.

The simulator does not replay individual translations; it accounts for
translation behaviour at the granularity the paper observes it:

* a *miss population* cost when pages are touched for the first time by a
  processor (walk + fill),
* shootdown costs when mappings are destroyed or pages migrate
  (broadcast over NVLink-C2C to the GPU's ATS-TBU for system pages).

Reach statistics are still tracked so tests can assert that 64 KB pages
give 16x the TLB reach of 4 KB pages for the same allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.config import Processor, SystemConfig


@dataclass
class TlbStats:
    fills: int = 0
    shootdowns: int = 0
    shootdown_pages: int = 0


class Tlb:
    """One translation cache (CPU MMU TLB, GPU TLB, or ATS-TBU)."""

    def __init__(self, name: str, entries: int, config: SystemConfig):
        self.name = name
        self.entries = entries
        self.config = config
        self.stats = TlbStats()

    def reach_bytes(self, page_size: int) -> int:
        """Address range covered by a full TLB at ``page_size`` pages."""
        return self.entries * page_size

    def fill(self, n_pages: int) -> None:
        self.stats.fills += n_pages

    def shootdown(self, n_pages: int) -> float:
        """Invalidate ``n_pages`` entries; returns the cost in seconds.

        Invalidation is a broadcast operation (Arm DVM over C2C for the
        ATS-TBU); cost is per-operation with a small per-page component.
        """
        self.stats.shootdowns += 1
        self.stats.shootdown_pages += n_pages
        return self.config.tlb_shootdown_cost + n_pages * 1e-9

    def shootdowns(self, n_pages: np.ndarray) -> np.ndarray:
        """:meth:`shootdown` once per entry of ``n_pages``; returns the
        per-operation costs."""
        self.stats.shootdowns += int(n_pages.size)
        self.stats.shootdown_pages += int(n_pages.sum())
        return self.config.tlb_shootdown_cost + n_pages * 1e-9


class TlbHierarchy:
    """The three translation caches of the superchip."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.cpu = Tlb("cpu-tlb", entries=2048, config=config)
        self.gpu = Tlb("gpu-tlb", entries=4096, config=config)
        # The ATS-TBU caches system-page translations obtained from the
        # SMMU over NVLink-C2C (Section 2.2).
        self.ats_tbu = Tlb("ats-tbu", entries=4096, config=config)

    def for_processor(self, processor: Processor) -> Tlb:
        return self.cpu if processor is Processor.CPU else self.gpu
