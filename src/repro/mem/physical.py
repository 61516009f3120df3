"""Physical memory pools for the two NUMA nodes of the superchip.

The Grace Hopper system exposes CPU LPDDR5X and GPU HBM3 as two NUMA
nodes (Section 2.1). The simulator tracks physical occupancy by byte
accounting per node: each allocation's residency state decides *which*
pages are mapped where, the pools decide *whether* a placement fits and
how much free capacity remains — which is exactly the quantity the
oversubscription experiments (Section 7) manipulate with their balloon
``cudaMalloc`` allocation.

Residency and the pool ledgers change together, through two helpers:
:meth:`PhysicalMemory.place` maps unmapped pages, reserving every part
of a placement before it maps any, so one that does not fit leaves no
trace; :meth:`PhysicalMemory.move` migrates or evicts mapped pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.config import Location, Processor, SystemConfig
from .pagetable import Allocation
from .pageset import PageSet


class OutOfMemoryError(RuntimeError):
    """Raised when a non-spillable reservation cannot be satisfied."""


@dataclass
class MemoryPool:
    """Byte-accounted physical memory of one NUMA node."""

    name: str
    capacity: int
    used: int = 0
    #: Peak occupancy, for ``M_peak`` in the oversubscription ratio.
    peak: int = 0
    #: Bytes charged by category (allocator bookkeeping, Section 3.2's
    #: profiler distinguishes cudaMalloc / managed / system residency).
    #: Only tags holding bytes have an entry.
    by_tag: dict[str, int] = field(default_factory=dict)

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def reserve(self, nbytes: int, tag: str = "anon") -> None:
        if nbytes < 0:
            raise ValueError("cannot reserve a negative size")
        if nbytes > self.free:
            raise OutOfMemoryError(
                f"{self.name}: requested {nbytes} bytes with only "
                f"{self.free} of {self.capacity} free"
            )
        self.used += nbytes
        if nbytes:
            self.by_tag[tag] = self.by_tag.get(tag, 0) + nbytes
        self.peak = max(self.peak, self.used)

    def release(self, nbytes: int, tag: str = "anon") -> None:
        if nbytes < 0:
            raise ValueError("cannot release a negative size")
        have = self.by_tag.get(tag, 0)
        if nbytes > have or nbytes > self.used:
            raise ValueError(
                f"{self.name}: releasing {nbytes} bytes exceeds the "
                f"{have} bytes reserved under tag {tag!r}"
            )
        self.used -= nbytes
        if nbytes == have:
            self.by_tag.pop(tag, None)
        else:
            self.by_tag[tag] = have - nbytes


class PhysicalMemory:
    """The pair of NUMA pools plus placement helpers."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.cpu = MemoryPool("LPDDR5X", config.cpu_memory_bytes)
        self.gpu = MemoryPool("HBM3", config.gpu_memory_bytes)
        # The driver's baseline footprint is visible in nvidia-smi and in
        # the paper's GPU-used-memory profiles (Section 3.2).
        self.gpu.reserve(config.gpu_driver_baseline_bytes, tag="driver")

    def pool(self, where: Processor | Location) -> MemoryPool:
        if where in (Processor.GPU, Location.GPU):
            return self.gpu
        if where in (Processor.CPU, Location.CPU, Location.CPU_PINNED):
            return self.cpu
        raise ValueError(f"no physical pool for {where}")

    def gpu_used_memory(self) -> int:
        """What nvidia-smi would report (driver baseline included)."""
        return self.gpu.used

    def gpu_free_memory(self) -> int:
        return self.gpu.free

    def place(self, alloc: Allocation, *parts: tuple[PageSet, Location]) -> None:
        """Map unmapped pages of ``alloc``, each ``(pages, location)`` part
        at its location. Every part's pool is reserved before any page is
        mapped, so a placement that does not fit raises
        :class:`OutOfMemoryError` with no page mapped and no byte held."""
        parts = [(pages, loc) for pages, loc in parts if pages]
        held: list = []
        for pages, loc in parts:
            pool = self.pool(loc)
            nbytes = pages.count * self.config.system_page_size
            try:
                pool.reserve(nbytes, alloc.tag)
            except OutOfMemoryError:
                for reserved, n in held:
                    reserved.release(n, alloc.tag)
                raise
            held.append((pool, nbytes))
        for pages, loc in parts:
            alloc.set_location(pages, loc)

    def move(self, alloc: Allocation, pages: PageSet, dst: Location) -> int:
        """Migrate or evict ``pages`` of ``alloc`` to ``dst``: residency
        and both pool ledgers move together. Every page must sit in the
        other pool (on a unified layout that is the same pool, so only
        residency changes). The destination is reserved first, so a move
        that does not fit raises :class:`OutOfMemoryError` with nothing
        changed. Returns the bytes moved."""
        nbytes = pages.count * self.config.system_page_size
        to = self.pool(dst)
        src = self.cpu if to is self.gpu else self.gpu
        if src is to:
            # One pool: release before reserving, so ``peak`` stays put.
            src.release(nbytes, alloc.tag)
            to.reserve(nbytes, alloc.tag)
        else:
            to.reserve(nbytes, alloc.tag)
            src.release(nbytes, alloc.tag)
        alloc.set_location(pages, dst)
        return nbytes
