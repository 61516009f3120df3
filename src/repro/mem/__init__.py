"""Memory substrate: page tables, faults, migration, managed memory.

The fault/migration/physical-layout behaviour is pluggable per
:class:`~repro.mem.arch.MemoryArchitecture` backend — ``gh200`` (the
paper's split-pool testbed, default), ``upm`` (MI300A-style unified
physical memory) and ``svm`` (a discrete GPU sharing virtual memory over
a PCIe-class link) ship in-tree; ``SystemConfig.mem_arch`` selects one.
"""

from .arch import (
    MemoryArchitecture,
    architecture_descriptions,
    architecture_names,
    resolve_arch,
)
from .arch_gh200 import GH200Architecture
from .arch_upm import (
    NullMigrator,
    UnifiedPhysicalMemory,
    UpmArchitecture,
    UpmFaultHandler,
)
from .coherence import AccessShape, remote_traffic, wire_bytes
from .faults import FaultHandler
from .managed import ManagedMemoryManager
from .migration import AccessCounterMigrator
from .numa import NumaAllocator, NumaNode, NumaPolicy, NumaTopology
from .pagetable import (
    MEMORY_TYPE_TABLE,
    AccessCounters,
    Allocation,
    AllocKind,
    GpuPageTable,
    SystemPageTable,
)
from .pageset import PageSet, pages_of_byte_range
from .physical import MemoryPool, OutOfMemoryError, PhysicalMemory
from .subsystem import AccessResult, MemorySubsystem

__all__ = [
    "MemoryArchitecture",
    "architecture_descriptions",
    "architecture_names",
    "resolve_arch",
    "GH200Architecture",
    "NullMigrator",
    "UnifiedPhysicalMemory",
    "UpmArchitecture",
    "UpmFaultHandler",
    "AccessShape",
    "remote_traffic",
    "wire_bytes",
    "FaultHandler",
    "ManagedMemoryManager",
    "AccessCounterMigrator",
    "NumaAllocator",
    "NumaNode",
    "NumaPolicy",
    "NumaTopology",
    "MEMORY_TYPE_TABLE",
    "AccessCounters",
    "Allocation",
    "AllocKind",
    "GpuPageTable",
    "SystemPageTable",
    "PageSet",
    "pages_of_byte_range",
    "MemoryPool",
    "OutOfMemoryError",
    "PhysicalMemory",
    "AccessResult",
    "MemorySubsystem",
]
