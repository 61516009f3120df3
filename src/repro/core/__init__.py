"""Core runtime: the simulated GH200 system and its programming model."""

from .advisor import (
    InitSide,
    Recommendation,
    WorkloadProfile,
    profile_from_trace,
    recommend,
)
from .allocators import AllocatorInfo, allocator_for, allocator_table
from .kernels import ArrayAccess, KernelExecutor, KernelRecord, PhaseRecord
from .optimization import (
    OptimizationResult,
    PrepopulateMethod,
    disable_automatic_migration,
    enable_automatic_migration,
    prefetch_working_set,
    prepopulate_page_table,
    tune_migration_threshold,
)
from .phases import Phase, PhaseBreakdown, PhaseTimer
from .porting import MemoryMode, UnifiedBuffer
from .runtime import GraceHopperSystem
from .streams import DeviceResource, Stream, StreamManager
from .unified_array import UnifiedArray

__all__ = [
    "GraceHopperSystem",
    "Stream",
    "StreamManager",
    "DeviceResource",
    "UnifiedArray",
    "ArrayAccess",
    "KernelExecutor",
    "KernelRecord",
    "PhaseRecord",
    "Phase",
    "PhaseBreakdown",
    "PhaseTimer",
    "MemoryMode",
    "UnifiedBuffer",
    "AllocatorInfo",
    "allocator_table",
    "allocator_for",
    "OptimizationResult",
    "PrepopulateMethod",
    "prepopulate_page_table",
    "prefetch_working_set",
    "tune_migration_threshold",
    "disable_automatic_migration",
    "enable_automatic_migration",
    "InitSide",
    "WorkloadProfile",
    "Recommendation",
    "recommend",
    "profile_from_trace",
]
