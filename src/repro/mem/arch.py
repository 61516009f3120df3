"""Pluggable memory-architecture backends.

The paper's performance model is specific to one hardware design point:
GH200's split LPDDR5X/HBM3 pools with first-touch placement and
access-counter delayed migration. Other integrated CPU-GPU systems make
different choices — the MI300A study (PAPERS.md, arXiv 2508.12743)
describes a *unified physical memory* where a single pool eliminates
migration entirely — and comparing design points requires swapping the
memory model without touching the applications, the kernel executor, or
the verification harness.

:class:`MemoryArchitecture` is that seam. A backend decides only what
differs between designs:

* the **pool layout** (:attr:`MemoryArchitecture.physical_cls`) — how
  many pools exist and what the driver reserves at boot;
* the **fault placement** (:attr:`~MemoryArchitecture.fault_handler_cls`)
  — where first-touch pages land and what each fault costs;
* the **migration policy** (:attr:`~MemoryArchitecture.migrator_cls`) —
  whether pages ever move after placement;
* the **access economics** (:meth:`~MemoryArchitecture.system_access`,
  :meth:`~MemoryArchitecture.managed_access`,
  :meth:`~MemoryArchitecture.pinned_access`,
  :meth:`~MemoryArchitecture.prefetch_async`) — which counters and
  bandwidth rooflines an access batch charges.

The bookkeeping every backend shares — local-traffic charging,
first-touch servicing, peer-chip fabric access — lives on
:class:`~repro.mem.subsystem.MemorySubsystem`, and residency-plus-ledger
moves on :meth:`~repro.mem.physical.PhysicalMemory.move`.

The in-tree backends form a fixed table selected per run by
:attr:`repro.sim.config.SystemConfig.mem_arch`. The application-visible
contract is identical across backends — same payload bytes, same
completion order, same exceptions — only counters and latencies may
differ (enforced by the cross-backend conformance and Hypothesis
property suites under ``tests/``).
"""

from __future__ import annotations

import functools

from ..sim.config import Location, Processor

#: Module-level aliases for :meth:`MemoryArchitecture.local_location`,
#: which every access makes (an enum member lookup costs about ten times
#: a global).
_GPU, _LOC_GPU, _LOC_CPU = Processor.GPU, Location.GPU, Location.CPU


class MemoryArchitecture:
    """Strategy interface one memory-architecture backend implements.

    Access-path hooks receive the owning
    :class:`~repro.mem.subsystem.MemorySubsystem` (``mem``) so a backend
    can reuse its components (fault handler, migrator, link, counters)
    and its shared accounting rather than duplicate them.
    Backends are stateless: all mutable state lives in the components
    the subsystem builds from the class attributes below, so one backend
    instance serves many subsystems.
    """

    #: The name ``SystemConfig.mem_arch`` selects.
    name = "base"
    #: One-line summary surfaced by ``repro-bench run --list``.
    description = ""

    #: Built once per subsystem: the physical pool layout ``(config)``,
    #: the first-touch fault path ``(config, physical, counters)`` and the
    #: post-placement migration policy ``(config, physical, link,
    #: counters)``.
    physical_cls: type
    fault_handler_cls: type
    migrator_cls: type

    def local_location(self, processor: Processor) -> Location:
        """The residency state that is local to ``processor``: a system
        or managed allocation whose every page is here is charged its
        local traffic by :meth:`~repro.mem.subsystem.MemorySubsystem.access`
        without calling the access hooks below. Split pools: each
        processor's own pool."""
        return _LOC_GPU if processor is _GPU else _LOC_CPU

    def system_access(self, mem, processor, alloc, pages, shape, write):
        """One access batch against a ``malloc`` allocation."""
        raise NotImplementedError

    def managed_access(self, mem, processor, alloc, pages, shape, write, now):
        """One access batch against a ``cudaMallocManaged`` allocation."""
        raise NotImplementedError

    def pinned_access(self, mem, processor, alloc, pages, shape, write):
        """One access batch against host-pinned / NUMA-bound memory."""
        raise NotImplementedError

    def prefetch_async(self, mem, alloc, pages, now) -> float:
        """``cudaMemPrefetchAsync`` toward the GPU. Returns the transfer
        time (zero where prefetch is meaningless)."""
        raise NotImplementedError

    def oversubscription_reference_free(self, mem) -> int:
        """Free bytes of the GPU-sized *reference tier* oversubscription
        ratios are quoted against: literal GPU-pool free space on split
        pools. A single-pool design reports the notional GPU-share so
        cross-architecture oversubscription ratios stay comparable."""
        return mem.physical.gpu.free


@functools.cache
def _backends() -> dict[str, MemoryArchitecture]:
    """name -> shared backend instance, default first. Imported on first
    use because the backend modules build on this one."""
    from .arch_gh200 import GH200Architecture
    from .arch_svm import SvmArchitecture
    from .arch_upm import UpmArchitecture

    return {
        cls.name: cls()
        for cls in (GH200Architecture, SvmArchitecture, UpmArchitecture)
    }


def architecture_names() -> list[str]:
    """Registered backend names, default first."""
    return list(_backends())


def architecture_descriptions() -> dict[str, str]:
    """``{name: one-line description}`` for every registered backend."""
    return {name: arch.description for name, arch in _backends().items()}


def resolve_arch(name: str) -> MemoryArchitecture:
    """The shared backend instance for ``name`` (raises with the
    registered list on an unknown backend)."""
    try:
        return _backends()[name]
    except KeyError:
        raise ValueError(
            f"unknown memory architecture {name!r}; registered backends: "
            f"{', '.join(architecture_names())}"
        ) from None
