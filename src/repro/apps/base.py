"""Application protocol: one algorithm, three memory versions.

Every studied application (Table 2) implements this base class once and
runs under all three memory modes — explicit, system, managed — via the
Figure 2 transformation implemented by
:class:`~repro.core.porting.UnifiedBuffer`. The base class owns the
phase protocol (allocation → CPU init → compute → deallocation) with the
paper's timing conventions, runs the optional memory profiler, and
collects correctness payloads so functional tests can verify every
algorithm against a reference implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.phases import Phase, PhaseBreakdown, PhaseTimer
from ..core.porting import MemoryMode, UnifiedBuffer
from ..core.runtime import GraceHopperSystem
from ..profiling.counters import CounterSet
from ..profiling.memprofiler import MemoryProfile, MemoryProfiler
from ..sim.config import SystemConfig


@dataclass
class AppResult:
    """Everything one application run produced."""

    app: str
    mode: MemoryMode
    phases: PhaseBreakdown
    counters: CounterSet
    correctness: dict[str, Any] = field(default_factory=dict)
    profile: MemoryProfile | None = None
    iteration_times: list[float] = field(default_factory=list)
    iteration_traffic: list[dict[str, int]] = field(default_factory=list)
    #: Application-defined sub-phase durations (e.g. the Figure 9/13
    #: GPU-side initialisation vs computation split for Quantum Volume).
    sub_phases: dict[str, float] = field(default_factory=dict)
    peak_gpu_bytes: int = 0

    @property
    def reported_total(self) -> float:
        return self.phases.reported_total


class Application(ABC):
    """Base class for the six studied applications."""

    #: Short name, e.g. ``"hotspot"`` (Table 2).
    name: str = ""
    #: Access pattern class: ``"regular"``, ``"irregular"`` or ``"mixed"``.
    pattern: str = ""
    #: The paper's input size, for the Table 2 reproduction.
    paper_input: str = ""
    #: ``"paper"`` for the six Table 2 applications; ``"extra"`` for the
    #: additional synthetic workloads this reproduction adds (the paper's
    #: future-work call for diverse access-counter-migration studies).
    category: str = "paper"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.buffers: dict[str, UnifiedBuffer] = {}

    # -- hooks ------------------------------------------------------------------

    @abstractmethod
    def setup(self, gh: GraceHopperSystem, mode: MemoryMode, materialize: bool):
        """Allocate all buffers (the allocation phase)."""

    @abstractmethod
    def cpu_init(self, gh: GraceHopperSystem, mode: MemoryMode) -> None:
        """CPU-side initialisation (excluded from reported totals)."""

    @abstractmethod
    def compute(self, gh: GraceHopperSystem, mode: MemoryMode, result: AppResult):
        """The computation phase, including the Figure 2 h2d/d2h points."""

    def teardown(self, gh: GraceHopperSystem) -> None:
        for buf in self.buffers.values():
            buf.free()
        self.buffers.clear()

    def verify(self, result: AppResult) -> None:
        """Optional: raise if the functional output is wrong."""

    # -- footprint helpers ---------------------------------------------------------

    @abstractmethod
    def working_set_bytes(self) -> int:
        """Peak GPU working set, ``M_peak`` for oversubscription ratios."""

    # -- the run protocol ---------------------------------------------------------------

    def run(
        self,
        gh: GraceHopperSystem,
        mode: MemoryMode,
        *,
        materialize: bool = False,
        profile: bool = False,
        verify: bool = False,
        warm_context: bool = True,
    ) -> AppResult:
        """Execute the application under ``mode`` on ``gh``.

        ``warm_context=True`` performs GPU context initialisation in its
        own phase before t0 (the paper's "GPU context initialisation and
        argument parsing" phase), excluded from reported totals. With
        ``warm_context=False`` the Section 4 behaviour is observable: the
        explicit/managed versions create the context in their allocation
        phase, while the system version's context cost slides into the
        first kernel launch of the computation phase.
        """
        timer = PhaseTimer(gh.clock)
        result = AppResult(
            app=self.name,
            mode=mode,
            phases=timer.breakdown,
            counters=CounterSet(),
        )
        profiler = MemoryProfiler(gh.clock, gh.mem) if profile else None
        if profiler:
            profiler.start()
        start_counters = gh.counters.total.snapshot()
        try:
            if warm_context:
                with timer.measure(Phase.CONTEXT):
                    gh._ensure_context()
            with timer.measure(Phase.ALLOCATION):
                self.setup(gh, mode, materialize)
                if profiler:
                    profiler.annotate("allocation-done")
            with timer.measure(Phase.CPU_INIT):
                self.cpu_init(gh, mode)
                if profiler:
                    profiler.annotate("cpu-init-done")
            with timer.measure(Phase.COMPUTE):
                self.compute(gh, mode, result)
                if profiler:
                    profiler.annotate("compute-done")
            with timer.measure(Phase.DEALLOCATION):
                self.teardown(gh)
        finally:
            if profiler:
                profiler.stop()
                result.profile = profiler.profile
                result.peak_gpu_bytes = profiler.profile.peak_gpu_bytes()
        result.counters = gh.counters.total.delta(start_counters)
        if verify:
            self.verify(result)
        return result

    # -- convenience --------------------------------------------------------------------

    def buffer(
        self,
        gh: GraceHopperSystem,
        mode: MemoryMode,
        name: str,
        dtype,
        shape,
        *,
        gpu_only: bool = False,
        materialize: bool = False,
    ) -> UnifiedBuffer:
        buf = UnifiedBuffer(
            gh,
            mode,
            dtype,
            shape,
            name=f"{self.name}.{name}",
            materialize=materialize,
            gpu_only=gpu_only,
        )
        self.buffers[name] = buf
        return buf

    def chunked_cpu_init(
        self,
        gh: GraceHopperSystem,
        arrays,
        *,
        chunks: int = 16,
        compute=None,
        label: str = "init",
    ) -> None:
        """CPU-initialise 2-D/1-D arrays in row chunks.

        Splitting the init loop into chunks interleaves page faulting with
        simulated time, so the 100 ms memory profiler of Section 3.2 sees
        the gradual RSS ramp the paper's Figures 4-5 show, instead of a
        step.
        """
        from ..core.kernels import ArrayAccess
        from ..mem.pageset import PageSet

        if compute is not None:
            compute()
        for c in range(chunks):
            accesses = []
            for arr in arrays:
                n_pages = arr.alloc.n_pages
                lo = (c * n_pages) // chunks
                hi = ((c + 1) * n_pages) // chunks
                if hi > lo:
                    accesses.append(
                        ArrayAccess.write_(arr, PageSet.range(lo, hi))
                    )
            if accesses:
                gh.cpu_phase(f"{self.name}-{label}-{c}", accesses)

    def dim(self, paper_value: int, *, minimum: int = 4) -> int:
        """A problem dimension scaled from the paper's value.

        Linear dimensions of 2-D problems scale with sqrt(scale) so that
        the *footprint* scales linearly with ``scale``."""
        return max(minimum, int(round(paper_value * np.sqrt(self.scale))))

    def count(self, paper_value: int, *, minimum: int = 4) -> int:
        """A 1-D count scaled linearly with ``scale``."""
        return max(minimum, int(round(paper_value * self.scale)))


_REGISTRY: dict[str, type[Application]] = {}


def register_application(cls: type[Application]) -> type[Application]:
    if not cls.name:
        raise ValueError("application class must define a name")
    _REGISTRY[cls.name] = cls
    return cls


def application_names(category: str | None = "paper") -> list[str]:
    """Registered application names; ``category=None`` lists everything."""
    return sorted(
        name
        for name, cls in _REGISTRY.items()
        if category is None or cls.category == category
    )


def get_application(name: str, **kwargs) -> Application:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; known: {application_names()}"
        ) from None
    return cls(**kwargs)


def applications_table() -> list[dict[str, str]]:
    """The rows of the paper's Table 2 (paper applications only)."""
    rows = []
    for name in application_names("paper"):
        cls = _REGISTRY[name]
        rows.append(
            {
                "name": name,
                "description": (cls.__doc__ or "").strip().splitlines()[0],
                "pattern": cls.pattern,
                "input": cls.paper_input,
            }
        )
    return rows
