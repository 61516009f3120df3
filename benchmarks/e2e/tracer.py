"""Outside-in layer attribution for the end-to-end benchmark.

The benchmark does not change the program to trace it. It replaces, at
class level and only for the traced pass, the public functions of the
``apps``, ``core``, ``mem`` and ``interconnect`` layers with wrappers
that count calls and accumulate *self time*: inclusive wall time minus
the time spent in wrapped children. Self times of nested wrapped calls
therefore sum to the inclusive time of the outermost call, and the pass
time no wrapped function covers is ``other``.

Coarse boundaries are also recorded as spans on a wall-clock
:class:`repro.profiling.timeline.Timeline`, tagged with the id of the
unit that caused them. Hot leaves (link streaming time, PageSet
construction, ``Allocation`` methods, access-counter thresholding and
per-descriptor ``access``) are only counted: one span per call would
dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import time

#: ``(layer, module, class, method, span)`` for every wrapped function;
#: ``span`` marks the coarse boundaries recorded on the timeline.
WRAPPED = (
    ("apps", "repro.apps.base", "Application", "run", True),
    ("core", "repro.core.unified_array", "UnifiedArray", "pages_of_indices", False),
    ("core", "repro.core.kernels", "KernelExecutor", "launch", True),
    ("core", "repro.core.kernels", "KernelExecutor", "cpu_phase", True),
    ("core", "repro.core.runtime", "GraceHopperSystem", "__init__", False),
    ("mem", "repro.mem.subsystem", "MemorySubsystem", "access_batch", True),
    ("mem", "repro.mem.subsystem", "MemorySubsystem", "access", False),
    ("mem", "repro.mem.subsystem", "MemorySubsystem", "begin_epoch", False),
    ("mem", "repro.mem.subsystem", "MemorySubsystem", "allocate", False),
    ("mem", "repro.mem.subsystem", "MemorySubsystem", "free", False),
    ("mem", "repro.mem.subsystem", "MemorySubsystem", "prefetch_async", False),
    ("mem", "repro.mem.managed", "ManagedMemoryManager", "gpu_access", False),
    ("mem", "repro.mem.managed", "ManagedMemoryManager", "cpu_access", False),
    ("mem", "repro.mem.managed", "ManagedMemoryManager", "evict_bytes", True),
    ("mem", "repro.mem.managed", "ManagedMemoryManager", "prefetch_to_gpu", True),
    ("mem", "repro.mem.migration", "AccessCounterMigrator", "service", True),
    ("mem", "repro.mem.pagetable", "Allocation", "split_counts", False),
    ("mem", "repro.mem.pagetable", "Allocation", "set_location", False),
    ("mem", "repro.mem.pagetable", "Allocation", "subset", False),
    ("mem", "repro.mem.pagetable", "Allocation", "touch_blocks", False),
    ("mem", "repro.mem.pagetable", "AccessCounters", "crossed", False),
    ("mem", "repro.mem.pageset", "PageSet", "of", False),
    ("mem", "repro.mem.arch_svm", "SvmArchitecture", "system_access", False),
    ("mem", "repro.mem.arch_svm", "SvmArchitecture", "managed_access", False),
    ("mem", "repro.mem.arch_upm", "UpmArchitecture", "system_access", False),
    ("mem", "repro.mem.arch_upm", "UpmArchitecture", "managed_access", False),
    ("interconnect", "repro.interconnect.nvlink", "NvlinkC2C", "streaming_time", False),
)


def stat_name(layer: str, cls: str, method: str) -> str:
    return f"{layer}.{cls}.{method}"


STAT_NAMES = tuple(stat_name(l, c, m) for l, _, c, m, _ in WRAPPED)


class Tracer:
    """Call counts, self times and coarse spans for the wrapped functions.

    ``stack`` holds one child-time accumulator per open wrapped call;
    its bottom entry collects the inclusive time of top-level calls, so
    ``covered_s`` is the wall time spent inside any wrapped function.
    """

    def __init__(self, timeline=None):
        self.timeline = timeline
        self.stats = {name: [0, 0.0] for name in STAT_NAMES}
        self.stack = [0.0]
        #: Id of the unit now running; stamped on every span.
        self.unit = ""
        self._saved: list[tuple[type, str, object]] = []

    @property
    def covered_s(self) -> float:
        return self.stack[0]

    def wrap(self, name: str, fn, span: bool):
        """``fn`` wrapped to charge its calls and self time to ``name``."""
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        timeline = self.timeline if span else None
        layer, label = name.split(".", 1)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt
                if timeline is not None:
                    timeline.complete(label, t0, dt, cat=layer, unit=self.unit)

        return wrapper

    def install(self) -> None:
        """Replace every function in :data:`WRAPPED` by its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module, cls_name, method, span in WRAPPED:
            cls = getattr(importlib.import_module(module), cls_name)
            # The function must be defined on this very class: wrapping
            # an inherited one would silently shadow the base class.
            raw = cls.__dict__[method]
            name = stat_name(layer, cls_name, method)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__, span))
            else:
                wrapped = self.wrap(name, raw, span)
            self._saved.append((cls, method, raw))
            setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            cls, method, raw = self._saved.pop()
            setattr(cls, method, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every wrapped function."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        return out
