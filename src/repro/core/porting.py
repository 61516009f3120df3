"""The code transformation of Section 3.1 / Figure 2, as a library.

The paper derives three versions of every application:

* **explicit** — the original pattern: a host buffer (``malloc``), a
  device buffer (``cudaMalloc``), ``cudaMemcpy`` H2D before compute and
  D2H after;
* **system** — host and device buffers replaced by a single
  system-allocated buffer (``malloc``); explicit copies removed, device
  synchronisation added to preserve semantics;
* **managed** — the same single buffer via ``cudaMallocManaged``.

:class:`UnifiedBuffer` implements exactly this transformation so each
application is written once against the buffer protocol: ``cpu_target``
is what CPU init loops touch, ``gpu_target`` what kernels access,
``h2d``/``d2h`` are real copies in explicit mode and no-ops (plus the
added synchronisation) in the unified modes.
"""

from __future__ import annotations

from enum import Enum

from .runtime import GraceHopperSystem
from .unified_array import UnifiedArray


class MemoryMode(Enum):
    EXPLICIT = "explicit"
    SYSTEM = "system"
    MANAGED = "managed"


class UnifiedBuffer:
    """One logical application buffer under a given memory mode."""

    def __init__(
        self,
        system: GraceHopperSystem,
        mode: MemoryMode,
        dtype,
        shape,
        *,
        name: str,
        materialize: bool = False,
        gpu_only: bool = False,
    ):
        """``gpu_only`` buffers hold intermediary GPU results that the CPU
        never reads; the paper keeps them on ``cudaMalloc`` in all three
        versions (Section 3.1)."""
        self.system = system
        self.mode = mode
        self.name = name
        self.gpu_only = gpu_only
        self._host: UnifiedArray | None = None
        self._device: UnifiedArray | None = None

        if gpu_only:
            self._device = system.cuda_malloc(
                dtype, shape, name=f"{name}.dev", materialize=materialize
            )
            return
        if mode is MemoryMode.EXPLICIT:
            self._host = system.malloc(
                dtype, shape, name=f"{name}.host", materialize=materialize
            )
            self._device = system.cuda_malloc(
                dtype, shape, name=f"{name}.dev", materialize=materialize
            )
        elif mode is MemoryMode.SYSTEM:
            self._host = self._device = system.malloc(
                dtype, shape, name=name, materialize=materialize
            )
        elif mode is MemoryMode.MANAGED:
            self._host = self._device = system.cuda_malloc_managed(
                dtype, shape, name=name, materialize=materialize
            )
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown mode {mode}")

    # -- targets -----------------------------------------------------------

    @property
    def cpu_target(self) -> UnifiedArray:
        if self._host is None:
            raise PermissionError(f"{self.name}: GPU-only buffer has no host side")
        return self._host

    @property
    def gpu_target(self) -> UnifiedArray:
        assert self._device is not None
        return self._device

    @property
    def unified(self) -> bool:
        return self._host is self._device

    # -- Figure 2 transformation --------------------------------------------

    def h2d(self) -> float:
        """Host-to-device transfer point in the original code. A real
        ``cudaMemcpy`` in explicit mode; elided in unified modes."""
        if self.gpu_only:
            return 0.0
        if self.mode is MemoryMode.EXPLICIT:
            return self.system.memcpy_h2d(self._device, self._host)
        return 0.0

    def d2h(self) -> float:
        """Device-to-host transfer point; in unified modes the removed
        copy is replaced by an explicit device synchronisation to preserve
        application semantics (Section 3.1)."""
        if self.gpu_only:
            return 0.0
        if self.mode is MemoryMode.EXPLICIT:
            return self.system.memcpy_d2h(self._host, self._device)
        self.system.device_synchronize()
        return 0.0

    def free(self) -> None:
        if self._device is not None:
            self.system.free(self._device)
        if self._host is not None and self._host is not self._device:
            self.system.free(self._host)
        self._host = self._device = None
