"""Comm|Scope-style interconnect microbenchmark (Section 2.1 anchors).

The paper uses Comm|Scope (Pearson et al.) to measure NVLink-C2C:
375 GB/s host-to-device and 297 GB/s device-to-host against a 450 GB/s
theoretical figure. This module sweeps explicit-copy transfer sizes in
both directions on the simulated link (pinned source, as the benchmark
uses) and reports achieved bandwidth per size plus the asymptotic rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.runtime import GraceHopperSystem
from ..core.unified_array import UnifiedArray
from ..mem.physical import OutOfMemoryError
from ..sim.config import MiB, Processor


@dataclass
class CommScopeResult:
    direction: str  # "h2d" or "d2h"
    nbytes: int
    seconds: float
    bandwidth: float
    theoretical: float

    @property
    def efficiency(self) -> float:
        return self.bandwidth / self.theoretical


#: The default transfer sizes, smallest first.
DEFAULT_SIZES = (1 * MiB, 16 * MiB, 256 * MiB, 1024 * MiB)


def run_commscope(
    gh: GraceHopperSystem,
    *,
    sizes: list[int] | None = None,
) -> list[CommScopeResult]:
    """Sweep pinned-memory cudaMemcpy transfers in both directions.

    The default sweep ends at the first size whose host and device
    buffers the allocator cannot place, so a capacity-scaled system
    reports its asymptotic rate at the largest size it holds. Explicit
    ``sizes`` run as given, and raise ``OutOfMemoryError`` when one does
    not fit.
    """
    results: list[CommScopeResult] = []
    for nbytes in sizes or DEFAULT_SIZES:
        try:
            host, dev = _buffers(gh, nbytes)
        except OutOfMemoryError:
            if sizes:
                raise
            break
        for direction in ("h2d", "d2h"):
            t0 = gh.now
            if direction == "h2d":
                gh.memcpy_h2d(dev, host)
            else:
                gh.memcpy_d2h(host, dev)
            dt = gh.now - t0
            results.append(
                CommScopeResult(
                    direction=direction,
                    nbytes=nbytes,
                    seconds=dt,
                    bandwidth=nbytes / dt,
                    theoretical=gh.config.c2c_theoretical_bandwidth,
                )
            )
        gh.free(host)
        gh.free(dev)
    return results


def _buffers(
    gh: GraceHopperSystem, nbytes: int
) -> tuple[UnifiedArray, UnifiedArray]:
    """A pinned host buffer and a device buffer of ``nbytes``; when the
    device buffer does not fit, the host buffer is freed again."""
    host = gh.cuda_malloc_host(np.uint8, (nbytes,), name="cs_host")
    try:
        return host, gh.cuda_malloc(np.uint8, (nbytes,), name="cs_dev")
    except OutOfMemoryError:
        gh.free(host)
        raise


def asymptotic_bandwidth(
    results: list[CommScopeResult], direction: str
) -> float:
    """Bandwidth of the largest transfer in the given direction."""
    rows = [r for r in results if r.direction == direction]
    if not rows:
        raise ValueError(f"no results for direction {direction!r}")
    return max(rows, key=lambda r: r.nbytes).bandwidth
