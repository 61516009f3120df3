"""Cacheline-granularity coherent access over NVLink-C2C.

Section 2.1.1: either processor can directly access the other's physical
memory at cacheline granularity (64 B from the CPU side, 128 B from the
GPU side), with full cache coherence and C2C atomics, following Arm's
AMBA CHI protocol. This module computes the *wire traffic* of such
accesses, including the read/write amplification suffered by sparse
accesses (an 8-byte gather still moves a full cacheline):
:func:`wire_bytes` per page, :func:`remote_traffic` for a batch of pages
read by one processor. The access paths charge those bytes to the link
and to the hardware counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.config import Processor, SystemConfig


@dataclass(frozen=True)
class AccessShape:
    """How a kernel touches the bytes within each page it visits.

    ``useful_bytes`` is the data the kernel actually consumes per page;
    ``element_bytes`` the granularity of individual accesses. Sparse
    patterns (``density`` < 1) are amplified to cacheline multiples on the
    wire.
    """

    useful_bytes: int
    element_bytes: int = 8
    density: float = 1.0

    def __post_init__(self):
        if self.useful_bytes < 0:
            raise ValueError("useful_bytes must be non-negative")
        if not 0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if self.element_bytes <= 0:
            raise ValueError("element_bytes must be positive")


def wire_bytes(shape: AccessShape, cacheline: int) -> int:
    """Bytes moved on the wire per page for a given access shape.

    Dense streams move exactly their useful bytes. Sparse streams touch
    ``useful_bytes / element_bytes`` distinct elements scattered at density
    ``density``; each lands on its own cacheline with probability
    approaching 1 as density drops, so traffic approaches one cacheline
    per element (classic UVM read amplification).
    """
    if shape.useful_bytes == 0:
        return 0
    if shape.density >= 1.0:
        return shape.useful_bytes
    n_elements = max(1, shape.useful_bytes // shape.element_bytes)
    # Interpolate between perfect coalescing (dense) and one line per
    # element (fully scattered), then cap at the number of distinct lines
    # in the span the elements scatter over — a page cannot supply more
    # lines than it has.
    per_line = max(1, cacheline // shape.element_bytes)
    coalesced_lines = -(-n_elements // per_line)
    scattered_lines = n_elements
    lines = int(
        coalesced_lines + (scattered_lines - coalesced_lines) * (1.0 - shape.density)
    )
    span_bytes = int(shape.useful_bytes / shape.density)
    lines = min(lines, max(1, -(-span_bytes // cacheline)))
    return lines * cacheline


def remote_traffic(
    config: SystemConfig, accessor: Processor, shape: AccessShape, n_pages: int
) -> int:
    """Wire bytes for ``n_pages`` pages accessed remotely by ``accessor``
    with the given shape, at the accessor's cacheline grain."""
    return wire_bytes(shape, config.cacheline_bytes(accessor)) * n_pages
