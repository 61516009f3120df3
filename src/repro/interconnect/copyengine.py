"""Explicit-copy DMA engine (``cudaMemcpy`` and friends).

Models the traditional explicit data-movement path the paper's
*explicit* application versions use: ``cudaMalloc`` + ``cudaMemcpy``
between host and device. Copies from pageable host memory bounce through
a pinned staging buffer and run below the streaming C2C rate; pinned
(``cudaMallocHost``) sources reach it.
"""

from __future__ import annotations

from ..sim.config import Processor, SystemConfig
from .nvlink import NvlinkC2C


class CopyEngine:
    """cudaMemcpy cost model: call overhead, staging, directional DMA."""
    def __init__(self, config: SystemConfig, link: NvlinkC2C):
        self.config = config
        self.link = link

    def memcpy(
        self,
        nbytes: int,
        src: Processor,
        dst: Processor,
        *,
        pinned: bool = False,
    ) -> float:
        """Time for one ``cudaMemcpy`` of ``nbytes`` from ``src`` to ``dst``."""
        if nbytes < 0:
            raise ValueError("copy size must be non-negative")
        cost = self.config.cuda_memcpy_call_cost
        if nbytes == 0:
            return cost
        if src is dst:
            return cost + nbytes / self.config.local_bandwidth(src)
        t = self.link.streaming_time(nbytes, src, dst)
        if not pinned and Processor.CPU in (src, dst):
            # Pageable copies stage through a pinned bounce buffer.
            t /= self.config.pageable_copy_efficiency
        return cost + t
