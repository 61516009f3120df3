"""CUDA streams: asynchronous copies and kernels with real overlap.

The paper's explicit Quantum Volume version owes its "ideal performance"
to a double-buffered pipeline — copies and compute overlapping on
separate streams. This module models that execution style generally:

* each :class:`Stream` is an ordered timeline of operations;
* operations contend for three device resources — the H2D copy engine,
  the D2H copy engine, and the compute engine — matching the GH200's
  separate DMA engines per direction;
* an operation starts when both its stream and its resource are free;
  ``synchronize`` joins a stream (or the device) back to the simulated
  clock.

Timing is asynchronous; *memory state* effects (faults, migrations) are
applied at enqueue time, so the async API is intended for the explicit
path — device buffers and pinned host staging — where enqueue-time state
is exact. The classic latency-hiding result falls out: a loop of
h2d -> kernel -> d2h per chunk converges to ``max(t_h2d, t_kernel,
t_d2h)`` per chunk once the pipeline fills.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ..mem.pageset import PageSet
from ..sim.config import Processor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import GraceHopperSystem
    from .unified_array import UnifiedArray


class DeviceResource(Enum):
    COPY_H2D = "copy-h2d"
    COPY_D2H = "copy-d2h"
    COMPUTE = "compute"


@dataclass
class StreamOp:
    name: str
    resource: DeviceResource
    start: float
    end: float


class Stream:
    """One in-order execution queue."""

    def __init__(self, manager: "StreamManager", name: str):
        self.manager = manager
        self.name = name
        self.available_at = manager.gh.now
        self.ops: list[StreamOp] = []

    # -- enqueue helpers --------------------------------------------------

    def memcpy_h2d_async(self, dst: "UnifiedArray", src: "UnifiedArray") -> StreamOp:
        return self.manager._enqueue_copy(self, dst, src, h2d=True)

    def memcpy_d2h_async(self, dst: "UnifiedArray", src: "UnifiedArray") -> StreamOp:
        return self.manager._enqueue_copy(self, dst, src, h2d=False)

    def launch(self, name: str, accesses, **kwargs) -> StreamOp:
        return self.manager._enqueue_kernel(self, name, accesses, **kwargs)

    def synchronize(self) -> float:
        """Block until this stream's work completes; returns the new time."""
        return self.manager._sync_to(self.available_at)

    def __repr__(self) -> str:
        return f"<Stream {self.name} available_at={self.available_at:.6f}>"


class StreamManager:
    """Owns the streams and the three contended device resources."""

    def __init__(self, gh: "GraceHopperSystem"):
        self.gh = gh
        self.streams: list[Stream] = []
        self._resource_free: dict[DeviceResource, float] = {
            r: gh.now for r in DeviceResource
        }
        self.op_log: list[StreamOp] = []

    def create_stream(self, name: str | None = None) -> Stream:
        stream = Stream(self, name or f"stream{len(self.streams)}")
        self.streams.append(stream)
        return stream

    # -- scheduling core ------------------------------------------------------

    def _schedule(
        self, stream: Stream, name: str, resource: DeviceResource,
        duration: float,
    ) -> StreamOp:
        start = max(
            stream.available_at, self._resource_free[resource], self.gh.now
        )
        end = start + duration
        stream.available_at = end
        self._resource_free[resource] = end
        op = StreamOp(name=name, resource=resource, start=start, end=end)
        stream.ops.append(op)
        self.op_log.append(op)
        return op

    def _enqueue_copy(self, stream, dst, src, *, h2d: bool) -> StreamOp:
        gh = self.gh
        gh._ensure_context()
        nbytes = min(dst.nbytes, src.nbytes)
        from ..mem.pagetable import AllocKind

        host_side = src if h2d else dst
        pinned = host_side.alloc.kind is AllocKind.HOST_PINNED
        if not pinned:
            raise ValueError(
                f"{host_side.name}: async copies require pinned host memory "
                "(cudaMemcpyAsync from pageable memory serialises)"
            )
        src_proc = Processor.CPU if h2d else Processor.GPU
        dst_proc = src_proc.other
        duration = gh.mem.copy_engine.memcpy(
            nbytes, src_proc, dst_proc, pinned=True
        )
        gh.counters.bump(explicit_copy_bytes=nbytes)
        if dst.materialized and src.materialized:
            import numpy as np

            np.copyto(
                dst.np.reshape(-1)[: nbytes // dst.itemsize],
                src.np.reshape(-1)[: nbytes // src.itemsize].view(dst.dtype),
                casting="unsafe",
            )
        resource = DeviceResource.COPY_H2D if h2d else DeviceResource.COPY_D2H
        return self._schedule(
            stream, f"memcpy-{'h2d' if h2d else 'd2h'}", resource, duration
        )

    def _enqueue_kernel(self, stream, name, accesses, *, flops=0.0,
                        reuse=1.0, compute=None) -> StreamOp:
        gh = self.gh
        ctx = gh.gpu.context_init_time()
        from ..mem.subsystem import AccessResult

        total = AccessResult()
        for acc in accesses:
            total.merge(
                gh.mem.access(
                    Processor.GPU, acc.array.alloc, acc.pages, acc.shape,
                    write=acc.write, now=gh.now,
                )
            )
        if compute is not None:
            compute()
        l1l2 = gh.gpu.cache.feed(
            total.consumed_bytes,
            from_hbm=total.hbm_bytes,
            from_c2c=total.remote_bytes,
            reuse=reuse,
        )
        gh.counters.bump(l1l2_bytes=l1l2)
        duration = ctx + gh.gpu.kernel_time(
            flops=flops,
            hbm_bytes=total.hbm_bytes,
            remote_bytes_time=total.remote_seconds + total.transfer_seconds,
            fault_time=total.fault_seconds,
            l1l2_bytes=l1l2,
        )
        return self._schedule(stream, name, DeviceResource.COMPUTE, duration)

    # -- synchronisation ---------------------------------------------------------

    def _sync_to(self, t: float) -> float:
        if t > self.gh.now:
            self.gh.clock.advance(t - self.gh.now, activity="streamSynchronize")
        return self.gh.now

    def device_synchronize(self) -> float:
        """Wait for every stream (cudaDeviceSynchronize)."""
        latest = max(
            [s.available_at for s in self.streams] + [self.gh.now]
        )
        return self._sync_to(latest)

    # -- introspection -------------------------------------------------------------

    def busy_time(self, resource: DeviceResource) -> float:
        return sum(
            op.end - op.start for op in self.op_log if op.resource is resource
        )

    def makespan(self) -> float:
        if not self.op_log:
            return 0.0
        return max(op.end for op in self.op_log) - min(
            op.start for op in self.op_log
        )

    def overlap_efficiency(self) -> float:
        """Total resource-busy time over makespan (1.0 = fully serial,
        up to 3.0 with all three engines saturated)."""
        span = self.makespan()
        if span == 0:
            return 0.0
        busy = sum(self.busy_time(r) for r in DeviceResource)
        return busy / span
