"""The Hopper GPU device model.

Kernels in this simulator are bandwidth/latency driven: a launch presents
its operand traffic (split by supplying tier by the memory subsystem) and
a floating-point workload, and the device computes the kernel duration as
the maximum of the compute-limited and transfer-limited times, plus
serialised fault-handling overhead. This is the level of abstraction at
which the paper reasons about its kernels ("a series of matrix
multiplications that benefit from a high memory throughput").

The cache hierarchy is a traffic meter. The paper uses L1<->L2 traffic
as "an indication of the data rate being fed to the GPU for
computation" (Figure 12): every byte a kernel consumes crosses L1<->L2
whichever tier supplied it, times a reuse factor for cache-resident
working sets (:meth:`GpuDevice.l1l2_bytes`), and the L1<->L2 bandwidth
puts a floor under the kernel time. The launch records the bytes in
:class:`~repro.profiling.counters.HardwareCounters`.
"""

from __future__ import annotations

from ..sim.config import SystemConfig


class GpuDevice:
    """Kernel-duration and cache-traffic model of the H100 GPU."""
    def __init__(self, config: SystemConfig, chip: int = 0):
        self.config = config
        self.chip = chip  # superchip index on multi-superchip nodes
        self.context_initialized = False

    def context_init_time(self) -> float:
        """One-time CUDA context creation (Section 4: in the system-memory
        version this lands inside the first kernel launch)."""
        if self.context_initialized:
            return 0.0
        self.context_initialized = True
        return self.config.context_init_cost

    def l1l2_bytes(self, consumed_bytes: int, *, reuse: float = 1.0) -> int:
        """L1<->L2 traffic of a kernel consuming ``consumed_bytes`` of
        operands; ``reuse`` >= 1 inflates it for kernels that re-read
        cached operands (stencils)."""
        if consumed_bytes < 0:
            raise ValueError("consumed_bytes must be non-negative")
        return int(consumed_bytes * max(reuse, 1.0))

    def kernel_time(
        self,
        *,
        flops: float = 0.0,
        hbm_bytes: int = 0,
        remote_bytes_time: float = 0.0,
        fault_time: float = 0.0,
        stall_time: float = 0.0,
        atomics: int = 0,
        l1l2_bytes: int = 0,
    ) -> float:
        """Duration of one kernel launch.

        HBM traffic, compute and the L1<->L2 bandwidth floor overlap
        (``max``); remote C2C access time, fault servicing, and migration
        stalls serialise with them (they block the accessing warps).
        """
        compute = flops / self.config.gpu_flops if flops else 0.0
        hbm = hbm_bytes / self.config.hbm_bandwidth
        l1l2_floor = l1l2_bytes / self.config.l1l2_bandwidth
        pipelined = max(compute, hbm, l1l2_floor)
        atomic = atomics * self.config.gpu_atomic_cost
        return (
            self.config.kernel_launch_cost
            + pipelined
            + remote_bytes_time
            + fault_time
            + stall_time
            + atomic
        )
