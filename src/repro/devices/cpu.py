"""The Grace CPU device model (72-core Neoverse V2, LPDDR5X).

CPU phases in the studied applications are dominated by initialisation
loops — single-threaded in Rodinia (Section 3.1) — plus fault handling
and, when touching GPU-resident data, remote cacheline accesses over
NVLink-C2C.
"""

from __future__ import annotations

from ..sim.config import SystemConfig


class CpuDevice:
    def __init__(self, config: SystemConfig, chip: int = 0):
        self.config = config
        self.chip = chip  # superchip index on multi-superchip nodes
        self.cores = 72

    def phase_time(
        self,
        *,
        bytes_processed: int = 0,
        threads: int = 1,
        fault_time: float = 0.0,
        remote_time: float = 0.0,
        fixed_time: float = 0.0,
    ) -> float:
        """Duration of a CPU phase over ``bytes_processed`` bytes.

        Rodinia init loops are single-threaded (Section 3.1); parallel
        phases scale bandwidth up to the LPDDR5X limit.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        bw = min(
            self.config.cpu_single_thread_bandwidth * min(threads, self.cores),
            self.config.cpu_memory_bandwidth,
        )
        return bytes_processed / bw + fault_time + remote_time + fixed_time
