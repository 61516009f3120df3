"""Domain-sharded multi-GPU workloads (beyond-paper extrapolation).

The paper studies one GH200 superchip; deployed systems gang several into
one node (quad-GH200). These workloads shard across the
:class:`~repro.topology.ShardedSystem` fabric in the two canonical ways:

* :class:`ShardedHotspot` — row-block domain decomposition of the Rodinia
  thermal stencil with a per-iteration *halo exchange* of one boundary
  row per neighbour. Compute scales with ``1/P`` while the halo is a
  fixed, tiny fraction of the grid, so scaling stays near-linear.
* :class:`ShardedQuantumVolume` — the Aer-style distributed statevector:
  each GPU owns ``2^n / P`` amplitudes; gates on the top ``log2(P)``
  *global* qubits require a pairwise (butterfly) exchange of half of
  every shard's amplitudes. Exchange volume scales with the statevector,
  so the NVLink fabric — two orders of magnitude slower than HBM —
  becomes the bottleneck and scaling flattens.

Both report a compute/exchange split plus the per-link fabric traffic,
the quantities the ``topo_scaling`` experiment sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.kernels import ArrayAccess
from ..core.runtime import GraceHopperSystem
from ..mem.numa import NumaAllocator, NumaPolicy
from ..profiling.counters import CounterSet
from ..topology.sharded import ShardedSystem
from .quantum.app import AMPLITUDE_BYTES, SWEEPS_PER_LAYER

#: Supported placements for the sharded working set, named after the
#: NUMA policy they model: GPU first-touch (pages in the owning HBM),
#: CPU first-touch (pages in the owning DDR, access-counter migration
#: pulls the hot ones over), and 1:1 DDR/HBM page interleaving.
PLACEMENTS = ("gpu", "cpu", "interleave")


@dataclass
class ShardedRunResult:
    """Outcome of one sharded run (per-node aggregates)."""

    app: str
    n_superchips: int
    placement: str
    iterations: int
    init_seconds: float = 0.0
    compute_seconds: float = 0.0
    exchange_seconds: float = 0.0
    exchange_bytes: int = 0
    hop_bytes: int = 0
    per_link_bytes: dict[str, int] = field(default_factory=dict)
    counters: CounterSet = field(default_factory=CounterSet)

    @property
    def total_seconds(self) -> float:
        """The reported (steady-phase) time: compute plus exchange."""
        return self.compute_seconds + self.exchange_seconds


def _place_and_init(gh: GraceHopperSystem, arr, placement: str) -> None:
    """Realise ``placement`` for one shard-local system allocation."""
    if placement == "interleave":
        NumaAllocator(gh.config, gh.mem.physical).place(
            arr.alloc, NumaPolicy.INTERLEAVE
        )
        gh.cpu_phase(f"init:{arr.name}", [ArrayAccess.write_(arr)])
    elif placement == "cpu":
        gh.cpu_phase(f"init:{arr.name}", [ArrayAccess.write_(arr)])
    elif placement == "gpu":
        gh.launch_kernel(f"init:{arr.name}", [ArrayAccess.write_(arr)])
    else:
        raise ValueError(f"unknown placement {placement!r}; use {PLACEMENTS}")


class ShardedHotspot:
    """Row-block sharded Rodinia hotspot with halo exchange."""

    name = "hotspot-sharded"
    PAPER_DIM = 16 * 1024

    def __init__(
        self, scale: float = 1.0, iterations: int = 4, placement: str = "cpu"
    ):
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; use {PLACEMENTS}")
        dim = max(64, int(round(self.PAPER_DIM * math.sqrt(scale))))
        self.rows = self.cols = dim
        self.iterations = iterations
        self.placement = placement

    def run(self, system: ShardedSystem) -> ShardedRunResult:
        P = system.n_superchips
        rows_per = -(-self.rows // P)
        result = ShardedRunResult(
            self.name, P, self.placement, self.iterations
        )
        start = system.aggregate_counters()

        # -- allocation + init (one row-block plus two halo rows each) ----
        t0 = system.barrier()
        temps, powers, scratches = [], [], []
        def setup(i, gh):
            shape = (rows_per + 2, self.cols)
            temp = gh.malloc(np.float32, shape, name=f"temp{i}")
            power = gh.malloc(np.float32, (rows_per, self.cols), name=f"power{i}")
            scratch = gh.cuda_malloc(np.float32, shape, name=f"scratch{i}")
            _place_and_init(gh, temp, self.placement)
            _place_and_init(gh, power, self.placement)
            temps.append(temp)
            powers.append(power)
            scratches.append(scratch)
        system.step(setup, label="setup")
        result.init_seconds = system.now - t0

        # -- iterate: stencil superstep, then halo exchange ----------------
        halo_bytes = self.cols * 4
        hbm = [sc.hbm for sc in system.topology.superchips]
        for it in range(self.iterations):
            t0 = system.barrier()
            def stencil(i, gh):
                gh.launch_kernel(
                    f"hotspot-step{it}-{i}",
                    [
                        ArrayAccess.read(temps[i]),
                        ArrayAccess.read(powers[i]),
                        ArrayAccess.write_(scratches[i]),
                    ],
                    flops=10.0 * rows_per * self.cols,
                    reuse=3.0,  # stencil neighbours hit in cache
                )
            system.step(stencil, label=f"stencil{it}")
            result.compute_seconds += system.now - t0

            if P > 1:
                transfers = []
                for i in range(P):
                    if i > 0:
                        transfers.append((halo_bytes, hbm[i], hbm[i - 1]))
                    if i < P - 1:
                        transfers.append((halo_bytes, hbm[i], hbm[i + 1]))
                out = system.exchange(transfers, label=f"halo{it}")
                result.exchange_seconds += out.seconds
                result.exchange_bytes += out.total_bytes
                result.hop_bytes += out.hop_bytes
                for name, nbytes in out.per_link_bytes.items():
                    result.per_link_bytes[name] = (
                        result.per_link_bytes.get(name, 0) + nbytes
                    )

        system.step(lambda i, gh: (
            gh.free(temps[i]), gh.free(powers[i]), gh.free(scratches[i])
        ), label="teardown")
        result.counters = system.aggregate_counters().delta(start)
        return result


class ShardedQuantumVolume:
    """Distributed-statevector Quantum Volume with butterfly exchanges."""

    name = "qv-sharded"
    PAPER_QUBITS = 30

    def __init__(
        self,
        scale: float = 1.0,
        qubits: int | None = None,
        depth: int | None = None,
        placement: str = "gpu",
    ):
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; use {PLACEMENTS}")
        if qubits is None:
            # Footprint scales linearly with ``scale`` (one qubit per
            # doubling), like the square-circuit convention elsewhere.
            qubits = self.PAPER_QUBITS + int(round(math.log2(scale))) if scale != 1.0 else self.PAPER_QUBITS
        self.qubits = max(qubits, 8)
        self.depth = depth if depth is not None else min(self.qubits, 8)
        self.placement = placement

    def run(self, system: ShardedSystem) -> ShardedRunResult:
        P = system.n_superchips
        if P & (P - 1):
            raise ValueError("statevector sharding needs a power-of-two P")
        global_qubits = P.bit_length() - 1
        hbm = [sc.hbm for sc in system.topology.superchips]
        local_amps = (1 << self.qubits) // P
        local_bytes = local_amps * AMPLITUDE_BYTES
        result = ShardedRunResult(self.name, P, self.placement, self.depth)
        start = system.aggregate_counters()

        t0 = system.barrier()
        shards = []
        def setup(i, gh):
            sv = gh.malloc(np.complex64, (local_amps,), name=f"sv{i}")
            _place_and_init(gh, sv, self.placement)
            shards.append(sv)
        system.step(setup, label="setup")
        result.init_seconds = system.now - t0

        for layer in range(self.depth):
            t0 = system.barrier()
            def sweep(i, gh):
                for s in range(SWEEPS_PER_LAYER):
                    gh.launch_kernel(
                        f"qv-layer{layer}-sweep{s}-{i}",
                        [ArrayAccess.read(shards[i]), ArrayAccess.write_(shards[i])],
                        flops=24.0 * local_amps,
                    )
            system.step(sweep, label=f"layer{layer}")
            result.compute_seconds += system.now - t0

            if global_qubits:
                # A gate on one global qubit pairs each shard with the
                # partner differing in that bit; half the local amplitudes
                # cross the fabric in each direction (Aer's chunk swap).
                bit = layer % global_qubits
                transfers = [
                    (local_bytes // 2, hbm[i], hbm[i ^ (1 << bit)])
                    for i in range(P)
                ]
                out = system.exchange(transfers, label=f"butterfly{layer}")
                result.exchange_seconds += out.seconds
                result.exchange_bytes += out.total_bytes
                result.hop_bytes += out.hop_bytes
                for name, nbytes in out.per_link_bytes.items():
                    result.per_link_bytes[name] = (
                        result.per_link_bytes.get(name, 0) + nbytes
                    )

        system.step(lambda i, gh: gh.free(shards[i]), label="teardown")
        result.counters = system.aggregate_counters().delta(start)
        return result


SHARDED_APPS = {
    ShardedHotspot.name: ShardedHotspot,
    ShardedQuantumVolume.name: ShardedQuantumVolume,
}


def get_sharded_application(name: str, **kwargs):
    try:
        cls = SHARDED_APPS[name]
    except KeyError:
        raise KeyError(
            f"unknown sharded application {name!r}; known: {sorted(SHARDED_APPS)}"
        ) from None
    return cls(**kwargs)
