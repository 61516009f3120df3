"""Quantum Volume simulation application (the Qiskit-Aer port).

Mirrors the paper's Section 3.1 setup:

* the statevector buffer is ``8 * 2**N`` bytes (complex64 amplitudes);
* it is **GPU-initialised** (the simulator zeroes and seeds |0...0> on
  the device), making it the GPU-side-first-touch showcase of
  Section 5.1.2;
* every circuit layer performs fused streaming sweeps over the whole
  statevector — the "series of matrix multiplications that benefit from
  high memory throughput";
* per-layer temporary buffers are drawn from a *custom thrust allocator*
  which is ``cudaMalloc`` in the explicit version, ``malloc`` in the
  system version and ``cudaMallocManaged`` in the managed version;
* host-side circuit preparation touches a fixed auxiliary region during
  the computation phase (Qiskit's host bookkeeping);
* the explicit version implements Aer's chunked pipeline when the
  statevector exceeds GPU memory — the "sophisticated data movement
  pipeline [that] represents the ideal performance" of Section 4.

Functional runs (small qubit counts, ``materialize=True``) execute the
real statevector engine of :mod:`repro.apps.quantum.statevector` and
verify unitarity.
"""

from __future__ import annotations

import numpy as np

from ...core.kernels import ArrayAccess
from ...core.porting import MemoryMode
from ...core.runtime import GraceHopperSystem
from ...mem.pageset import PageSet
from ...sim.config import Location, MiB, Processor
from ..base import Application, AppResult, register_application
from .circuits import generate_qv_circuit, run_circuit
from .statevector import Statevector

#: Paper statevector sizing: 8 bytes per amplitude.
AMPLITUDE_BYTES = 8

#: Fixed host-side bookkeeping (circuit tables, transpilation buffers).
AUX_BYTES = 64 * MiB

#: Fused gate sweeps per circuit layer (Aer's gate fusion collapses the
#: n/2 SU(4) gates of a layer into a couple of full-statevector passes).
SWEEPS_PER_LAYER = 2

#: Chunk size of the explicit version's out-of-core pipeline.
CHUNK_BYTES = 4 * 1024 * MiB


@register_application
class QuantumVolume(Application):
    """Quantum Volume simulation (Qiskit-Aer statevector backend)."""

    name = "qiskit"
    pattern = "mixed"
    paper_input = "30-34 qubits"

    def __init__(self, scale: float = 1.0, qubits: int = 30, seed: int = 17,
                 depth: int | None = None, prefetch: bool = False,
                 chunk_bytes: int | None = None):
        """``prefetch=True`` applies the paper's managed-memory
        optimisation: explicit ``cudaMemPrefetchAsync`` of the statevector
        before each layer, so oversubscribed data is consumed from GPU
        memory instead of the slow remote mapping (Figures 12-13).
        ``chunk_bytes`` sizes the explicit version's out-of-core pipeline
        buffers (defaults to 4 GiB, Aer's chunk scale)."""
        super().__init__(scale)
        if qubits < 2:
            raise ValueError("Quantum Volume needs at least 2 qubits")
        self.qubits = qubits
        self.depth = depth or qubits
        self.seed = seed
        self.prefetch = prefetch
        self.chunk_bytes = chunk_bytes or CHUNK_BYTES
        if self.chunk_bytes < AMPLITUDE_BYTES:
            raise ValueError("chunk_bytes must hold at least one amplitude")
        self.sv_bytes = AMPLITUDE_BYTES << qubits

    def working_set_bytes(self) -> int:
        return self.sv_bytes

    # -- phases ---------------------------------------------------------------

    def setup(self, gh: GraceHopperSystem, mode: MemoryMode, materialize: bool):
        self._chunked = (
            mode is MemoryMode.EXPLICIT
            and self.sv_bytes > gh.mem.physical.gpu.free
        )
        n_amps = 1 << self.qubits
        if mode is MemoryMode.EXPLICIT and not self._chunked:
            # In-memory explicit: the statevector lives on the device.
            self.sv = self.buffer(
                gh, mode, "statevector", np.complex64, (n_amps,),
                gpu_only=True, materialize=materialize,
            )
        elif self._chunked:
            # Aer's heterogeneous mode: statevector in pinned host memory,
            # streamed through a device-resident chunk pair.
            self._host_sv = gh.cuda_malloc_host(
                np.complex64, (n_amps,), name="qiskit.sv.host",
                materialize=materialize,
            )
            chunk_amps = min(n_amps, self.chunk_bytes // AMPLITUDE_BYTES)
            self._chunk_dev = gh.cuda_malloc(
                np.complex64, (chunk_amps,), name="qiskit.sv.chunk"
            )
        else:
            self.sv = self.buffer(
                gh, mode, "statevector", np.complex64, (n_amps,),
                materialize=materialize,
            )
        # Host bookkeeping is plain malloc in every version (Qiskit's own
        # host code does not go through the thrust allocator).
        self.aux = gh.malloc(np.uint8, (AUX_BYTES,), name="qiskit.aux")

    def cpu_init(self, gh: GraceHopperSystem, mode: MemoryMode) -> None:
        # Argument parsing / circuit loading; the statevector itself is
        # GPU-initialised, so there is no CPU-side buffer initialisation.
        gh.cpu_phase("qiskit-parse", [], fixed_time=1e-4)

    # -- the thrust custom allocator -------------------------------------------

    def _thrust_alloc(self, gh: GraceHopperSystem, mode: MemoryMode, layer: int):
        shape = (512 * 1024,)
        name = f"qiskit.thrust{layer}"
        if mode is MemoryMode.SYSTEM:
            return gh.malloc(np.uint8, shape, name=name)
        if mode is MemoryMode.MANAGED:
            return gh.cuda_malloc_managed(np.uint8, shape, name=name)
        return gh.cuda_malloc(np.uint8, shape, name=name)

    # -- compute ------------------------------------------------------------------

    def compute(self, gh: GraceHopperSystem, mode: MemoryMode, result: AppResult):
        rng = np.random.default_rng(self.seed)
        state = None
        circuit = None
        materialized = (
            not self._chunked
            and getattr(self, "sv", None) is not None
            and self.sv.gpu_target.materialized
        )
        if materialized:
            circuit = generate_qv_circuit(self.qubits, rng, depth=self.depth)
            state = Statevector(
                self.qubits, buffer=self.sv.gpu_target.np.reshape(-1)
            )

        # Host-side circuit preparation (in the computation phase: Qiskit
        # transpiles within execute()).
        gh.cpu_phase("qiskit-prep", [ArrayAccess.write_(self.aux)])

        # -- initialisation sub-phase: zero + seed the statevector on GPU.
        # Initialisation proceeds in windows (thrust fills the vector in
        # grid-stride batches), so the memory profiler sees the gradual
        # GPU-usage ramp of Figure 5 instead of a step.
        t_init0 = gh.now
        if self._chunked:
            self._chunked_init(gh)
        else:
            sv_arr = self.sv.gpu_target
            n_pages = sv_arr.alloc.n_pages
            n_windows = min(32, n_pages)

            def init():
                if materialized:
                    state.reset()

            for w in range(n_windows):
                lo = (w * n_pages) // n_windows
                hi = ((w + 1) * n_pages) // n_windows
                gh.launch_kernel(
                    f"qiskit-init-statevector-{w}",
                    [ArrayAccess.write_(sv_arr, PageSet.range(lo, hi))],
                    compute=init if w == 0 else None,
                )
        result.sub_phases["initialization"] = gh.now - t_init0

        # -- computation sub-phase: the circuit layers.
        t_comp0 = gh.now
        for layer in range(self.depth):
            temp = self._thrust_alloc(gh, mode, layer)
            t0 = gh.now
            if self._chunked:
                self._chunked_layer(gh, layer)
            else:
                sv_arr = self.sv.gpu_target

                def apply(layer=layer):
                    if materialized:
                        for gate in circuit.layers[layer]:
                            state.apply_two(gate.matrix, gate.q0, gate.q1)

                if self.prefetch and mode is MemoryMode.MANAGED:
                    gh.prefetch_to_gpu(sv_arr)
                for sweep in range(SWEEPS_PER_LAYER):
                    sv_pages = None
                    if self.prefetch and mode is MemoryMode.MANAGED:
                        # The prefetch pipeline interleaves chunk moves
                        # with compute, so the sweep consumes the
                        # GPU-resident window locally; the transfer cost
                        # of the remainder was paid by the prefetch call.
                        sv_pages = sv_arr.alloc.subset(
                            PageSet.full(sv_arr.alloc.n_pages), Location.GPU
                        )
                    gh.launch_kernel(
                        f"qiskit-layer{layer}-sweep{sweep}",
                        [
                            ArrayAccess.read(sv_arr, sv_pages),
                            ArrayAccess.write_(sv_arr, sv_pages),
                            ArrayAccess.read(temp),
                            ArrayAccess.write_(temp),
                        ],
                        flops=24.0 * (1 << self.qubits),
                        compute=apply if sweep == 0 else None,
                    )
            result.iteration_times.append(gh.now - t0)
            gh.free(temp)
        gh.device_synchronize()
        result.sub_phases["computation"] = gh.now - t_comp0

        if materialized:
            result.correctness["norm"] = state.norm()
            result.correctness["heavy_output_probability"] = (
                state.heavy_output_probability()
            )
            result.correctness["state"] = state.amplitudes.copy()

    # -- chunked pipeline (explicit, out-of-core) -------------------------------------

    def _chunked_init(self, gh: GraceHopperSystem) -> None:
        """Initialise the host statevector chunk by chunk through the GPU."""
        n_chunks = -(-self._host_sv.nbytes // self._chunk_dev.nbytes)
        for c in range(n_chunks):
            gh.launch_kernel(
                f"qiskit-chunk-init-{c}",
                [ArrayAccess.write_(self._chunk_dev)],
            )
            gh.memcpy_d2h(self._host_sv, self._chunk_dev)
        if self._host_sv.materialized:
            self._host_sv.np[:] = 0
            self._host_sv.np[0] = 1.0

    def _chunked_layer(self, gh: GraceHopperSystem, layer: int) -> None:
        """One circuit layer streamed through the device chunk buffers.

        Aer's heterogeneous pipeline double-buffers: while one chunk
        computes, the next is copied in and the previous copied out on
        separate copy engines. Steady-state time per chunk is therefore
        max(H2D, compute, D2H) — the pipeline the paper credits with
        "ideal performance" (Section 4).
        """
        n_chunks = -(-self._host_sv.nbytes // self._chunk_dev.nbytes)
        chunk_bytes = self._chunk_dev.nbytes
        cfg = gh.config
        for sweep in range(SWEEPS_PER_LAYER):
            h2d = chunk_bytes / cfg.c2c_h2d_bandwidth
            d2h = chunk_bytes / cfg.c2c_d2h_bandwidth
            for c in range(n_chunks):
                rec = gh.launch_kernel(
                    f"qiskit-l{layer}s{sweep}c{c}",
                    [
                        ArrayAccess.read(self._chunk_dev),
                        ArrayAccess.write_(self._chunk_dev),
                    ],
                    flops=24.0 * (chunk_bytes // AMPLITUDE_BYTES),
                )
                # Stall only for the non-overlapped remainder of the two
                # DMA transfers relative to this chunk's compute time.
                bottleneck = max(h2d, d2h, rec.duration)
                gh.clock.advance(
                    max(0.0, bottleneck - rec.duration),
                    activity="qiskit-pipeline-dma",
                )
                gh.counters.bump(explicit_copy_bytes=2 * chunk_bytes)
                gh.mem.link.account_external(chunk_bytes, Processor.CPU, h2d)
                gh.mem.link.account_external(chunk_bytes, Processor.GPU, d2h)

    def teardown(self, gh: GraceHopperSystem) -> None:
        if self._chunked:
            gh.free(self._host_sv)
            gh.free(self._chunk_dev)
        gh.free(self.aux)
        super().teardown(gh)

    def verify(self, result: AppResult) -> None:
        norm = result.correctness.get("norm")
        if norm is None:
            return
        if abs(norm - 1.0) > 1e-3:
            raise AssertionError(f"statevector norm {norm} deviates from 1")
        hop = result.correctness["heavy_output_probability"]
        if not 0.5 < hop <= 1.0:
            raise AssertionError(
                f"heavy-output probability {hop} not in the QV-passing range"
            )
