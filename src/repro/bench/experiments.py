"""One experiment per table and figure of the paper's evaluation.

Each function regenerates the rows/series of its table or figure on the
simulated testbed and returns an :class:`ExperimentResult`. The mapping
to the paper is:

========  ===========================================================
table1    Memory management types (Section 2.1.3, Table 1)
table2    Applications, patterns, inputs (Section 3.1, Table 2)
sec21     STREAM + Comm|Scope bandwidth anchors (Section 2.1)
fig3      System/managed speedup vs explicit, six apps, in-memory
fig4      hotspot memory-usage-over-time, system vs managed
fig5      Quantum Volume memory-usage-over-time, system vs managed
fig6      Alloc+dealloc time at 4 KB vs 64 KB system pages
fig7      Compute time at 4 KB vs 64 KB (auto-migration on)
fig8      QV speedup of 64 KB over 4 KB across qubit counts
fig9      33-qubit QV init/compute breakdown per page size
fig10     SRAD per-iteration time and memory traffic
fig11     System-vs-managed speedup under oversubscription
fig12     34-qubit QV memory-tier throughput (managed, prefetch)
fig13     QV init/compute under oversubscription (30 and 34 qubits)
sec512    cudaHostRegister / pre-init-loop optimisation on srad
========  ===========================================================

Beyond the paper, ``topo_scaling`` sweeps sharded multi-GPU workloads
over 1/2/4-superchip fabric topologies (see ``docs/model.md`` §10).
"""

from __future__ import annotations

import statistics
from typing import Callable

from ..apps import applications_table, get_application
from ..core.optimization import PrepopulateMethod, prepopulate_page_table
from ..core.porting import MemoryMode
from ..core.runtime import GraceHopperSystem
from ..mem.pagetable import MEMORY_TYPE_TABLE
from ..sim.config import Processor, SystemConfig
from ..workloads.commscope import asymptotic_bandwidth, run_commscope
from ..workloads.stream import best_bandwidth, run_stream
from .harness import (
    ExperimentResult,
    make_config,
    make_topology_config,
    run_app,
    scaled_qubits,
    speedup,
)

RODINIA = ["bfs", "hotspot", "needle", "pathfinder", "srad"]

_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def experiment(exp_id: str):
    def deco(fn):
        fn.exp_id = exp_id
        _REGISTRY[exp_id] = fn
        return fn

    return deco


def experiment_ids() -> list[str]:
    return list(_REGISTRY)


def experiment_descriptions() -> dict[str, str]:
    """One-line description per registered experiment (first docstring
    line), for ``repro-bench run --list``."""
    out = {}
    for exp_id, fn in _REGISTRY.items():
        doc = (fn.__doc__ or "").strip()
        out[exp_id] = doc.splitlines()[0] if doc else ""
    return out


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    try:
        fn = _REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {experiment_ids()}"
        ) from None
    # ``mem_arch`` retargets the whole experiment at a different memory
    # architecture backend without each experiment having to thread it:
    # every config the experiment builds inherits the default.
    mem_arch = kwargs.pop("mem_arch", None)
    if mem_arch is None:
        return fn(**kwargs)
    from .harness import default_mem_arch

    with default_mem_arch(mem_arch):
        return fn(**kwargs)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@experiment("table1")
def table1(scale: float = 1.0) -> ExperimentResult:
    """Table 1: memory management types."""
    res = ExperimentResult("table1", "Memory management types")
    for row in MEMORY_TYPE_TABLE:
        res.add(
            location=row["location"],
            interface=row["interface"],
            pte_init=row["pte_init"],
            cache_coherent="Yes" if row["cache_coherent"] else "No",
            migration=row["migration"],
        )
    return res


@experiment("table2")
def table2(scale: float = 1.0) -> ExperimentResult:
    """Table 2: applications, access patterns and inputs."""
    res = ExperimentResult("table2", "Applications, patterns, inputs")
    for row in applications_table():
        res.add(**row)
    return res


# ---------------------------------------------------------------------------
# Section 2.1 microbenchmarks
# ---------------------------------------------------------------------------


@experiment("sec21")
def sec21_bandwidths(scale: float = 1.0) -> ExperimentResult:
    """STREAM and Comm|Scope measured-vs-theoretical bandwidths."""
    res = ExperimentResult(
        "sec21", "STREAM and Comm|Scope bandwidth anchors (Section 2.1)"
    )
    n = max(1 << 14, int((1 << 26) * scale))
    gh = GraceHopperSystem(make_config(scale))
    gpu = best_bandwidth(run_stream(gh, Processor.GPU, n_elements=n))
    cpu = best_bandwidth(run_stream(gh, Processor.CPU, n_elements=n))
    cs = run_commscope(gh)
    res.add(
        benchmark="STREAM GPU (HBM3)",
        measured_gb_s=round(gpu.bandwidth / 1e9, 1),
        theoretical_gb_s=round(gpu.theoretical / 1e9, 1),
        paper_gb_s=3400.0,
    )
    res.add(
        benchmark="STREAM CPU (LPDDR5X)",
        measured_gb_s=round(cpu.bandwidth / 1e9, 1),
        theoretical_gb_s=round(cpu.theoretical / 1e9, 1),
        paper_gb_s=486.0,
    )
    res.add(
        benchmark="Comm|Scope H2D",
        measured_gb_s=round(asymptotic_bandwidth(cs, "h2d") / 1e9, 1),
        theoretical_gb_s=450.0,
        paper_gb_s=375.0,
    )
    res.add(
        benchmark="Comm|Scope D2H",
        measured_gb_s=round(asymptotic_bandwidth(cs, "d2h") / 1e9, 1),
        theoretical_gb_s=450.0,
        paper_gb_s=297.0,
    )
    return res


# ---------------------------------------------------------------------------
# Figure 3: overview
# ---------------------------------------------------------------------------


@experiment("fig3")
def fig3_overview(
    scale: float = 1.0, qv_qubits: tuple[int, ...] = (17, 19, 21, 23)
) -> ExperimentResult:
    """Relative performance of system/managed vs explicit, in-memory,
    automatic migration disabled (Section 4)."""
    res = ExperimentResult(
        "fig3", "Speedup of unified-memory versions over explicit copy"
    )
    workloads = [(name, {}) for name in RODINIA] + [
        (f"qiskit-{q}q", {"qubits": scaled_qubits(q, scale)}) for q in qv_qubits
    ]
    for label, kwargs in workloads:
        name = "qiskit" if label.startswith("qiskit") else label
        times = {}
        for mode in MemoryMode:
            result, _ = run_app(
                name,
                mode,
                scale=scale,
                migration=False,
                app_kwargs=kwargs,
            )
            times[mode] = result.reported_total
        res.add(
            app=label,
            explicit_s=round(times[MemoryMode.EXPLICIT], 4),
            system_speedup=round(
                speedup(times[MemoryMode.EXPLICIT], times[MemoryMode.SYSTEM]), 3
            ),
            managed_speedup=round(
                speedup(times[MemoryMode.EXPLICIT], times[MemoryMode.MANAGED]), 3
            ),
        )
    res.notes.append(
        "Paper shape: system >= managed for needle/pathfinder/hotspot/bfs "
        "and small-qubit QV; managed > system for srad and 21+-qubit QV; "
        "needle and pathfinder system versions beat even the explicit copy."
    )
    return res


# ---------------------------------------------------------------------------
# Figures 4-5: memory profiles
# ---------------------------------------------------------------------------


def _profile_series(result, max_points: int = 40):
    prof = result.profile
    samples = prof.samples
    step = max(1, len(samples) // max_points)
    return samples[::step]


@experiment("fig4")
def fig4_hotspot_profile(scale: float = 1.0) -> ExperimentResult:
    """hotspot memory usage over time, system vs managed."""
    res = ExperimentResult("fig4", "hotspot memory usage over time")
    for mode in (MemoryMode.SYSTEM, MemoryMode.MANAGED):
        result, _ = run_app(
            "hotspot", mode, scale=scale, migration=False, profile=True,
            config_overrides={"profiler_sample_period": 0.02},
        )
        for s in _profile_series(result):
            res.add(
                version=mode.value,
                t_s=round(s.time, 3),
                rss_gb=round(s.rss_bytes / 1e9, 3),
                gpu_used_gb=round(s.gpu_used_bytes / 1e9, 3),
            )
    res.notes.append(
        "Paper shape: managed version shows an RSS drop and GPU-usage jump "
        "when compute starts (on-demand migration); system version keeps "
        "GPU usage flat while RSS plateaus after initialisation."
    )
    return res


@experiment("fig5")
def fig5_qiskit_profile(scale: float = 1.0, qubits: int = 33) -> ExperimentResult:
    """Quantum Volume memory usage over time, system vs managed."""
    res = ExperimentResult("fig5", "Quantum Volume memory usage over time")
    q = scaled_qubits(qubits, scale)
    for mode in (MemoryMode.SYSTEM, MemoryMode.MANAGED):
        result, _ = run_app(
            "qiskit",
            mode,
            scale=scale,
            migration=False,
            profile=True,
            app_kwargs={"qubits": q},
        )
        for s in _profile_series(result):
            res.add(
                version=mode.value,
                t_s=round(s.time, 3),
                rss_gb=round(s.rss_bytes / 1e9, 3),
                gpu_used_gb=round(s.gpu_used_bytes / 1e9, 3),
            )
        res.add(
            version=f"{mode.value}-total",
            t_s=round(result.reported_total, 3),
            rss_gb=float("nan"),
            gpu_used_gb=float("nan"),
        )
    res.notes.append(
        "Paper shape: the system version's GPU usage ramps slowly through a "
        "long initialisation (GPU first-touch, CPU-side PTE creation); the "
        "managed version reaches peak GPU usage almost immediately."
    )
    return res


# ---------------------------------------------------------------------------
# Figures 6-7: system page size on Rodinia
# ---------------------------------------------------------------------------


@experiment("fig6")
def fig6_alloc_dealloc(scale: float = 1.0) -> ExperimentResult:
    """Allocation + deallocation time, 4 KB vs 64 KB system pages."""
    res = ExperimentResult(
        "fig6", "System-version alloc+dealloc time per page size"
    )
    ratios = []
    for name in RODINIA:
        t = {}
        for page in (4096, 65536):
            result, _ = run_app(
                name, MemoryMode.SYSTEM, scale=scale, page_size=page
            )
            t[page] = result.phases.allocation + result.phases.deallocation
        ratio = t[4096] / t[65536]
        ratios.append(ratio)
        res.add(
            app=name,
            alloc_dealloc_4k_s=round(t[4096], 4),
            alloc_dealloc_64k_s=round(t[65536], 4),
            ratio_4k_over_64k=round(ratio, 1),
        )
    res.notes.append(
        f"Mean ratio {statistics.mean(ratios):.1f}x "
        "(paper: 4.6x-38x, average 15.9x; dominated by per-PTE teardown)."
    )
    return res


@experiment("fig7")
def fig7_pagesize_compute(scale: float = 1.0) -> ExperimentResult:
    """Computation time, 4 KB vs 64 KB (automatic migration enabled)."""
    res = ExperimentResult("fig7", "System-version compute time per page size")
    for name in RODINIA:
        t = {}
        for page in (4096, 65536):
            result, _ = run_app(
                name, MemoryMode.SYSTEM, scale=scale, page_size=page,
                migration=True,
            )
            t[page] = result.phases.compute
        res.add(
            app=name,
            compute_4k_s=round(t[4096], 4),
            compute_64k_s=round(t[65536], 4),
            slowdown_64k=round(t[65536] / t[4096], 2),
        )
    res.notes.append(
        "Paper shape: 4 KB pages give 1.1x-2.1x faster compute for all "
        "Rodinia applications except SRAD, whose iterative reuse profits "
        "from the 64 KB-triggered automatic migrations."
    )
    return res


# ---------------------------------------------------------------------------
# Figures 8-9: system page size on Quantum Volume
# ---------------------------------------------------------------------------


@experiment("fig8")
def fig8_qiskit_pagesize(
    scale: float = 1.0, qubit_counts: tuple[int, ...] = (23, 25, 28, 30, 33)
) -> ExperimentResult:
    """QV speedup of 64 KB over 4 KB system pages across qubit counts."""
    res = ExperimentResult("fig8", "QV speedup at 64 KB vs 4 KB system pages")
    for q in qubit_counts:
        row = {"qubits": q}
        for mode in (MemoryMode.SYSTEM, MemoryMode.MANAGED):
            t = {}
            for page in (4096, 65536):
                result, _ = run_app(
                    "qiskit", mode, scale=scale, page_size=page,
                    migration=False,
                    app_kwargs={"qubits": scaled_qubits(q, scale)},
                )
                t[page] = result.reported_total
            row[f"{mode.value}_speedup_64k"] = round(t[4096] / t[65536], 2)
        res.add(**row)
    res.notes.append(
        "Paper shape: the system-memory speedup grows with the problem "
        "size toward ~4x; the managed speedup shrinks toward ~1x beyond "
        "25 qubits (GPU-resident managed pages always use 2 MB GPU pages)."
    )
    return res


@experiment("fig9")
def fig9_qv33_breakdown(scale: float = 1.0, qubits: int = 33) -> ExperimentResult:
    """33-qubit QV initialisation/computation breakdown per page size."""
    res = ExperimentResult("fig9", "33-qubit QV phase breakdown per page size")
    q = scaled_qubits(qubits, scale)
    for mode in (MemoryMode.SYSTEM, MemoryMode.MANAGED):
        for page in (4096, 65536):
            result, _ = run_app(
                "qiskit", mode, scale=scale, page_size=page, migration=False,
                app_kwargs={"qubits": q},
            )
            res.add(
                version=mode.value,
                page_kb=page // 1024,
                init_s=round(result.sub_phases["initialization"], 3),
                compute_s=round(result.sub_phases["computation"], 3),
                total_s=round(result.reported_total, 3),
            )
    res.notes.append(
        "Paper shape: system memory's initialisation shrinks ~5x at 64 KB "
        "(2.9x total); managed memory is nearly page-size insensitive."
    )
    return res


# ---------------------------------------------------------------------------
# Figure 10: SRAD migration timeline
# ---------------------------------------------------------------------------


@experiment("fig10")
def fig10_srad_migration(scale: float = 1.0) -> ExperimentResult:
    """SRAD per-iteration execution time and memory traffic (64 KB)."""
    res = ExperimentResult(
        "fig10", "SRAD per-iteration time and traffic (64 KB, migration on)"
    )
    for mode in (MemoryMode.SYSTEM, MemoryMode.MANAGED):
        result, _ = run_app(
            "srad", mode, scale=scale, page_size=65536, migration=True
        )
        for i, (t, traffic) in enumerate(
            zip(result.iteration_times, result.iteration_traffic), start=1
        ):
            res.add(
                version=mode.value,
                iteration=i,
                time_ms=round(t * 1e3, 2),
                gpu_read_gb=round(traffic["gpu_read_bytes"] / 1e9, 3),
                c2c_read_gb=round(traffic["c2c_read_bytes"] / 1e9, 3),
            )
    res.notes.append(
        "Paper shape: managed pays one expensive first iteration then runs "
        "flat; system shows three sub-phases — first-touch spike, "
        "migration ramp (C2C reads fall as GPU reads rise), then steady "
        "iterations that beat the managed version. No GPU-to-CPU "
        "migration occurs in the system version."
    )
    return res


# ---------------------------------------------------------------------------
# Figure 11: oversubscription
# ---------------------------------------------------------------------------


@experiment("fig11")
def fig11_oversubscription(
    scale: float = 1.0,
    ratios: tuple[float, ...] = (1.0, 1.25, 1.5, 2.0),
    qv_qubits: int = 30,
) -> ExperimentResult:
    """System-vs-managed speedup at increasing oversubscription (4 KB)."""
    res = ExperimentResult(
        "fig11", "System-over-managed speedup vs oversubscription ratio"
    )
    workloads = [(name, {}) for name in RODINIA]
    workloads.append(("qiskit", {"qubits": scaled_qubits(qv_qubits, scale)}))
    for name, kwargs in workloads:
        label = name if name != "qiskit" else f"qiskit-{kwargs['qubits']}q"
        row = {"app": label}
        for ratio in ratios:
            t = {}
            for mode in (MemoryMode.SYSTEM, MemoryMode.MANAGED):
                result, _ = run_app(
                    name,
                    mode,
                    scale=scale,
                    page_size=4096,
                    migration=False,
                    oversubscription=ratio,
                    app_kwargs=kwargs,
                )
                # The computation phase is the quantity oversubscription
                # perturbs; alloc/dealloc asymmetries are the Figure 6
                # page-size effect, reported separately.
                t[mode] = result.phases.compute
            row[f"R{ratio}"] = round(
                t[MemoryMode.MANAGED] / t[MemoryMode.SYSTEM], 2
            )
        res.add(**row)
    res.notes.append(
        "Speedup = managed compute time / system compute time. Paper "
        "shape: the speedup of system over managed grows with the "
        "oversubscription ratio for bfs/hotspot/needle/pathfinder (system "
        "degrades gracefully via remote access; managed thrashes through "
        "evict+migrate cycles); SRAD is the most oversubscription-"
        "sensitive application."
    )
    return res


# ---------------------------------------------------------------------------
# Figures 12-13: Quantum Volume under oversubscription
# ---------------------------------------------------------------------------


@experiment("fig12")
def fig12_qv34_throughput(scale: float = 1.0, qubits: int = 34) -> ExperimentResult:
    """34-qubit QV (natural oversubscription): memory-tier throughput."""
    res = ExperimentResult(
        "fig12", "34-qubit QV memory-tier throughput (managed memory)"
    )
    q = scaled_qubits(qubits, scale)
    variants = [
        ("managed-4K", 4096, False),
        ("managed-64K", 65536, False),
        ("managed-64K+prefetch", 65536, True),
    ]
    for label, page, prefetch in variants:
        result, gh = run_app(
            "qiskit",
            MemoryMode.MANAGED,
            scale=scale,
            page_size=page,
            migration=False,
            app_kwargs={"qubits": q, "prefetch": prefetch},
        )
        recs = [r for r in gh.counters.kernel_records if "layer" in r.kernel]
        tiers = [r.tier_throughput() for r in recs]
        res.add(
            variant=label,
            l1l2_gb_s=round(statistics.mean(t["l1l2"] for t in tiers) / 1e9, 1),
            gpu_mem_gb_s=round(
                statistics.mean(t["gpu_memory"] for t in tiers) / 1e9, 1
            ),
            c2c_gb_s=round(
                statistics.mean(t["nvlink_c2c"] for t in tiers) / 1e9, 1
            ),
            compute_s=round(result.sub_phases["computation"], 2),
        )
    res.notes.append(
        "Paper shape: without prefetch the L1<->L2 data rate is throttled "
        "by slow NVLink-C2C remote traffic; explicit prefetching feeds the "
        "GPU from HBM and restores throughput."
    )
    return res


@experiment("fig13")
def fig13_qv_oversub_breakdown(
    scale: float = 1.0, small_qubits: int = 30, large_qubits: int = 34
) -> ExperimentResult:
    """QV init/compute breakdown: 30-qubit simulated oversubscription and
    34-qubit natural oversubscription (managed memory)."""
    res = ExperimentResult(
        "fig13", "QV phase breakdown under oversubscription (managed)"
    )
    qs = scaled_qubits(small_qubits, scale)
    ql = scaled_qubits(large_qubits, scale)
    # 30 qubits: simulated oversubscription at ~130% via balloon.
    for page in (4096, 65536):
        result, _ = run_app(
            "qiskit",
            MemoryMode.MANAGED,
            scale=scale,
            page_size=page,
            migration=False,
            oversubscription=1.3,
            app_kwargs={"qubits": qs},
        )
        res.add(
            case=f"{small_qubits}q-simulated",
            page_kb=page // 1024,
            init_s=round(result.sub_phases["initialization"], 3),
            compute_s=round(result.sub_phases["computation"], 3),
        )
    # 34 qubits: natural oversubscription (~130% of GPU memory).
    for page, prefetch in ((4096, False), (65536, False), (65536, True)):
        result, _ = run_app(
            "qiskit",
            MemoryMode.MANAGED,
            scale=scale,
            page_size=page,
            migration=False,
            app_kwargs={"qubits": ql, "prefetch": prefetch},
        )
        res.add(
            case=f"{large_qubits}q-natural" + ("+prefetch" if prefetch else ""),
            page_kb=page // 1024,
            init_s=round(result.sub_phases["initialization"], 3),
            compute_s=round(result.sub_phases["computation"], 3),
        )
    res.notes.append(
        "Paper shape: at 34 qubits, 64 KB pages shorten initialisation and "
        "speed up migration; at 30 qubits the preference flips — 64 KB "
        "compute is ~3x slower due to evict/migrate-back amplification at "
        "the system page size. The system version could not run the "
        "34-qubit case on the testbed; the paper (and we) study managed "
        "memory only here."
    )
    return res


# ---------------------------------------------------------------------------
# Section 5.1.2: page-table pre-population
# ---------------------------------------------------------------------------


@experiment("sec512")
def sec512_hostregister(scale: float = 1.0) -> ExperimentResult:
    """cudaHostRegister / pre-init-loop pre-population on srad."""
    res = ExperimentResult(
        "sec512", "PTE pre-population optimisations on srad (system memory)"
    )

    def run(prepare_method):
        cfg = make_config(scale, page_size=4096, migration=False)
        gh = GraceHopperSystem(cfg)
        app = get_application("srad", scale=scale)
        opt_cost = [0.0]
        orig_compute = app.compute

        def compute_with_prep(gh_, mode, result):
            if prepare_method is not None:
                for buf in (app.image, app.coeff, app.deriv):
                    r = prepopulate_page_table(
                        gh_, buf.gpu_target, prepare_method
                    )
                    opt_cost[0] += r.seconds
            orig_compute(gh_, mode, result)

        app.compute = compute_with_prep
        result = app.run(gh, MemoryMode.SYSTEM)
        return result, opt_cost[0]

    base, _ = run(None)
    reg, reg_cost = run(PrepopulateMethod.HOST_REGISTER)
    loop, loop_cost = run(PrepopulateMethod.PREINIT_LOOP)
    res.add(
        variant="baseline",
        registration_s=0.0,
        compute_s=round(base.phases.compute, 3),
    )
    res.add(
        variant="cudaHostRegister",
        registration_s=round(reg_cost, 3),
        compute_s=round(reg.phases.compute, 3),
    )
    res.add(
        variant="pre-init-loop",
        registration_s=round(loop_cost, 3),
        compute_s=round(loop.phases.compute, 3),
    )
    res.notes.append(
        "Paper anchor: cudaHostRegister cost ~300 ms on srad; the "
        "artificial pre-init loop achieves the same PTE pre-population "
        "without the CUDA API overhead."
    )
    return res


# ---------------------------------------------------------------------------
# Beyond-paper: multi-superchip topology scaling
# ---------------------------------------------------------------------------

#: How a node-level NUMA policy maps to each sharded app's placement.
_TOPO_POLICY_PLACEMENTS: dict[str, dict[str, str]] = {
    # First-touch as the apps are written: the stencil is CPU-initialised
    # (migration pulls hot pages over), the statevector GPU-initialised.
    "default": {"hotspot-sharded": "cpu", "qv-sharded": "gpu"},
    "ddr": {"hotspot-sharded": "cpu", "qv-sharded": "cpu"},
    "hbm": {"hotspot-sharded": "gpu", "qv-sharded": "gpu"},
    "interleave": {
        "hotspot-sharded": "interleave",
        "qv-sharded": "interleave",
    },
}


@experiment("topo_scaling")
def topo_scaling(
    scale: float = 1.0,
    superchips: tuple[int, ...] = (1, 2, 4),
    numa_policy: str = "default",
) -> ExperimentResult:
    """Multi-superchip strong scaling of sharded workloads (beyond paper).

    Shards two contrasting workloads over 1/2/4-superchip fabric
    topologies: the compute-bound halo-exchange stencil scales
    near-linearly, while the exchange-heavy distributed statevector is
    fabric-bound and flattens. Reports the compute/exchange split and
    per-link-kind fabric traffic.
    """
    from ..apps.sharded import ShardedHotspot, ShardedQuantumVolume
    from ..topology import ShardedSystem

    try:
        placements = _TOPO_POLICY_PLACEMENTS[numa_policy]
    except KeyError:
        raise ValueError(
            f"unknown numa_policy {numa_policy!r}; "
            f"known: {sorted(_TOPO_POLICY_PLACEMENTS)}"
        ) from None

    res = ExperimentResult(
        "topo_scaling",
        f"Sharded multi-GPU scaling over the NVLink fabric "
        f"(numa_policy={numa_policy})",
    )
    qubits = scaled_qubits(30, scale)

    def apps():
        yield ShardedHotspot(
            scale=scale, iterations=4, placement=placements["hotspot-sharded"]
        )
        yield ShardedQuantumVolume(
            qubits=qubits, depth=6, placement=placements["qv-sharded"]
        )

    baselines: dict[str, float] = {}
    for n in superchips:
        for app in apps():
            system = ShardedSystem(make_topology_config(n, scale))
            run = app.run(system)
            by_kind: dict[str, int] = {}
            for name, nbytes in run.per_link_bytes.items():
                kind = name.split(":", 1)[0]
                by_kind[kind] = by_kind.get(kind, 0) + nbytes
            baselines.setdefault(app.name, run.total_seconds)
            res.add(
                app=app.name,
                superchips=n,
                placement=run.placement,
                compute_s=round(run.compute_seconds, 6),
                exchange_s=round(run.exchange_seconds, 6),
                total_s=round(run.total_seconds, 6),
                speedup=round(speedup(baselines[app.name], run.total_seconds), 3),
                exchange_gb=round(run.exchange_bytes / 1e9, 3),
                hop_gb=round(run.hop_bytes / 1e9, 3),
                nvlink_gb=round(by_kind.get("nvlink", 0) / 1e9, 3),
                socket_gb=round(by_kind.get("socket", 0) / 1e9, 3),
                c2c_gb=round(by_kind.get("c2c", 0) / 1e9, 3),
            )
    res.notes.append(
        "Beyond-paper extrapolation: the paper's testbed is one superchip; "
        "fabric link constants follow quad-GH200 node reports, not a "
        "calibration against hardware. Speedups are relative to the first "
        "superchip count in the sweep."
    )
    res.notes.append(
        "Expected shape: near-linear scaling for the halo-exchange stencil "
        "(exchange volume is O(boundary)); flattened, fabric-bound scaling "
        "for the distributed statevector (exchange volume is O(state))."
    )
    return res
