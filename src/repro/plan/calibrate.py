"""Per-workload cost vectors, extracted from single calibration runs.

The planner never simulates in its query path. Instead, each figure
experiment gets **one representative simulator run** whose hardware
counters are distilled into a :class:`CostVector`: how many bytes moved
over each memory tier (HBM, LPDDR, NVLink-C2C by direction), how many
GPU replayable / CPU / managed far faults fired, how much was migrated
and evicted, how the run splits between CPU-side epochs and GPU compute,
and what fraction of the run a what-if checkpoint could skip. The MI300A
and SVM design-space studies (PAPERS.md) observe that exactly these
per-workload vectors compose predictably across configurations — the
structural bet this module encodes.

Vectors are persisted through the existing :class:`ResultCache` via
:func:`repro.bench.runner.run_payload_cached` under ids like
``plan_cal_fig12``, so they inherit the goldens' content-addressed
hygiene: any change to :class:`SystemConfig`, experiment kwargs or the
package version invalidates them automatically, and ``repro-bench cache
invalidate plan_cal_fig12`` drops them by hand.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ..bench.harness import run_app, scaled_qubits
from ..bench.runner import ResultCache, run_payload_cached
from ..core.porting import MemoryMode

#: Cache-entry id prefix for calibration vectors (kept distinct from
#: registry experiment ids; enforced by ``run_payload_cached``).
CAL_PREFIX = "plan_cal_"

#: Bump to invalidate persisted vectors after a schema change.
#: 2: cost vectors are per-(experiment, memory-architecture backend).
COST_VECTOR_SCHEMA = 2


@dataclass(frozen=True)
class CalibrationSpec:
    """The one representative ``run_app`` invocation for an experiment.

    Each figure sweeps several variants; calibration picks the variant
    the figure is *about* (e.g. fig12 = managed 64 KB + prefetch at 34
    qubits) so the vector captures the configuration a capacity plan
    would actually deploy.
    """

    app: str
    mode: MemoryMode
    page_size: int = 64 * 1024
    migration: bool = True
    oversubscription: float | None = None
    #: Unscaled qubit count (qiskit only); scaled via ``scaled_qubits``.
    qubits: int | None = None
    prefetch: bool = False

    def app_kwargs(self, scale: float) -> dict:
        kwargs: dict = {}
        if self.qubits is not None:
            kwargs["qubits"] = scaled_qubits(self.qubits, scale)
        if self.prefetch:
            kwargs["prefetch"] = True
        return kwargs


#: One calibration run per figure experiment. Table/section experiments
#: that aggregate many heterogeneous runs (table1/table2/sec21,
#: topo_scaling) have no single representative configuration and are
#: deliberately absent — ``calibrate`` raises a KeyError listing these.
CALIBRATION_RUNS: dict[str, CalibrationSpec] = {
    "fig3": CalibrationSpec("hotspot", MemoryMode.SYSTEM, migration=False),
    "fig4": CalibrationSpec("hotspot", MemoryMode.MANAGED, migration=False),
    "fig5": CalibrationSpec(
        "qiskit", MemoryMode.MANAGED, migration=False, qubits=33
    ),
    "fig6": CalibrationSpec("srad", MemoryMode.SYSTEM, page_size=4096),
    "fig7": CalibrationSpec("srad", MemoryMode.SYSTEM, migration=True),
    "fig8": CalibrationSpec(
        "qiskit", MemoryMode.SYSTEM, migration=False, qubits=28
    ),
    "fig9": CalibrationSpec(
        "qiskit", MemoryMode.SYSTEM, migration=False, qubits=33
    ),
    "fig10": CalibrationSpec("srad", MemoryMode.MANAGED, migration=True),
    "fig11": CalibrationSpec(
        "hotspot", MemoryMode.SYSTEM, page_size=4096, migration=False,
        oversubscription=1.5,
    ),
    "fig12": CalibrationSpec(
        "qiskit", MemoryMode.MANAGED, migration=False, qubits=34,
        prefetch=True,
    ),
    "fig13": CalibrationSpec(
        "qiskit", MemoryMode.MANAGED, page_size=4096, migration=False,
        qubits=34,
    ),
    "sec512": CalibrationSpec(
        "srad", MemoryMode.SYSTEM, page_size=4096, migration=False
    ),
}


def calibratable_ids() -> list[str]:
    return list(CALIBRATION_RUNS)


@dataclass(frozen=True)
class CostVector:
    """Everything the analytic model needs about one workload.

    Byte counts are aggregated by *physical path*: ``c2c_h2d_bytes`` is
    every byte that crossed NVLink-C2C toward the GPU (remote reads,
    H2D migrations, CPU writes into HBM) and ``c2c_d2h_bytes`` the
    reverse (remote writes, D2H migrations, evictions, CPU reads of
    HBM). The calibration-time bandwidth/cost constants are embedded so
    a persisted vector stays self-contained — predictions decompose the
    measured service time against the *same* constants it was measured
    under, then re-compose against the target configuration.
    """

    schema: int
    exp_id: str
    app: str
    mode: str
    #: Memory-architecture backend the vector was measured under —
    #: vectors are per-(experiment, backend), never interchangeable.
    mem_arch: str
    scale: float
    page_size: int
    migration: bool
    oversubscription: float
    #: Simulated end-to-end run time — the per-request service time.
    service_time_s: float
    #: Host wall-clock of the calibration run (cost of re-calibrating).
    wall_s: float
    #: Kernel epochs and total CPU-side (non-kernel) simulated time.
    epochs: int
    cpu_s: float
    epoch_cpu_s: float
    #: Fraction of the run after the first epoch boundary — what a
    #: what-if checkpoint restore could skip (PR6 suffix replay).
    checkpoint_suffix_fraction: float
    # Traffic by physical path (bytes).
    hbm_bytes: int
    ddr_bytes: int
    c2c_h2d_bytes: int
    c2c_d2h_bytes: int
    fabric_bytes: int
    migrated_bytes: int
    eviction_bytes: int
    # Event counts.
    gpu_faults: int
    far_faults: int
    cpu_faults: int
    pages_migrated: int
    pages_evicted: int
    # Footprint.
    working_set_bytes: int
    gpu_capacity_bytes: int
    # Calibration-time model constants (self-containment).
    hbm_bw: float
    ddr_bw: float
    c2c_h2d_bw: float
    c2c_d2h_bw: float
    gpu_fault_cost: float
    cpu_fault_cost: float
    far_fault_cost: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CostVector":
        if payload.get("schema") != COST_VECTOR_SCHEMA:
            raise ValueError(
                f"cost vector schema {payload.get('schema')!r} != "
                f"{COST_VECTOR_SCHEMA}; re-run 'repro-bench plan calibrate'"
            )
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})

    @property
    def oversubscribed(self) -> bool:
        return self.working_set_bytes > self.gpu_capacity_bytes


def _suffix_fraction(kernel_records, total_s: float) -> float:
    """Fraction of the run after the first kernel-epoch boundary.

    A what-if checkpoint captured at the first epoch boundary lets a
    replay skip everything up to and including the first kernel;
    requests served off such a checkpoint only pay the suffix. Kernel
    timestamps share one absolute simulation clock (which does not
    start at zero for the app window), so the suffix is measured as
    the span between the first and last epoch boundaries. No kernels →
    nothing skippable, the suffix is the entire run (1.0).
    """
    if not kernel_records or total_s <= 0:
        return 1.0
    first_end = min(r.start + r.duration for r in kernel_records)
    last_end = max(r.start + r.duration for r in kernel_records)
    return min(1.0, max(0.0, (last_end - first_end) / total_s))


def measure_cost_vector(
    exp_id: str, scale: float = 1.0, mem_arch: str = "gh200"
) -> dict:
    """Run the calibration simulation for ``exp_id`` and distil the
    counters into a cost-vector payload (JSON-serialisable dict)."""
    try:
        spec = CALIBRATION_RUNS[exp_id]
    except KeyError:
        raise KeyError(
            f"no calibration run for {exp_id!r}; calibratable experiments: "
            f"{', '.join(calibratable_ids())}"
        ) from None
    import time

    t0 = time.perf_counter()
    result, gh = run_app(
        spec.app,
        spec.mode,
        scale=scale,
        page_size=spec.page_size,
        migration=spec.migration,
        oversubscription=spec.oversubscription,
        config_overrides={"mem_arch": mem_arch},
        app_kwargs=spec.app_kwargs(scale),
    )
    wall = time.perf_counter() - t0

    c = result.counters
    cfg = gh.config
    records = gh.counters.kernel_records
    total = result.reported_total
    kernel_s = sum(r.duration for r in records)
    cpu_s = max(0.0, total - kernel_s)
    epochs = len(records)

    from ..apps import get_application

    app = get_application(spec.app, scale=scale, **spec.app_kwargs(scale))
    capacity = max(
        1, cfg.gpu_memory_bytes - cfg.gpu_driver_baseline_bytes
    )
    working_set = app.working_set_bytes()
    oversub = spec.oversubscription or working_set / capacity

    return CostVector(
        schema=COST_VECTOR_SCHEMA,
        exp_id=exp_id,
        app=spec.app,
        mode=spec.mode.value,
        mem_arch=mem_arch,
        scale=scale,
        page_size=spec.page_size,
        migration=spec.migration,
        oversubscription=round(oversub, 4),
        service_time_s=total,
        wall_s=wall,
        epochs=epochs,
        cpu_s=cpu_s,
        epoch_cpu_s=cpu_s / epochs if epochs else cpu_s,
        checkpoint_suffix_fraction=_suffix_fraction(records, total),
        hbm_bytes=c.hbm_read_bytes + c.hbm_write_bytes,
        ddr_bytes=c.lpddr_read_bytes + c.lpddr_write_bytes,
        c2c_h2d_bytes=(
            c.c2c_read_bytes + c.migration_h2d_bytes + c.cpu_remote_write_bytes
        ),
        c2c_d2h_bytes=(
            c.c2c_write_bytes + c.migration_d2h_bytes
            + c.eviction_bytes + c.cpu_remote_read_bytes
        ),
        fabric_bytes=c.fabric_bytes,
        migrated_bytes=c.migration_h2d_bytes + c.migration_d2h_bytes,
        eviction_bytes=c.eviction_bytes,
        gpu_faults=c.gpu_replayable_faults,
        far_faults=c.managed_far_faults,
        cpu_faults=c.cpu_page_faults,
        pages_migrated=c.pages_migrated_h2d + c.pages_migrated_d2h,
        pages_evicted=c.pages_evicted,
        working_set_bytes=working_set,
        gpu_capacity_bytes=capacity,
        hbm_bw=cfg.hbm_bandwidth,
        ddr_bw=cfg.cpu_memory_bandwidth,
        c2c_h2d_bw=cfg.c2c_h2d_bandwidth,
        c2c_d2h_bw=cfg.c2c_d2h_bandwidth,
        gpu_fault_cost=cfg.gpu_replayable_fault_cost,
        cpu_fault_cost=cfg.cpu_fault_cost,
        far_fault_cost=cfg.managed_farfault_cost,
    ).to_dict()


def _cache_kwargs(scale: float, mem_arch: str) -> dict:
    """Cache-entry kwargs: the default backend is omitted so vectors
    calibrated before backends existed keep their keys; every other
    backend gets distinct per-(experiment, backend) entries."""
    kwargs: dict = {"scale": scale}
    if mem_arch != "gh200":
        kwargs["mem_arch"] = mem_arch
    return kwargs


def calibrate(
    exp_id: str,
    *,
    scale: float = 1.0,
    cache: ResultCache | None = None,
    force: bool = False,
    mem_arch: str = "gh200",
) -> CostVector:
    """One cost vector, cached. The simulation only runs on a miss."""
    payload = run_payload_cached(
        CAL_PREFIX + exp_id,
        lambda: measure_cost_vector(exp_id, scale, mem_arch),
        cache=cache,
        force=force,
        title=f"capacity-planner cost vector for {exp_id} ({mem_arch})",
        **_cache_kwargs(scale, mem_arch),
    )
    return CostVector.from_dict(payload)


def load_calibrated(
    exp_id: str, *, scale: float = 1.0, cache: ResultCache,
    mem_arch: str = "gh200",
) -> CostVector | None:
    """Fetch a persisted vector without ever simulating (query path)."""
    hit = cache.get(CAL_PREFIX + exp_id, **_cache_kwargs(scale, mem_arch))
    if hit is None or not hit.rows:
        return None
    return CostVector.from_dict(hit.rows[0])


def calibrate_many(
    exp_ids: list[str],
    *,
    scale: float = 1.0,
    cache: ResultCache | None = None,
    force: bool = False,
    mem_arch: str = "gh200",
) -> dict[str, CostVector]:
    unknown = [e for e in exp_ids if e not in CALIBRATION_RUNS]
    if unknown:
        raise KeyError(
            f"no calibration run for {unknown}; calibratable experiments: "
            f"{', '.join(calibratable_ids())}"
        )
    return {
        exp_id: calibrate(
            exp_id, scale=scale, cache=cache, force=force, mem_arch=mem_arch
        )
        for exp_id in exp_ids
    }

