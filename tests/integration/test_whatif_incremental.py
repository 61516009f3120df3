"""Integration: incremental what-if re-simulation is exact and the
serve tier surfaces its checkpoint reuse.

The exactness contract: for any trace, config, and intervention set,
``incremental_replay`` restoring an epoch checkpoint and replaying only
the suffix produces a final system state whose fingerprint is identical
to a from-scratch replay of the same inputs.
"""

import asyncio
import multiprocessing

import numpy as np
import pytest

from repro.core.kernels import ArrayAccess
from repro.core.runtime import GraceHopperSystem
from repro.profiling.trace import TraceRecorder, replay
from repro.sim.checkpoint import CheckpointStore, SystemCheckpoint
from repro.sim.config import SystemConfig
from repro.sim.whatif import (
    WHATIF_RUNNER,
    Intervention,
    checkpoint_keys,
    incremental_replay,
)

SCALE = 1 / 512
PAGE = 64 * 1024


def make_config() -> SystemConfig:
    return SystemConfig.scaled(SCALE, page_size=PAGE, migration_enable=True)


@pytest.fixture(scope="module")
def trace():
    gh = GraceHopperSystem(make_config())
    with TraceRecorder(gh.mem) as rec:
        a = gh.malloc(np.float32, (1 << 19,), name="w.in")
        b = gh.malloc(np.float32, (1 << 19,), name="w.out")
        gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(b)])
        for it in range(6):
            gh.launch_kernel(
                f"s{it}", [ArrayAccess.read(a), ArrayAccess.write_(b)],
                flops=1e8,
            )
    return rec.trace


class TestExactness:
    def test_cold_incremental_matches_classic_replay(self, trace):
        gh = GraceHopperSystem(make_config())
        classic = replay(trace, gh, epoch_every=2)
        classic_fp = SystemCheckpoint.capture(gh).fingerprint()
        inc = incremental_replay(trace, make_config(), epoch_every=2)
        assert inc["state_fingerprint"] == classic_fp
        assert inc["replay_seconds"] == classic["replay_seconds"]
        assert inc["pages_migrated_h2d"] == classic["pages_migrated_h2d"]
        assert inc["resumed_epoch"] == 0

    def test_warm_restore_matches_full_replay(self, trace, tmp_path):
        store = CheckpointStore(tmp_path)
        cold = incremental_replay(
            trace, make_config(), epoch_every=2, store=store
        )
        assert cold["resumed_epoch"] == 0
        assert cold["checkpoints"]["stored"] > 0
        warm = incremental_replay(
            trace, make_config(), epoch_every=2, store=CheckpointStore(tmp_path)
        )
        assert warm["resumed_epoch"] == warm["epochs"]
        assert warm["batches_replayed"] < warm["batches"]
        assert warm["state_fingerprint"] == cold["state_fingerprint"]

    @pytest.mark.parametrize("epoch", [1, 2, 3])
    def test_divergent_config_replays_only_the_suffix(
        self, trace, tmp_path, epoch
    ):
        store = CheckpointStore(tmp_path)
        incremental_replay(trace, make_config(), epoch_every=2, store=store)
        iv = [
            {
                "epoch": epoch,
                "action": "set_migration_enable",
                "params": {"value": False},
            }
        ]
        inc = incremental_replay(
            trace, make_config(), epoch_every=2,
            store=CheckpointStore(tmp_path), interventions=iv,
        )
        # Shares the prefix up to (exclusive) the divergence epoch.
        assert inc["resumed_epoch"] == epoch
        assert inc["batches_replayed"] < inc["batches"]
        full = incremental_replay(
            trace, make_config(), epoch_every=2, interventions=iv
        )
        assert inc["state_fingerprint"] == full["state_fingerprint"]

    def test_interventions_change_the_outcome(self, trace):
        base = incremental_replay(trace, make_config(), epoch_every=2)
        off = incremental_replay(
            trace, make_config(), epoch_every=2,
            interventions=[(1, "set_migration_enable", {"value": False})],
        )
        assert off["pages_migrated_h2d"] < base["pages_migrated_h2d"]
        assert off["state_fingerprint"] != base["state_fingerprint"]

    def test_checkpoint_keys_share_prefix_only(self, trace):
        cfg = make_config()
        base = checkpoint_keys(trace, cfg, epoch_every=2)
        diverged = checkpoint_keys(
            trace, cfg, epoch_every=2,
            interventions=[(2, "set_migration_enable", {"value": False})],
        )
        assert set(base) == set(diverged)
        assert all(base[e] == diverged[e] for e in base if e <= 2)
        assert all(base[e] != diverged[e] for e in base if e > 2)

    def test_intervention_coercion_rejects_unknown_actions(self):
        with pytest.raises(ValueError, match="unknown intervention"):
            Intervention.coerce((1, "overclock", {}))


class TestCheckpointSize:
    def test_spill_does_not_grow_with_replay_position(self, tmp_path):
        """A checkpoint holds the system's state, not the replay's
        history, so a late epoch spills no more than an early one.
        Counter migration is off: per-page access counters materialise
        only while a migration is pending, which would change the state
        itself over the first epochs."""
        config = SystemConfig.scaled(
            SCALE, page_size=PAGE, migration_enable=False
        )
        gh = GraceHopperSystem(config)
        with TraceRecorder(gh.mem) as rec:
            a = gh.malloc(np.float32, (1 << 19,), name="w.in")
            b = gh.malloc(np.float32, (1 << 19,), name="w.out")
            gh.cpu_phase("init", [ArrayAccess.write_(a), ArrayAccess.write_(b)])
            for it in range(60):
                gh.launch_kernel(
                    f"s{it}", [ArrayAccess.read(a), ArrayAccess.write_(b)],
                    flops=1e8,
                )
        incremental_replay(
            rec.trace, config, epoch_every=1, store=CheckpointStore(tmp_path)
        )
        sizes = [p.stat().st_size for p in tmp_path.glob("*.ckpt")]
        assert len(sizes) == 120
        assert max(sizes) <= 1.1 * min(sizes)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker tests rely on fork",
)
class TestServeIntegration:
    def test_sweep_reuses_checkpoints_across_workers(self, trace, tmp_path):
        from repro.bench.runner import ResultCache
        from repro.serve import ServiceConfig, SimulationService

        trace_path = tmp_path / "trace.jsonl"
        trace.save(trace_path)
        base_kwargs = {
            "trace_path": str(trace_path),
            "scale": SCALE,
            "page_size": PAGE,
            "epoch_every": 2,
            "checkpoint_root": str(tmp_path / "ckpts"),
        }

        async def run():
            config = ServiceConfig(
                workers=2,
                capacity=8,
                runner_spec=WHATIF_RUNNER,
                cache=ResultCache(tmp_path / "results"),
                metrics_interval=0.0,
            )
            async with SimulationService(config) as service:
                baseline = await service.submit("whatif", base_kwargs).result()
                divergent = await service.submit(
                    "whatif",
                    dict(
                        base_kwargs,
                        interventions=[
                            {
                                "epoch": 2,
                                "action": "set_migration_enable",
                                "params": {"value": False},
                            }
                        ],
                    ),
                ).result()
                return baseline, divergent, service.metrics_snapshot()

        baseline, divergent, snap = asyncio.run(run())
        assert baseline.rows[0]["resumed_epoch"] == 0
        row = divergent.rows[0]
        assert row["resumed_epoch"] == 2
        assert row["batches_replayed"] < row["batches"]
        # Checkpoint reuse is visible in the service metrics...
        assert snap["checkpoint"]["hits"] >= 1
        assert snap["checkpoint"]["stores"] > 0
        assert snap["checkpoint"]["restored_bytes"] > 0
        # ...and in the shared store's lifetime stats sidecar.
        stats = CheckpointStore(tmp_path / "ckpts").stats()
        assert stats["entries"] > 0
        assert stats["lifetime_hits"] >= 1
