"""Integration: the topo_scaling experiment is deterministic and shaped.

The sweep is a pure function of its kwargs (the simulator has no hidden
randomness), its two sharded workloads scale the way the fabric model
predicts, and the links' routed bytes add up to the fabric hop-bytes
the shards count.
"""

import pytest

from repro.apps.sharded import get_sharded_application
from repro.bench.experiments import run_experiment
from repro.bench.harness import make_topology_config
from repro.topology import ShardedSystem
from tests.helpers.timeline import exchange_bytes

SCALE = 0.05


@pytest.fixture(scope="module")
def result():
    return run_experiment("topo_scaling", scale=SCALE)


class TestDeterminism:
    def test_identical_rows_across_runs(self, result):
        again = run_experiment("topo_scaling", scale=SCALE)
        assert again.rows == result.rows
        assert again.columns == result.columns

    def test_every_superchip_count_reported_per_app(self, result):
        for app in ("hotspot-sharded", "qv-sharded"):
            counts = [r["superchips"] for r in result.rows if r["app"] == app]
            assert counts == [1, 2, 4]


class TestScalingShape:
    def rows_for(self, result, app):
        return {r["superchips"]: r for r in result.rows if r["app"] == app}

    def test_stencil_scales_near_linearly(self, result):
        hot = self.rows_for(result, "hotspot-sharded")
        assert hot[2]["speedup"] > 1.6
        assert hot[4]["speedup"] > hot[2]["speedup"]

    def test_statevector_is_fabric_bound(self, result):
        qv = self.rows_for(result, "qv-sharded")
        assert qv[4]["speedup"] < 2.0
        assert qv[2]["exchange_s"] > qv[2]["compute_s"]
        # O(state) exchange volume does not shrink with more shards.
        assert qv[4]["exchange_gb"] == qv[2]["exchange_gb"]

    def test_single_superchip_has_no_fabric_traffic(self, result):
        for row in result.rows:
            if row["superchips"] == 1:
                assert row["exchange_gb"] == 0.0
                assert row["hop_gb"] == 0.0

    def test_flagged_as_beyond_paper(self, result):
        assert any("Beyond-paper" in note for note in result.notes)


class TestConservation:
    def test_sharded_run_conserves_every_link(self):
        system = ShardedSystem(make_topology_config(2, SCALE, timeline=True))
        app = get_sharded_application("hotspot-sharded", scale=SCALE, iterations=2)
        app.run(system)
        assert system.timeline.dropped == 0
        total = sum(exchange_bytes(system.timeline).values())
        agg = system.aggregate_counters()
        assert total > 0 and agg.fabric_hop_bytes == total
