"""Unit tests for lockstep sharded execution and fabric exchanges."""

import pytest

from repro.interconnect import LinkKind
from repro.sim.config import MemKind, NodeId, SystemConfig
from repro.topology import ShardedSystem
from tests.helpers.placement import assert_overflowing_touch_leaves_no_trace
from tests.helpers.timeline import exchange_bytes


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 1024, page_size=65536)


@pytest.fixture
def duo(cfg):
    return ShardedSystem(cfg, n_superchips=2)


class TestLockstep:
    def test_shards_are_independent_systems(self, duo):
        assert duo.n_superchips == 2
        assert duo[0].gpu.chip == 0 and duo[1].gpu.chip == 1
        assert duo[0].mem is not duo[1].mem
        assert duo[0].config is not duo[1].config

    def test_barrier_aligns_clocks_to_the_slowest(self, duo):
        duo[0].clock.advance(1e-3, activity="work")
        t = duo.barrier()
        assert t == pytest.approx(1e-3)
        assert duo[0].now == duo[1].now == pytest.approx(duo.now)

    def test_step_runs_on_every_shard_between_barriers(self, duo):
        def work(chip, gh):
            gh.clock.advance(1e-4 * (chip + 1), activity="work")
            return chip

        assert duo.step(work) == [0, 1]
        # The step lasts as long as the slowest shard.
        assert duo[0].now == duo[1].now == pytest.approx(duo.now)

    def test_exchange_advances_all_clocks_and_counts_senders(self, duo):
        hbm0, hbm1 = NodeId(0, MemKind.HBM), NodeId(1, MemKind.HBM)
        before = duo.now
        out = duo.exchange([(1 << 20, hbm0, hbm1), (1 << 20, hbm1, hbm0)])
        assert out.seconds > 0
        assert duo[0].now == duo[1].now == pytest.approx(before + out.seconds)
        assert duo[0].counters.total.fabric_bytes == 1 << 20
        assert duo[1].counters.total.fabric_bytes == 1 << 20
        assert duo.aggregate_counters().fabric_transfers == 2

    def test_empty_exchange_is_free(self, duo):
        before = duo.now
        out = duo.exchange([])
        assert out.seconds == 0.0 and out.n_transfers == 0
        assert duo.now == before


    def test_multi_hop_exchange_charges_each_link_in_its_direction(self, cfg):
        duo = ShardedSystem(cfg.copy(timeline=True), n_superchips=2)
        ddr0, hbm0 = NodeId(0, MemKind.DDR), NodeId(0, MemKind.HBM)
        hbm1 = NodeId(1, MemKind.HBM)
        there, back = 3 << 20, 1 << 20
        out = duo.exchange([(there, ddr0, hbm1), (back, hbm1, ddr0)])
        assert out.hop_bytes == 2 * (there + back)
        # chip 0's DDR reaches chip 1's HBM over its C2C link, then the
        # GPU-GPU NVLink; both links run a->b on the way there.
        (c2c, c2c_fwd), (nvl, nvl_fwd) = duo.router.route(ddr0, hbm1).hops
        assert (c2c.kind, c2c.a, c2c.b, c2c_fwd) == (LinkKind.C2C, ddr0, hbm0, True)
        assert (nvl.kind, nvl.a, nvl.b, nvl_fwd) == (LinkKind.NVLINK, hbm0, hbm1, True)
        # No other link carries a byte.
        assert exchange_bytes(duo.timeline) == {
            (link.name, fwd): nbytes
            for link in (c2c, nvl)
            for fwd, nbytes in ((True, there), (False, back))
        }
        assert out.per_link_bytes == {c2c.name: there + back, nvl.name: there + back}
        assert duo.aggregate_counters().fabric_hop_bytes == out.hop_bytes


class TestShardMemory:
    def test_cpu_touch_past_shard_ddr_raises_and_leaves_no_trace(self, cfg):
        # A shard's pages live on its own chip: overflowing its LPDDR
        # fails as on a single superchip, and no peer pool is touched.
        duo = ShardedSystem(cfg.copy(sanitize=True), n_superchips=2)
        peer = duo[1].mem.physical
        peer_used = (peer.cpu.used, peer.gpu.used)
        assert_overflowing_touch_leaves_no_trace(duo[0])
        assert (peer.cpu.used, peer.gpu.used) == peer_used
        assert duo.aggregate_counters().fabric_bytes == 0
