"""Unit tests for the multi-superchip topology model and fabric routing."""

import pytest

from repro.interconnect import LinkKind
from repro.sim.config import MemKind, NodeId, SystemConfig
from repro.topology import FabricRouter, Topology


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 1024, page_size=65536)


def node(chip, kind):
    return NodeId(chip, MemKind.DDR if kind == "ddr" else MemKind.HBM)


class TestTopologyModel:
    def test_single_superchip_is_the_paper_testbed(self, cfg):
        topo = Topology.single(cfg)
        assert topo.nodes() == [node(0, "ddr"), node(0, "hbm")]
        assert len(topo.links) == 1
        assert topo.links[0].kind is LinkKind.C2C
        assert topo.links[0].fwd_bandwidth == cfg.c2c_h2d_bandwidth
        assert topo.links[0].rev_bandwidth == cfg.c2c_d2h_bandwidth

    def test_quad_node_inventory(self, cfg):
        topo = Topology.multi(4, cfg)
        assert len(topo.nodes()) == 8
        # 4 C2C links + all-to-all NVLink and socket meshes (6 pairs each).
        kinds = [link.kind for link in topo.links]
        assert kinds.count(LinkKind.C2C) == 4
        assert kinds.count(LinkKind.NVLINK) == 6
        assert kinds.count(LinkKind.SOCKET) == 6

    def test_numa_node_order(self, cfg):
        topo = Topology.multi(2, cfg)
        assert [n.numa_index for n in topo.nodes()] == [0, 1, 2, 3]
        assert [str(n) for n in topo.nodes()] == [
            "chip0/ddr", "chip0/hbm", "chip1/ddr", "chip1/hbm",
        ]

    def test_capacities_per_node(self, cfg):
        topo = Topology.multi(2, cfg)
        assert topo.capacity(node(1, "ddr")) == cfg.cpu_memory_bytes
        assert topo.capacity(node(1, "hbm")) == cfg.gpu_memory_bytes

    def test_fingerprint_stable_and_distinct(self, cfg):
        assert Topology.multi(2, cfg).fingerprint() == Topology.multi(2, cfg).fingerprint()
        assert Topology.multi(2, cfg).fingerprint() != Topology.multi(4, cfg).fingerprint()
        assert Topology.single(cfg).fingerprint() != Topology.multi(2, cfg).fingerprint()

    def test_describe_is_plain_data(self, cfg):
        desc = Topology.multi(2, cfg).describe()
        assert desc["n_superchips"] == 2
        assert len(desc["nodes"]) == 4
        assert all(isinstance(row["node"], str) for row in desc["nodes"])
        assert {row["kind"] for row in desc["links"]} == {"c2c", "nvlink", "socket"}


class TestRouting:
    @pytest.fixture
    def router(self, cfg):
        return FabricRouter(Topology.multi(4, cfg))

    def test_intra_chip_route_is_the_c2c_link(self, router):
        route = router.route(node(0, "ddr"), node(0, "hbm"))
        assert route.n_hops == 1
        assert route.hops[0][0].kind is LinkKind.C2C

    def test_gpu_pair_routes_over_nvlink(self, router):
        route = router.route(node(0, "hbm"), node(2, "hbm"))
        assert route.n_hops == 1
        assert route.hops[0][0].kind is LinkKind.NVLINK

    def test_ddr_to_peer_hbm_prefers_the_nvlink_detour(self, router):
        # Two 2-hop options exist (c2c+nvlink vs socket+c2c); the tie
        # breaks on bottleneck bandwidth, and the socket link loses.
        route = router.route(node(0, "ddr"), node(1, "hbm"))
        assert route.n_hops == 2
        assert [link.kind for link, _ in route.hops] == [
            LinkKind.C2C, LinkKind.NVLINK,
        ]

    def test_self_route_is_empty(self, router):
        route = router.route(node(0, "hbm"), node(0, "hbm"))
        assert route.n_hops == 0 and route.latency == 0.0

    def test_exchange_same_direction_contends(self, cfg):
        nbytes = 64 << 20
        src, dst = node(0, "hbm"), node(1, "hbm")

        router = FabricRouter(Topology.multi(2, cfg))
        same = router.exchange_phase([(nbytes, src, dst), (nbytes, src, dst)])
        router2 = FabricRouter(Topology.multi(2, cfg))
        both = router2.exchange_phase([(nbytes, src, dst), (nbytes, dst, src)])

        # Same-direction transfers serialise on the link; a bidirectional
        # pair overlaps and finishes in about half the time.
        assert same.seconds == pytest.approx(2 * both.seconds, rel=0.05)
        assert same.total_bytes == both.total_bytes == 2 * nbytes
        assert same.hop_bytes == 2 * nbytes  # one hop each
        assert same.bottleneck_link.startswith(("fwd:", "rev:"))

    def test_exchange_charges_and_conserves(self, cfg):
        topo = Topology.multi(2, cfg)
        router = FabricRouter(topo)
        out = router.exchange_phase(
            [(1 << 20, node(0, "hbm"), node(1, "hbm")),
             (1 << 20, node(0, "ddr"), node(1, "ddr")),
             (0, node(0, "hbm"), node(1, "hbm")),          # dropped
             (1 << 20, node(0, "hbm"), node(0, "hbm"))]    # self, dropped
        )
        assert out.n_transfers == 2
        by_kind = {}
        for link in topo.links:
            kind = link.kind.value
            by_kind[kind] = by_kind.get(kind, 0) + (
                link.traffic.fwd_bytes + link.traffic.rev_bytes
            )
        assert by_kind.get("nvlink") == 1 << 20
        assert by_kind.get("socket") == 1 << 20
        assert by_kind.get("c2c", 0) == 0
