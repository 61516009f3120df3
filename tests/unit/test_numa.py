"""Unit tests for NUMA topology and placement policies."""

import pytest

from repro.mem.numa import NumaAllocator, NumaNode, NumaPolicy, NumaTopology
from repro.mem.pagetable import Allocation, AllocKind
from repro.mem.physical import OutOfMemoryError, PhysicalMemory
from repro.sim.config import Location, MiB, SystemConfig


@pytest.fixture
def cfg():
    return SystemConfig.scaled(1 / 256, page_size=65536)


@pytest.fixture
def env(cfg):
    phys = PhysicalMemory(cfg)
    return NumaAllocator(cfg, phys), phys


def system_alloc(cfg, nbytes=16 * MiB):
    return Allocation(AllocKind.SYSTEM, nbytes, cfg)


class TestTopology:
    def test_two_nodes(self, cfg):
        topo = NumaTopology(cfg)
        assert topo.nodes() == [NumaNode.CPU_DDR, NumaNode.GPU_HBM]
        assert topo.capacity(NumaNode.CPU_DDR) == cfg.cpu_memory_bytes
        assert topo.capacity(NumaNode.GPU_HBM) == cfg.gpu_memory_bytes

    def test_node_locations(self):
        assert NumaNode.CPU_DDR.location is Location.CPU
        assert NumaNode.GPU_HBM.location is Location.GPU

    def test_cpu_visible_bandwidth_asymmetry(self, cfg):
        topo = NumaTopology(cfg)
        local = topo.cpu_visible_bandwidth(NumaNode.CPU_DDR)
        remote = topo.cpu_visible_bandwidth(NumaNode.GPU_HBM)
        assert local > remote  # HBM reached over C2C from the CPU

    def test_interleaving_helps_when_streams_balance(self, cfg):
        topo = NumaTopology(cfg)
        inter = topo.interleaved_cpu_bandwidth()
        # 2x the slower stream: more than remote-only, and bounded by
        # the sum of both streams.
        assert inter > topo.cpu_visible_bandwidth(NumaNode.GPU_HBM)
        assert inter <= (
            topo.cpu_visible_bandwidth(NumaNode.CPU_DDR)
            + topo.cpu_visible_bandwidth(NumaNode.GPU_HBM)
        )


class TestPlacement:
    def test_default_leaves_unmapped(self, cfg, env):
        numa, _ = env
        a = system_alloc(cfg)
        numa.place(a, NumaPolicy.DEFAULT)
        assert a.pages_at(Location.UNMAPPED) == a.n_pages

    def test_bind_places_all_on_node(self, cfg, env):
        numa, phys = env
        a = system_alloc(cfg)
        numa.place(a, NumaPolicy.BIND, NumaNode.GPU_HBM)
        assert a.is_homogeneous(Location.GPU)
        assert phys.gpu.by_tag[f"sys:{a.aid}"] == a.bytes_at(Location.GPU)

    def test_bind_fails_on_exhaustion(self, cfg, env):
        numa, phys = env
        phys.gpu.reserve(phys.gpu.free, tag="balloon")
        a = system_alloc(cfg)
        with pytest.raises(OutOfMemoryError):
            numa.place(a, NumaPolicy.BIND, NumaNode.GPU_HBM)

    def test_preferred_spills(self, cfg, env):
        numa, phys = env
        phys.gpu.reserve(phys.gpu.free - 4 * MiB, tag="balloon")
        a = system_alloc(cfg, nbytes=16 * MiB)
        numa.place(a, NumaPolicy.PREFERRED, NumaNode.GPU_HBM)
        assert a.pages_at(Location.GPU) == 4 * MiB // cfg.system_page_size
        assert a.pages_at(Location.CPU) == a.n_pages - a.pages_at(Location.GPU)

    @pytest.mark.parametrize(
        "policy, node",
        [
            (NumaPolicy.PREFERRED, NumaNode.CPU_DDR),
            (NumaPolicy.PREFERRED, NumaNode.GPU_HBM),
            (NumaPolicy.INTERLEAVE, NumaNode.CPU_DDR),
        ],
    )
    def test_placement_past_capacity_leaves_no_trace(self, cfg, env, policy, node):
        # The part that fits is reserved before the one that does not:
        # it must be released, not left mapped.
        numa, phys = env
        a = system_alloc(
            cfg, nbytes=phys.cpu.free + phys.gpu.free + 64 * cfg.system_page_size
        )
        used = [phys.cpu.used, phys.gpu.used]
        with pytest.raises(OutOfMemoryError):
            numa.place(a, policy, node)
        assert a.is_homogeneous(Location.UNMAPPED)
        assert [phys.cpu.used, phys.gpu.used] == used
        assert phys.cpu.by_tag.get(a.tag, 0) == phys.gpu.by_tag.get(a.tag, 0) == 0

    def test_interleave_splits_evenly(self, cfg, env):
        numa, _ = env
        a = system_alloc(cfg)
        numa.place(a, NumaPolicy.INTERLEAVE)
        cpu, gpu = a.pages_at(Location.CPU), a.pages_at(Location.GPU)
        assert abs(cpu - gpu) <= 1
        assert cpu + gpu == a.n_pages

    def test_interleave_alternates_pages(self, cfg, env):
        numa, _ = env
        a = system_alloc(cfg, nbytes=8 * 65536)
        numa.place(a, NumaPolicy.INTERLEAVE)
        states = list(a.state[:8])
        assert states == [
            Location.CPU, Location.GPU, Location.CPU, Location.GPU,
            Location.CPU, Location.GPU, Location.CPU, Location.GPU,
        ]

    def test_rejects_managed_allocations(self, cfg, env):
        numa, _ = env
        a = Allocation(AllocKind.MANAGED, 1 * MiB, cfg)
        with pytest.raises(ValueError):
            numa.place(a, NumaPolicy.BIND)

    def test_placement_skips_already_mapped_pages(self, cfg, env):
        from repro.mem.pageset import PageSet

        numa, phys = env
        a = system_alloc(cfg)
        half = PageSet.range(0, a.n_pages // 2)
        a.set_location(half, Location.CPU)
        phys.cpu.reserve(half.count * cfg.system_page_size, f"sys:{a.aid}")
        numa.place(a, NumaPolicy.BIND, NumaNode.GPU_HBM)
        assert a.pages_at(Location.CPU) == a.n_pages // 2
        assert a.pages_at(Location.GPU) == a.n_pages - a.n_pages // 2
