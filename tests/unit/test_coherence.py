"""Unit tests for the cacheline-grain coherent access model."""

import pytest

from repro.mem.coherence import AccessShape, remote_traffic, wire_bytes
from repro.sim.config import Processor, SystemConfig


class TestAccessShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            AccessShape(useful_bytes=-1)
        with pytest.raises(ValueError):
            AccessShape(useful_bytes=10, density=0.0)
        with pytest.raises(ValueError):
            AccessShape(useful_bytes=10, density=1.5)
        with pytest.raises(ValueError):
            AccessShape(useful_bytes=10, element_bytes=0)


class TestWireBytes:
    def test_dense_moves_exactly_useful(self):
        shape = AccessShape(useful_bytes=4096, density=1.0)
        assert wire_bytes(shape, 128) == 4096

    def test_sparse_amplifies_to_cachelines(self):
        # 8 scattered 8-byte elements: one 128 B line each.
        shape = AccessShape(useful_bytes=64, element_bytes=8, density=0.01)
        assert wire_bytes(shape, 128) > 64

    def test_amplification_capped_by_span(self):
        # Elements scattered over a 4 KB span can never move more than
        # the span's worth of cachelines.
        shape = AccessShape(useful_bytes=2048, element_bytes=8, density=0.5)
        assert wire_bytes(shape, 128) <= 4096 + 128

    def test_cpu_cacheline_smaller_amplification(self):
        shape = AccessShape(useful_bytes=64, element_bytes=8, density=0.01)
        assert wire_bytes(shape, 64) <= wire_bytes(shape, 128)

    def test_zero_useful_bytes(self):
        assert wire_bytes(AccessShape(useful_bytes=0), 128) == 0

    def test_denser_access_moves_fewer_bytes(self):
        sparse = AccessShape(useful_bytes=1024, element_bytes=8, density=0.05)
        dense = AccessShape(useful_bytes=1024, element_bytes=8, density=0.9)
        assert wire_bytes(dense, 128) <= wire_bytes(sparse, 128)


class TestRemoteTraffic:
    def test_remote_traffic_is_wire_bytes_per_page(self):
        cfg = SystemConfig()
        dense = AccessShape(useful_bytes=4096, density=1.0)
        assert remote_traffic(cfg, Processor.GPU, dense, n_pages=10) == 40960
        sparse = AccessShape(useful_bytes=64, element_bytes=8, density=0.01)
        for accessor, line in ((Processor.GPU, 128), (Processor.CPU, 64)):
            assert cfg.cacheline_bytes(accessor) == line
            assert remote_traffic(cfg, accessor, sparse, n_pages=10) == (
                10 * wire_bytes(sparse, line)
            )
