"""Unit tests for :mod:`repro.sim.config`."""

import pytest

from repro.sim.config import (
    GPU_PAGE_SIZE,
    KiB,
    GiB,
    FirstTouchPolicy,
    Processor,
    SystemConfig,
)


class TestValidation:
    def test_default_config_is_valid(self):
        cfg = SystemConfig()
        assert cfg.system_page_size == 4 * KiB
        assert cfg.gpu_page_size == GPU_PAGE_SIZE

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError, match="system_page_size"):
            SystemConfig(system_page_size=8192)

    @pytest.mark.parametrize("gpu_page_size", [0, -GPU_PAGE_SIZE, 6 * KiB])
    def test_gpu_page_size_must_be_a_positive_multiple(self, gpu_page_size):
        with pytest.raises(ValueError, match="gpu_page_size"):
            SystemConfig(gpu_page_size=gpu_page_size)

    def test_accepts_a_gpu_page_of_one_system_page(self):
        cfg = SystemConfig(system_page_size=64 * KiB, gpu_page_size=64 * KiB)
        assert cfg.pages_per_gpu_page == 1

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError, match="hbm_bandwidth"):
            SystemConfig(hbm_bandwidth=0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacities"):
            SystemConfig(gpu_memory_bytes=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SystemConfig(migration_threshold=0)

    def test_copy_revalidates(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError):
            cfg.copy(system_page_size=123)

    def test_copy_does_not_mutate_original(self):
        cfg = SystemConfig()
        cfg2 = cfg.copy(migration_threshold=512)
        assert cfg.migration_threshold == 256
        assert cfg2.migration_threshold == 512


class TestHelpers:
    def test_pages_for_rounds_up(self):
        cfg = SystemConfig(system_page_size=4096)
        assert cfg.pages_for(1) == 1
        assert cfg.pages_for(4096) == 1
        assert cfg.pages_for(4097) == 2

    def test_pages_per_gpu_page(self):
        assert SystemConfig(system_page_size=4096).pages_per_gpu_page == 512
        assert SystemConfig(system_page_size=65536).pages_per_gpu_page == 32

    def test_c2c_bandwidth_is_asymmetric(self):
        cfg = SystemConfig()
        h2d = cfg.c2c_bandwidth(Processor.CPU, Processor.GPU)
        d2h = cfg.c2c_bandwidth(Processor.GPU, Processor.CPU)
        assert h2d == 375e9
        assert d2h == 297e9
        assert h2d > d2h

    def test_c2c_bandwidth_rejects_same_endpoint(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError):
            cfg.c2c_bandwidth(Processor.GPU, Processor.GPU)

    def test_local_bandwidth(self):
        cfg = SystemConfig()
        assert cfg.local_bandwidth(Processor.GPU) == cfg.hbm_bandwidth
        assert cfg.local_bandwidth(Processor.CPU) == cfg.cpu_memory_bandwidth

    def test_cacheline_grain_matches_paper(self):
        cfg = SystemConfig()
        assert cfg.cacheline_bytes(Processor.CPU) == 64
        assert cfg.cacheline_bytes(Processor.GPU) == 128

    def test_managed_remote_eff_interpolates(self):
        lo = SystemConfig(system_page_size=4096).managed_remote_eff()
        hi = SystemConfig(system_page_size=65536).managed_remote_eff()
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(0.40)

    def test_eviction_thrash_factor_grows_with_page_size(self):
        f4 = SystemConfig(system_page_size=4096).eviction_thrash_factor()
        f64 = SystemConfig(system_page_size=65536).eviction_thrash_factor()
        assert 1.0 < f4 < f64


class TestPresets:
    def test_paper_gh200_capacities(self):
        cfg = SystemConfig.paper_gh200()
        assert cfg.cpu_memory_bytes == 480 * GiB
        assert cfg.gpu_memory_bytes == 96 * GiB

    def test_scaled_preserves_oversubscription_ratios(self):
        base = SystemConfig.paper_gh200()
        small = SystemConfig.scaled(1 / 64)
        assert small.gpu_memory_bytes / small.cpu_memory_bytes == pytest.approx(
            base.gpu_memory_bytes / base.cpu_memory_bytes
        )
        # Bandwidths are hardware properties and do not scale.
        assert small.hbm_bandwidth == base.hbm_bandwidth

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SystemConfig.scaled(0)


class TestEnums:
    def test_processor_other(self):
        assert Processor.CPU.other is Processor.GPU
        assert Processor.GPU.other is Processor.CPU

    def test_first_touch_policy_values(self):
        assert FirstTouchPolicy.ACCESSOR.value == "accessor"
