"""Unit tests for the microbenchmarks and pattern generators."""

import numpy as np
import pytest

from repro.bench.experiments import run_experiment
from repro.bench.harness import make_config
from repro.core.runtime import GraceHopperSystem
from repro.mem.physical import OutOfMemoryError
from repro.sim.config import MiB, Processor, SystemConfig
from repro.workloads.commscope import (
    DEFAULT_SIZES,
    asymptotic_bandwidth,
    run_commscope,
)
from repro.workloads.patterns import (
    irregular_gather,
    mixed_pattern,
    regular_sweep,
    regular_window,
    strided_sweep,
)
from repro.workloads.stream import STREAM_KERNELS, best_bandwidth, run_stream


@pytest.fixture
def gh():
    return GraceHopperSystem(SystemConfig.scaled(1 / 64, page_size=65536))


class TestStream:
    def test_runs_all_four_kernels(self, gh):
        results = run_stream(gh, Processor.GPU, n_elements=1 << 18)
        assert [r.kernel for r in results] == [k[0] for k in STREAM_KERNELS]

    def test_gpu_bandwidth_near_hbm(self, gh):
        results = run_stream(gh, Processor.GPU, n_elements=1 << 22)
        best = best_bandwidth(results)
        assert 0.7 * gh.config.hbm_bandwidth < best.bandwidth <= (
            gh.config.hbm_bandwidth
        )
        assert best.efficiency < 1.0

    def test_cpu_bandwidth_near_lpddr(self, gh):
        results = run_stream(gh, Processor.CPU, n_elements=1 << 22)
        best = best_bandwidth(results)
        assert best.bandwidth == pytest.approx(
            gh.config.cpu_memory_bandwidth, rel=0.05
        )

    def test_arrays_are_freed(self, gh):
        rss0 = gh.mem.process_rss_bytes()
        run_stream(gh, Processor.CPU, n_elements=1 << 18)
        assert gh.mem.process_rss_bytes() == rss0


class TestCommScope:
    def test_sweep_directions(self, gh):
        results = run_commscope(gh, sizes=[1 * MiB, 16 * MiB])
        assert {r.direction for r in results} == {"h2d", "d2h"}
        assert len(results) == 4

    def test_asymptotic_bandwidths_are_asymmetric(self, gh):
        results = run_commscope(gh, sizes=[1 * MiB, 64 * MiB])
        h2d = asymptotic_bandwidth(results, "h2d")
        d2h = asymptotic_bandwidth(results, "d2h")
        assert h2d > d2h
        assert h2d <= gh.config.c2c_h2d_bandwidth

    def test_small_transfers_get_lower_bandwidth(self, gh):
        results = run_commscope(gh, sizes=[1 * MiB, 256 * MiB])
        h2d = [r for r in results if r.direction == "h2d"]
        assert h2d[0].bandwidth < h2d[1].bandwidth

    def test_unknown_direction_rejected(self, gh):
        results = run_commscope(gh, sizes=[1 * MiB])
        with pytest.raises(ValueError):
            asymptotic_bandwidth(results, "loopback")

    @pytest.mark.parametrize(
        "mem_arch, largest",
        # At 1/128 the split device pool holds 768 MiB, less than the
        # 1 GiB transfer; upm's unified pool holds 4.5 GiB.
        [("gh200", 256 * MiB), ("svm", 256 * MiB), ("upm", 1024 * MiB)],
    )
    def test_sec21_below_golden_scale_uses_the_largest_size_that_fits(
        self, mem_arch, largest
    ):
        gh = GraceHopperSystem(make_config(1 / 128, mem_arch=mem_arch))
        pools = (gh.mem.physical.cpu, gh.mem.physical.gpu)
        used = [pool.used for pool in pools]
        ran = {r.nbytes for r in run_commscope(gh)}
        assert ran == {n for n in DEFAULT_SIZES if n <= largest}
        # The host buffer of the size that did not fit is freed too.
        assert [pool.used for pool in pools] == used
        res = run_experiment("sec21", scale=1 / 128, mem_arch=mem_arch)
        assert len(res.rows) == 4
        assert all(row["measured_gb_s"] > 0 for row in res.rows)

    def test_explicit_sizes_that_do_not_fit_raise(self, gh):
        with pytest.raises(OutOfMemoryError):
            run_commscope(gh, sizes=[1 * MiB, 4096 * MiB])


class TestPatterns:
    def test_regular_sweep_covers_all_pages(self, gh):
        arr = gh.malloc(np.float32, (1 << 20,))
        acc = regular_sweep(arr)
        assert acc.pages.covers_all(arr.n_pages)
        assert not acc.write
        assert regular_sweep(arr, write=True).write

    def test_regular_window_rows(self, gh):
        arr = gh.malloc(np.float32, (1024, 1024))
        acc = regular_window(arr, 0, 16)
        assert acc.pages.count == arr.pages_of_rows(0, 16).count

    def test_irregular_gather_is_sparse(self, gh):
        rng = np.random.default_rng(1)
        arr = gh.malloc(np.float64, (1 << 22,))
        acc = irregular_gather(arr, 1000, rng=rng)
        assert acc.shape.density < 0.5
        assert 0 < acc.pages.count <= 1000

    def test_irregular_gather_validates(self, gh):
        arr = gh.malloc(np.float64, (64,))
        with pytest.raises(ValueError):
            irregular_gather(arr, 0, rng=np.random.default_rng(0))

    def test_mixed_pattern(self, gh):
        rng = np.random.default_rng(2)
        dense = gh.malloc(np.float32, (1 << 18,))
        sparse = gh.malloc(np.float32, (1 << 20,))
        accs = mixed_pattern(dense, sparse, 512, rng=rng)
        assert len(accs) == 2
        assert accs[0].shape.density == 1.0
        assert accs[1].shape.density < 1.0

    def test_strided_sweep(self, gh):
        arr = gh.malloc(np.float32, (1 << 20,))
        acc = strided_sweep(arr, 4)
        assert acc.pages.indices().tolist() == list(range(0, arr.n_pages, 4))
        with pytest.raises(ValueError):
            strided_sweep(arr, 0)
