"""Unit tests for UnifiedArray element-to-page mapping."""

import tracemalloc

import numpy as np
import pytest

from repro.core.unified_array import UnifiedArray
from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.sim.config import SystemConfig


@pytest.fixture
def cfg():
    return SystemConfig(system_page_size=4096)


def make_array(cfg, dtype=np.float32, shape=(1024, 256), materialize=False):
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    alloc = Allocation(AllocKind.SYSTEM, nbytes, cfg, materialize=materialize)
    return UnifiedArray(alloc, dtype, shape)


class TestConstruction:
    def test_shape_and_sizes(self, cfg):
        arr = make_array(cfg)
        assert arr.size == 1024 * 256
        assert arr.nbytes == 1024 * 256 * 4
        assert arr.n_pages == arr.alloc.n_pages

    def test_rejects_array_bigger_than_allocation(self, cfg):
        alloc = Allocation(AllocKind.SYSTEM, 100, cfg)
        with pytest.raises(ValueError):
            UnifiedArray(alloc, np.float64, (100,))

    def test_np_requires_materialization(self, cfg):
        arr = make_array(cfg)
        assert not arr.materialized
        with pytest.raises(RuntimeError):
            _ = arr.np

    def test_np_view_shape(self, cfg):
        arr = make_array(cfg, materialize=True)
        assert arr.np.shape == (1024, 256)
        arr.np[5, 5] = 3.0
        assert arr.np[5, 5] == 3.0


class TestPageMapping:
    def test_pages_of_elements(self, cfg):
        arr = make_array(cfg)
        # 1024 float32 elements per 4 KB page.
        ps = arr.pages_of_elements(0, 1024)
        assert (ps.start, ps.stop) == (0, 1)
        ps = arr.pages_of_elements(1023, 1025)
        assert (ps.start, ps.stop) == (0, 2)

    def test_pages_of_elements_clips(self, cfg):
        arr = make_array(cfg)
        ps = arr.pages_of_elements(0, 10**9)
        assert ps.stop == arr.n_pages

    def test_pages_of_rows(self, cfg):
        arr = make_array(cfg)  # 256 cols * 4 B = 1 KB per row
        ps = arr.pages_of_rows(0, 4)  # 4 KB = exactly one page
        assert ps.count == 1
        ps = arr.pages_of_rows(4, 12)
        assert (ps.start, ps.stop) == (1, 3)

    def test_pages_of_rows_requires_2d(self, cfg):
        alloc = Allocation(AllocKind.SYSTEM, 4096, cfg)
        arr = UnifiedArray(alloc, np.uint8, (4096,))
        with pytest.raises(ValueError):
            arr.pages_of_rows(0, 1)

    def test_pages_of_indices(self, cfg):
        arr = make_array(cfg)
        ps = arr.pages_of_indices(np.array([0, 1024, 2048]))
        assert list(ps.indices()) == [0, 1, 2]

    def test_pages_of_indices_empty(self, cfg):
        arr = make_array(cfg)
        assert not arr.pages_of_indices(np.array([], dtype=np.int64))

    @pytest.mark.parametrize("page_size", [4096, 65536])
    @pytest.mark.parametrize(
        "dtype",
        [np.uint8, np.int32, np.float32, np.int64, np.float64, np.complex128,
         # 12-byte elements, which straddle pages.
         np.dtype([("a", np.int32), ("b", np.float64)], align=False)],
    )
    def test_pages_of_indices_matches_the_byte_offset_form(self, page_size, dtype):
        arr = make_array(
            SystemConfig(system_page_size=page_size), dtype, (40 * page_size,)
        )
        per_page = page_size / arr.itemsize
        edges = (np.arange(1, arr.n_pages) * per_page).astype(np.int64)
        idx = np.concatenate(
            (edges - 1, edges, [arr.size - 1, arr.size, arr.size + 7 * page_size])
        )
        np.random.default_rng(3).shuffle(idx)
        # The whole gather in three orders, a lone id 0, and each boundary
        # pair alone (a pair whose ids map to one page shows up only here).
        pairs = np.stack((edges - 1, edges), axis=1)
        for ids in (idx, idx[::-1], np.sort(idx), np.array([0]), *pairs):
            got = arr.pages_of_indices(ids)
            want = PageSet.of((ids * arr.itemsize) // page_size)
            assert (got.start, got.stop, got.runs) == (
                want.start, want.stop, want.runs,
            )
            assert (got.index is None) == (want.index is None)
            if got.index is not None:
                assert got.index.dtype == np.int64
                assert np.array_equal(got.index, want.index)

    def test_gather_builds_no_id_sized_array(self):
        """A Gups-shaped gather (2^20 unsorted ids over 1024 pages) maps
        and dedups without an array the size of its ids."""
        arr = make_array(SystemConfig(system_page_size=4096), np.uint64, (1 << 19,))
        ids = np.random.default_rng(5).integers(0, arr.size, size=1 << 20)
        tracemalloc.start()
        try:
            ps = arr.pages_of_indices(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ps.is_range and ps.count == arr.n_pages
        # One chunk buffer plus the one-byte-per-page map.
        assert peak < ids.nbytes / 4

    def test_bytes_per_page_fraction(self, cfg):
        arr = make_array(cfg)
        assert arr.bytes_per_page() == 4096
        assert arr.bytes_per_page(0.25) == 1024
        with pytest.raises(ValueError):
            arr.bytes_per_page(0.0)

    def test_bytes_per_page_floor_is_itemsize(self, cfg):
        arr = make_array(cfg, dtype=np.float64)
        assert arr.bytes_per_page(1e-9) >= arr.itemsize
