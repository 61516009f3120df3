"""Unit tests for :class:`repro.mem.pageset.PageSet`."""

import numpy as np
import pytest

from repro.mem.pageset import PageSet, pages_of_byte_range


class TestConstruction:
    def test_range(self):
        ps = PageSet.range(2, 10)
        assert ps.is_range
        assert ps.count == 8
        assert list(ps.indices()) == list(range(2, 10))

    def test_empty(self):
        ps = PageSet.empty()
        assert not ps
        assert ps.count == 0

    def test_range_rejects_inverted(self):
        with pytest.raises(ValueError):
            PageSet.range(5, 3)

    def test_range_rejects_negative(self):
        with pytest.raises(ValueError):
            PageSet.range(-1, 3)

    def test_of_deduplicates_and_sorts(self):
        ps = PageSet.of([5, 1, 3, 1, 5])
        assert list(ps.indices()) == [1, 3, 5]

    def test_of_collapses_contiguous_to_range(self):
        ps = PageSet.of([3, 4, 5, 6])
        assert ps.is_range
        assert (ps.start, ps.stop) == (3, 7)

    def test_of_rejects_negative(self):
        with pytest.raises(ValueError):
            PageSet.of([-1, 2])

    def test_full_and_covers_all(self):
        ps = PageSet.full(100)
        assert ps.covers_all(100)
        assert not PageSet.range(0, 99).covers_all(100)


class TestAlgebra:
    def test_intersect_ranges(self):
        a = PageSet.range(0, 10)
        b = PageSet.range(5, 15)
        assert list(a.intersect(b).indices()) == list(range(5, 10))

    def test_intersect_disjoint_is_empty(self):
        assert not PageSet.range(0, 5).intersect(PageSet.range(10, 20))

    def test_intersect_range_with_indices(self):
        a = PageSet.range(0, 10)
        b = PageSet.of([2, 8, 30])
        assert list(a.intersect(b).indices()) == [2, 8]
        assert list(b.intersect(a).indices()) == [2, 8]

    def test_union_overlapping_ranges(self):
        u = PageSet.range(0, 5).union(PageSet.range(3, 9))
        assert u.is_range and (u.start, u.stop) == (0, 9)

    def test_union_disjoint(self):
        u = PageSet.range(0, 2).union(PageSet.range(5, 7))
        assert sorted(u.indices()) == [0, 1, 5, 6]

    def test_union_with_empty(self):
        a = PageSet.range(1, 4)
        assert a.union(PageSet.empty()) is a
        assert PageSet.empty().union(a) is a

    def test_difference_range_middle_split(self):
        d = PageSet.range(0, 10).difference(PageSet.range(3, 6))
        assert sorted(d.indices()) == [0, 1, 2, 6, 7, 8, 9]

    def test_difference_prefix_suffix(self):
        a = PageSet.range(0, 10)
        assert list(a.difference(PageSet.range(0, 4)).indices()) == [4, 5, 6, 7, 8, 9]
        assert list(a.difference(PageSet.range(6, 12)).indices()) == [0, 1, 2, 3, 4, 5]

    def test_difference_total(self):
        assert not PageSet.range(2, 5).difference(PageSet.range(0, 10))

    def test_take_first(self):
        assert PageSet.range(5, 10).take_first(2).count == 2
        assert list(PageSet.of([1, 9, 20]).take_first(2).indices()) == [1, 9]
        assert not PageSet.range(0, 3).take_first(0)

    def test_take_first_more_than_available(self):
        ps = PageSet.range(0, 3)
        assert ps.take_first(100) is ps


class TestStateOps:
    def test_view_of_range_is_writable_slice(self):
        state = np.zeros(10, dtype=np.int8)
        PageSet.range(2, 5).view(state)[:] = 7
        assert list(state) == [0, 0, 7, 7, 7, 0, 0, 0, 0, 0]

    def test_assign_indices(self):
        state = np.zeros(10, dtype=np.int8)
        PageSet.of([1, 8]).assign(state, 3)
        assert state[1] == 3 and state[8] == 3 and state.sum() == 6

    def test_add_at(self):
        state = np.zeros(6, dtype=np.int64)
        PageSet.of([0, 5]).add_at(state, 10)
        PageSet.range(0, 6).add_at(state, 1)
        assert list(state) == [11, 1, 1, 1, 1, 11]

    def test_where(self):
        state = np.array([0, 1, 1, 0, 1], dtype=np.int8)
        hit = PageSet.range(0, 5).where(state, 1)
        assert list(hit.indices()) == [1, 2, 4]

    def test_where_all_match_returns_self(self):
        state = np.ones(4, dtype=np.int8)
        ps = PageSet.range(0, 4)
        assert ps.where(state, 1) is ps


class TestGranularity:
    def test_align_down_range(self):
        ps = PageSet.range(3, 5).align_down(4)
        assert (ps.start, ps.stop) == (0, 8)

    def test_align_down_indices(self):
        ps = PageSet.of([1, 9]).align_down(4)
        assert sorted(ps.indices()) == [0, 1, 2, 3, 8, 9, 10, 11]

    def test_blocks(self):
        assert list(PageSet.range(0, 9).blocks(4)) == [0, 1, 2]
        assert list(PageSet.of([0, 7, 8]).blocks(4)) == [0, 1, 2]

    def test_clip(self):
        assert PageSet.range(0, 100).clip(10).count == 10
        assert list(PageSet.of([2, 50]).clip(10).indices()) == [2]


class TestSymbolicRepresentation:
    """Hot-path ops on multi-million-page sets must stay symbolic: no
    index array may be materialised when the result is a few runs."""

    N = 2 * 1024 * 1024  # two million pages = the paper's 128 GB / 64 KB

    def test_difference_middle_split_is_two_runs(self):
        hole = PageSet.range(0, self.N).difference(
            PageSet.range(1000, self.N - 1000)
        )
        assert hole.index is None
        assert hole.run_count == 2
        assert hole.count == 2000

    def test_union_of_disjoint_ranges_is_two_runs(self):
        u = PageSet.range(0, 1000).union(
            PageSet.range(self.N - 1000, self.N)
        )
        assert u.index is None
        assert u.run_count == 2
        assert u.count == 2000

    def test_chained_algebra_stays_symbolic(self):
        a = PageSet.range(0, self.N)
        holes = PageSet.from_runs(
            [(k * (self.N // 8) + 5, k * (self.N // 8) + 500) for k in range(8)]
        )
        d = a.difference(holes)
        assert d.index is None and d.run_count <= 9
        back = d.union(holes)
        assert back.index is None and back.is_range
        assert back.count == self.N

    def test_align_down_of_runs_stays_symbolic(self):
        ps = PageSet.from_runs([(3, 5), (self.N - 7, self.N - 2)])
        aligned = ps.align_down(16)
        assert aligned.index is None
        assert aligned.run_count == 2

    def test_from_mask_of_chunky_state_stays_symbolic(self):
        state = np.zeros(self.N, dtype=np.int8)
        state[: self.N // 2] = 1
        state[-1000:] = 1
        ps = PageSet.from_mask(state == 1)
        assert ps.index is None
        assert ps.run_count == 2

    def test_many_fragments_fall_back_to_indices(self):
        # Beyond MAX_SYMBOLIC_RUNS the interval list would be slower than
        # an index array; the representation must degrade, not explode.
        frag = PageSet.of(np.arange(0, 4096, 2))
        assert frag.runs is None


class TestByteRanges:
    def test_pages_of_byte_range(self):
        ps = pages_of_byte_range(0, 4096, 4096)
        assert (ps.start, ps.stop) == (0, 1)
        ps = pages_of_byte_range(4095, 4097, 4096)
        assert (ps.start, ps.stop) == (0, 2)

    def test_empty_byte_range(self):
        assert not pages_of_byte_range(100, 100, 4096)
