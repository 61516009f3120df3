"""Property-based tests: PageSet algebra matches Python set semantics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.pageset import PageSet

MAX_PAGE = 512

def _runs_from_bounds(bounds: list[int]) -> PageSet:
    bounds = sorted(set(bounds))
    return PageSet.from_runs(list(zip(bounds[::2], bounds[1::2])))


page_sets = st.one_of(
    st.tuples(
        st.integers(0, MAX_PAGE), st.integers(0, MAX_PAGE)
    ).map(lambda t: PageSet.range(min(t), max(t))),
    st.lists(st.integers(0, MAX_PAGE - 1), max_size=64).map(PageSet.of),
    # Symbolic interval lists built from sorted distinct boundaries.
    st.lists(
        st.integers(0, MAX_PAGE), min_size=2, max_size=16, unique=True
    ).map(_runs_from_bounds),
    # Arithmetic progressions (strided sweeps).
    st.tuples(
        st.integers(0, MAX_PAGE // 2),
        st.integers(0, MAX_PAGE // 2),
        st.integers(1, 17),
    ).map(lambda t: PageSet.of(np.arange(t[0], t[0] + t[1], t[2]))),
)


def as_set(ps: PageSet) -> set[int]:
    return set(int(i) for i in ps.indices())


@given(page_sets, page_sets)
def test_intersect_matches_set_semantics(a, b):
    assert as_set(a.intersect(b)) == as_set(a) & as_set(b)


@given(page_sets, page_sets)
def test_union_matches_set_semantics(a, b):
    assert as_set(a.union(b)) == as_set(a) | as_set(b)


@given(page_sets, page_sets)
def test_difference_matches_set_semantics(a, b):
    assert as_set(a.difference(b)) == as_set(a) - as_set(b)


@given(page_sets)
def test_count_matches_cardinality(a):
    assert a.count == len(as_set(a))


@given(page_sets, st.integers(0, 600))
def test_take_first_is_prefix_of_sorted(a, k):
    taken = a.take_first(k)
    expect = sorted(as_set(a))[:k]
    assert sorted(as_set(taken)) == expect


@given(page_sets, st.integers(1, 64))
def test_align_down_is_superset_covering_same_blocks(a, granule):
    aligned = a.align_down(granule)
    assert as_set(a) <= as_set(aligned)
    assert set(map(int, a.blocks(granule))) == set(map(int, aligned.blocks(granule)))
    # Every aligned page belongs to a block that contains an original page.
    orig_blocks = {p // granule for p in as_set(a)}
    assert all(p // granule in orig_blocks for p in as_set(aligned))


@given(page_sets, st.integers(0, MAX_PAGE))
def test_clip_bounds(a, n):
    clipped = a.clip(n)
    assert all(0 <= p < n for p in as_set(clipped))
    assert as_set(clipped) == {p for p in as_set(a) if p < n}


@given(page_sets)
def test_indices_sorted_unique(a):
    idx = a.indices()
    assert (np.diff(idx) > 0).all() if idx.size > 1 else True


@given(page_sets, st.integers(1, 64))
def test_where_partition(a, seed_mod):
    """where(state, v) over all values partitions the page set."""
    state = np.arange(MAX_PAGE + 1, dtype=np.int8) % 3
    parts = [as_set(a.where(state, v)) for v in range(3)]
    assert set().union(*parts) == as_set(a)
    for i in range(3):
        for j in range(i + 1, 3):
            assert not parts[i] & parts[j]


@given(
    st.integers(0, MAX_PAGE // 2),
    st.integers(0, MAX_PAGE // 2),
    st.integers(1, 17),
)
def test_strided_matches_python_range(start, length, step):
    want = range(start, start + length, step)
    ps = PageSet.of(np.arange(start, start + length, step))
    assert ps.indices().tolist() == list(want)
    assert ps.count == len(want)


@given(page_sets)
def test_of_indices_round_trips(a):
    """Re-symbolising the materialised indices preserves the set."""
    assert as_set(PageSet.of(a.indices())) == as_set(a)


@given(page_sets)
def test_from_mask_round_trips(a):
    mask = np.zeros(MAX_PAGE + 1, dtype=bool)
    idx = a.indices()
    mask[idx] = True
    assert as_set(PageSet.from_mask(mask)) == as_set(a)


@given(page_sets)
def test_select_matches_boolean_indexing(a):
    """select(mask) keeps positions in view order, like fancy indexing."""
    idx = a.indices()
    mask = (idx % 2).astype(bool)
    assert list(a.select(mask).indices()) == list(idx[mask])


@given(page_sets, page_sets)
def test_algebra_results_stay_canonical(a, b):
    """Results of the set algebra keep runs sorted, disjoint, non-adjacent."""
    for r in (a.union(b), a.intersect(b), a.difference(b)):
        if r.runs is not None:
            assert len(r.runs) >= 2
            for (lo, hi), (lo2, _) in zip(r.runs, r.runs[1:]):
                assert lo < hi < lo2  # sorted and with a real gap
            assert r.runs[-1][0] < r.runs[-1][1]
            assert (r.start, r.stop) == (r.runs[0][0], r.runs[-1][1])


# -- the single-boundary-scan mask vectorisation -----------------------------

def _seed_mask_to_bounds(mask: np.ndarray):
    """The seed implementation of ``_mask_to_bounds`` (two ``flatnonzero``
    passes over ``diff``), kept verbatim as the equivalence oracle for
    the single-boundary-scan replacement."""
    if mask.size == 0 or not mask.any():
        return None, None
    m = mask.view(np.int8) if mask.dtype == bool else mask.astype(np.int8)
    d = np.diff(m)
    starts = np.flatnonzero(d == 1).astype(np.int64) + 1
    stops = np.flatnonzero(d == -1).astype(np.int64) + 1
    if m[0]:
        starts = np.concatenate(([0], starts))
    if m[-1]:
        stops = np.concatenate((stops, [m.size]))
    return starts, stops


#: Run-length encoded masks: chunky alternating runs exercise the
#: boundary parity logic (who owns the even flip positions) far better
#: than uniform random bits, which rarely produce long runs.
rle_masks = st.lists(
    st.tuples(st.booleans(), st.integers(1, 24)), max_size=24
).map(
    lambda runs: np.concatenate(
        [np.full(n, v, dtype=bool) for v, n in runs]
    ) if runs else np.zeros(0, dtype=bool)
)

bit_masks = st.lists(st.booleans(), max_size=256).map(
    lambda bits: np.array(bits, dtype=bool)
)


@given(st.one_of(rle_masks, bit_masks))
def test_mask_to_bounds_matches_seed_implementation(mask):
    from repro.mem.pageset import _mask_to_bounds

    new = _mask_to_bounds(mask.copy())
    seed = _seed_mask_to_bounds(mask.copy())
    if seed[0] is None:
        assert new == (None, None)
    else:
        np.testing.assert_array_equal(new[0], seed[0])
        np.testing.assert_array_equal(new[1], seed[1])


@given(st.one_of(rle_masks, bit_masks))
def test_from_mask_matches_flatnonzero(mask):
    assert as_set(PageSet.from_mask(mask)) == set(
        np.flatnonzero(mask).tolist()
    )
