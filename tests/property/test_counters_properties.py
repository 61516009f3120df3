"""Property tests: the lazy AccessCounters equal a naive dense model."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.pageset import PageSet
from repro.mem.pagetable import AccessCounters

N_PAGES = 64

ops = st.lists(
    st.one_of(
        # (kind, pageset-spec, amount)
        st.tuples(
            st.just("add_full"), st.just(None), st.integers(1, 500)
        ),
        st.tuples(
            st.just("add_range"),
            st.tuples(st.integers(0, N_PAGES), st.integers(0, N_PAGES)),
            st.integers(1, 500),
        ),
        st.tuples(
            st.just("reset_range"),
            st.tuples(st.integers(0, N_PAGES), st.integers(0, N_PAGES)),
            st.just(0),
        ),
        st.tuples(st.just("reset_full"), st.just(None), st.just(0)),
        st.tuples(
            st.just("add_index"),
            st.lists(st.integers(0, N_PAGES - 1), min_size=1, max_size=N_PAGES),
            st.integers(1, 500),
        ),
        st.tuples(
            st.just("add_runs"),
            st.lists(st.integers(0, N_PAGES), min_size=2, max_size=12, unique=True),
            st.integers(1, 500),
        ),
        # A query between updates, with its own threshold: it can tighten
        # the counters' peak bound, which later updates must keep sound.
        st.tuples(
            st.just("crossed_range"),
            st.tuples(st.integers(0, N_PAGES), st.integers(0, N_PAGES)),
            st.integers(1, 1000),
        ),
        st.tuples(st.just("crossed_full"), st.just(None), st.integers(1, 1000)),
    ),
    max_size=20,
)


def to_pageset(kind, spec):
    """The set an op applies to. ``add_index`` ids become an index set
    whatever their run count (``PageSet.of`` would keep at most 64 pages
    symbolic), so index adds take the index path."""
    if spec is None:
        return PageSet.full(N_PAGES)
    if kind == "add_runs":
        bounds = sorted(spec)
        return PageSet.from_runs(zip(bounds[::2], bounds[1::2]))
    if isinstance(spec, list):
        idx = np.unique(spec)
        return PageSet(int(idx[0]), int(idx[-1]) + 1, idx)
    lo, hi = min(spec), max(spec)
    return PageSet.range(lo, hi)


def assert_crossed(lazy, dense, ps, threshold):
    crossed = lazy.crossed(ps, threshold)
    hot = dense[ps.indices()] >= threshold
    assert set(crossed.indices().tolist()) == set(ps.indices()[hot].tolist())


@given(ops, st.integers(1, 1000))
def test_counters_match_dense_reference(op_list, threshold):
    lazy = AccessCounters(N_PAGES)
    dense = np.zeros(N_PAGES, dtype=np.int64)
    for kind, spec, amount in op_list:
        ps = to_pageset(kind, spec)
        if kind.startswith("add"):
            lazy.add(ps, amount)
            dense[ps.indices()] += amount
        elif kind.startswith("reset"):
            lazy.reset(ps)
            dense[ps.indices()] = 0
        else:
            assert_crossed(lazy, dense, ps, amount)
        if lazy.extra is not None:
            assert lazy.peak >= lazy.extra.max()

    for page in range(0, N_PAGES, 7):
        assert lazy.value(page) == dense[page]

    assert_crossed(lazy, dense, PageSet.full(N_PAGES), threshold)


@given(
    st.lists(st.integers(1, 100), min_size=1, max_size=10),
    st.integers(1, 500),
)
def test_uniform_adds_never_materialise(amounts, threshold):
    c = AccessCounters(N_PAGES)
    for a in amounts:
        c.add(PageSet.full(N_PAGES), a)
    assert c.extra is None
    assert c.base == sum(amounts)
    crossed = c.crossed(PageSet.full(N_PAGES), threshold)
    assert crossed.count in (0, N_PAGES)


class Unread(np.ndarray):
    """A counter array that fails any read."""

    def __getitem__(self, key):
        raise AssertionError("read a counter")


@given(
    st.lists(st.integers(0, N_PAGES), min_size=2, max_size=20, unique=True),
    st.lists(st.integers(1, 500), min_size=10, max_size=10),
)
def test_disjoint_range_adds_keep_the_peak_exact(cuts, amounts):
    """Each symbolic add raises ``peak`` to the largest count it wrote, so
    adds to disjoint ranges (a slab-by-slab sweep) leave it exact, and a
    ``crossed`` below that floor returns without reading a counter."""
    c = AccessCounters(N_PAGES)
    bounds = sorted(cuts)
    for (lo, hi), amount in zip(zip(bounds[::2], bounds[1::2]), amounts):
        c.add(PageSet.range(lo, hi), amount)
    if c.extra is None:
        return
    assert c.peak == c.extra.max()
    c.extra = c.extra.view(Unread)
    assert not c.crossed(PageSet.range(0, N_PAGES - 1), c.peak + 1)
