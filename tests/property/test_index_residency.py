"""Differential property suite: index-set residency queries.

``Allocation.split_counts`` and ``Allocation.subset`` answer an index
set from a known run record with one ``searchsorted`` of the run stops
into its sorted ids. Random run records of 1-64 runs over every
:class:`Location` are queried with random sorted index sets, and every
answer must equal the dense path on the ``int8`` state in counts, set
and representation: before any move, after an index ``set_location``
forgets the record, and once a scan relearns it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.pageset import PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.sim.config import Location, SystemConfig

N_LOC = len(Location)


@st.composite
def run_records(draw):
    """A managed allocation whose state is 1-64 maximal runs, each at a
    location different from the one before it, and its record known."""
    n_runs = draw(st.integers(1, 64))
    lengths = draw(st.lists(st.integers(1, 40), min_size=n_runs, max_size=n_runs))
    locs = [draw(st.integers(0, N_LOC - 1))]
    for step in draw(
        st.lists(st.integers(1, N_LOC - 1), min_size=n_runs - 1, max_size=n_runs - 1)
    ):
        locs.append((locs[-1] + step) % N_LOC)
    stops = np.cumsum(lengths).tolist()
    runs = tuple(zip([0, *stops[:-1]], stops, locs))
    alloc = Allocation(
        AllocKind.MANAGED, stops[-1] * 4096, SystemConfig(system_page_size=4096)
    )
    for lo, hi, loc in runs:
        alloc.set_location(PageSet.range(lo, hi), Location(loc))
    # Building 64 runs passes through 65 (the unmapped tail), which
    # forgets the record; one scan relearns it.
    alloc._learn_runs()
    assert alloc._runs == runs
    return alloc


def index_set(ids) -> PageSet:
    """Sorted unique ``ids`` as an index set, whatever their run count,
    so that every drawn set takes the index path."""
    idx = np.unique(np.asarray(ids, dtype=np.int64))
    return PageSet(int(idx[0]), int(idx[-1]) + 1, idx)


@st.composite
def index_sets(draw, alloc):
    """Ids anywhere, inside one run, or in every run."""
    runs = alloc._runs
    kind = draw(st.sampled_from(["anywhere", "one run", "every run"]))
    if kind == "anywhere":
        ids = draw(st.lists(st.integers(0, alloc.n_pages - 1), min_size=1))
    elif kind == "one run":
        lo, hi, _ = draw(st.sampled_from(runs))
        ids = draw(st.lists(st.integers(lo, hi - 1), min_size=1))
    else:
        ids = [draw(st.integers(lo, hi - 1)) for lo, hi, _ in runs]
        ids += draw(st.lists(st.integers(0, alloc.n_pages - 1)))
    return index_set(ids)


def assert_dense_answers(alloc, ps: PageSet, state_free: bool) -> None:
    """``split_counts`` and ``subset`` of ``ps`` at every location equal
    the dense path on the state array (``np.bincount`` of the gathered
    states, ``PageSet.where``). With ``state_free`` the queries run with
    the state array taken away, so they must not read it."""
    state = alloc.state
    want_counts = np.bincount(state[ps.index], minlength=N_LOC)
    wants = [ps.where(state, loc) for loc in Location]
    if state_free:
        alloc.state = None
    try:
        counts = alloc.split_counts(ps)
        gots = [alloc.subset(ps, loc) for loc in Location]
    finally:
        alloc.state = state
    assert counts.dtype == np.int64
    assert counts.tolist() == want_counts.tolist()
    for loc, got, want in zip(Location, gots, wants):
        assert (got is ps) == (want is ps), loc
        assert (got.start, got.stop, got.runs) == (
            want.start, want.stop, want.runs,
        ), loc
        assert (got.index is None) == (want.index is None), loc
        if want.index is not None:
            assert np.array_equal(got.index, want.index), loc


@settings(deadline=None)
@given(st.data())
def test_index_queries_match_dense_path(data):
    alloc = data.draw(run_records())
    for _ in range(4):
        assert_dense_answers(alloc, data.draw(index_sets(alloc)), state_free=True)


@settings(deadline=None)
@given(st.data())
def test_index_queries_after_an_index_move(data):
    alloc = data.draw(run_records())
    moved = data.draw(index_sets(alloc))
    probes = [data.draw(index_sets(alloc)) for _ in range(3)]
    alloc.set_location(moved, data.draw(st.sampled_from(list(Location))))
    assert alloc._runs is None
    for ps in probes:
        assert_dense_answers(alloc, ps, state_free=False)
    alloc._learn_runs()
    for ps in probes:
        assert_dense_answers(alloc, ps, state_free=bool(alloc._runs))
