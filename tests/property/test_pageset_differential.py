"""Differential property suite: PageSet algebra vs a frozenset oracle.

Random *chains* of symbolic operations are applied to a PageSet and to a
plain ``frozenset[int]`` oracle in lockstep; after every step the two
must agree exactly. Unlike the single-op tests in
``test_pageset_properties.py`` this exercises operator *composition* —
representation transitions (range -> runs -> indices), the
interval-list overflow past :data:`MAX_SYMBOLIC_RUNS`, and the block
algebra (``align_down`` / ``blocks``) the managed-memory model relies
on. The residency helpers built on it (``Allocation.split_counts`` and
``Allocation.touch_blocks``) are checked against the same oracles, chains
of ``Allocation.set_location`` moves against a dense ``int8`` oracle,
``PageSet.of`` against the sort-and-unique construction it replaced, and
``UnifiedArray.pages_of_indices`` against ``PageSet.of`` of the page ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.unified_array import UnifiedArray
from repro.mem import pageset
from repro.mem.pageset import MAP_SPAN_PER_ID, MAX_SYMBOLIC_RUNS, PageSet
from repro.mem.pagetable import Allocation, AllocKind
from repro.sim.config import Location, SystemConfig
from tests.helpers.eviction import assert_touch_record

MAX_PAGE = 1 << 12


# -- oracle ----------------------------------------------------------------


def oracle(ps: PageSet) -> frozenset:
    return frozenset(int(i) for i in ps.indices())


def oracle_align_down(s: frozenset, g: int) -> frozenset:
    return frozenset(
        p for page in s for p in range((page // g) * g, (page // g) * g + g)
    )


def oracle_take_first(s: frozenset, k: int) -> frozenset:
    return frozenset(sorted(s)[:k])


def oracle_blocks(s: frozenset, g: int) -> list:
    return sorted({page // g for page in s})


# -- generators ------------------------------------------------------------


def _runs(bounds):
    bounds = sorted(set(bounds))
    return PageSet.from_runs(list(zip(bounds[::2], bounds[1::2])))


leaf_sets = st.one_of(
    st.just(PageSet.empty()),
    st.tuples(st.integers(0, MAX_PAGE), st.integers(0, MAX_PAGE)).map(
        lambda t: PageSet.range(min(t), max(t))
    ),
    st.lists(st.integers(0, MAX_PAGE - 1), max_size=48).map(PageSet.of),
    st.lists(
        st.integers(0, MAX_PAGE), min_size=2, max_size=24, unique=True
    ).map(_runs),
    st.tuples(
        st.integers(0, MAX_PAGE // 2),
        st.integers(0, MAX_PAGE // 2),
        st.integers(1, 33),
    ).map(lambda t: PageSet.of(np.arange(t[0], t[0] + t[1], t[2]))),
)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("union"), leaf_sets),
        st.tuples(st.just("difference"), leaf_sets),
        st.tuples(st.just("intersect"), leaf_sets),
        st.tuples(st.just("align_down"), st.integers(1, 64)),
        st.tuples(st.just("take_first"), st.integers(0, MAX_PAGE)),
        st.tuples(st.just("clip"), st.integers(0, MAX_PAGE)),
    ),
    max_size=8,
)


@given(leaf_sets, ops)
def test_operation_chains_match_oracle(ps, chain):
    ref = oracle(ps)
    for op, arg in chain:
        if op == "union":
            ps, ref = ps.union(arg), ref | oracle(arg)
        elif op == "difference":
            ps, ref = ps.difference(arg), ref - oracle(arg)
        elif op == "intersect":
            ps, ref = ps.intersect(arg), ref & oracle(arg)
        elif op == "align_down":
            ps, ref = ps.align_down(arg), oracle_align_down(ref, arg)
        elif op == "take_first":
            ps, ref = ps.take_first(arg), oracle_take_first(ref, arg)
        elif op == "clip":
            ps, ref = ps.clip(arg), frozenset(p for p in ref if p < arg)
        assert oracle(ps) == ref, f"after {op}({arg})"
        assert ps.count == len(ref)


@given(leaf_sets, st.integers(1, 64))
def test_blocks_matches_oracle(ps, g):
    assert list(ps.blocks(g)) == oracle_blocks(oracle(ps), g)


@given(leaf_sets, st.integers(1, 64))
def test_align_down_covers_whole_blocks(ps, g):
    aligned = oracle(ps.align_down(g))
    assert aligned == oracle_align_down(oracle(ps), g)
    assert len(aligned) % g == 0


# -- interval-list overflow past MAX_SYMBOLIC_RUNS -------------------------


@settings(max_examples=25)
@given(
    st.integers(MAX_SYMBOLIC_RUNS + 1, 3 * MAX_SYMBOLIC_RUNS),
    st.integers(1, 4),
    st.integers(2, 6),
)
def test_run_count_overflow_preserves_semantics(n_runs, width, gap):
    """More disjoint runs than the symbolic cap must still behave
    identically to the oracle, whatever representation results."""
    stride = width + gap
    bounds = [(i * stride, i * stride + width) for i in range(n_runs)]
    ps = PageSet.from_runs(bounds)
    ref = frozenset(
        p for lo, hi in bounds for p in range(lo, hi)
    )
    assert oracle(ps) == ref
    assert ps.count == n_runs * width
    # Algebra still matches after overflow.
    probe = PageSet.of(np.arange(0, n_runs * stride, 2))
    assert oracle(ps.difference(probe)) == ref - oracle(probe)
    assert oracle(ps.union(probe)) == ref | oracle(probe)
    assert oracle(ps.align_down(8)) == oracle_align_down(ref, 8)


def test_overflowed_union_degrades_without_data_loss():
    """Unioning many scattered singletons crosses the symbolic-run cap;
    page membership must survive the representation change exactly."""
    ps = PageSet.empty()
    ref = frozenset()
    rng = np.random.default_rng(1234)
    for lo in sorted(rng.choice(MAX_PAGE, size=4 * MAX_SYMBOLIC_RUNS,
                                replace=False).tolist()):
        ps = ps.union(PageSet.range(lo, lo + 1))
        ref = ref | {lo}
    assert oracle(ps) == ref
    assert ps.count == len(ref)


# -- residency helpers over every representation ---------------------------


def _spaced_runs(t):
    n_runs, width, gap, offset = t
    stride = width + gap
    return PageSet.from_runs(
        [(offset + i * stride, offset + i * stride + width) for i in range(n_runs)]
    )


#: Sets past the symbolic-run cap: spaced runs and scattered pages, both
#: stored as index arrays.
overflow_sets = st.one_of(
    st.tuples(
        st.integers(MAX_SYMBOLIC_RUNS + 1, 2 * MAX_SYMBOLIC_RUNS),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(0, 64),
    ).map(_spaced_runs),
    st.lists(
        st.integers(0, MAX_PAGE - 1), min_size=3 * MAX_SYMBOLIC_RUNS,
        max_size=6 * MAX_SYMBOLIC_RUNS,
    ).map(PageSet.of),
)
#: Page numbers on or next to a 2 MB block edge (32 or 512 pages),
#: where off-by-one block arithmetic shows.
block_edges = st.builds(
    lambda g, k, d: min(max(g * k + d, 0), MAX_PAGE),
    st.sampled_from([32, 512]),
    st.integers(0, MAX_PAGE // 32),
    st.integers(-1, 1),
)
edge_sets = st.one_of(
    st.tuples(block_edges, block_edges).map(
        lambda t: PageSet.range(min(t), max(t))
    ),
    st.lists(block_edges, min_size=2, max_size=12, unique=True).map(_runs),
    st.tuples(
        block_edges,
        st.integers(0, MAX_PAGE // 2),
        st.sampled_from([2, 31, 32, 33, 511, 512, 513]),
    ).map(lambda t: PageSet.of(np.arange(t[0], t[0] + t[1], t[2]))),
)
residency_sets = st.one_of(leaf_sets, overflow_sets, edge_sets)


@st.composite
def residency(draw):
    """A managed allocation of ``MAX_PAGE`` pages whose int8 ``state`` is
    set through ``set_location``, so the incremental tallies stay
    consistent. Either a few runs (at most four, cut anywhere or on a
    block edge), or fragmented and holding every :class:`Location`."""
    page_size = draw(st.sampled_from([4096, 65536]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cuts = draw(
            st.lists(
                st.one_of(st.integers(1, MAX_PAGE - 1), block_edges),
                max_size=3, unique=True,
            )
        )
        bounds = [0, *sorted(c for c in cuts if 0 < c < MAX_PAGE), MAX_PAGE]
        values = rng.integers(0, len(Location), len(bounds) - 1)
        state = np.repeat(values, np.diff(bounds)).astype(np.int8)
    else:
        chunk = draw(st.sampled_from([1, 7, 300]))
        values = rng.integers(0, len(Location), -(-MAX_PAGE // chunk))
        state = np.repeat(values, chunk)[:MAX_PAGE].astype(np.int8)
        state[rng.choice(MAX_PAGE, len(Location), replace=False)] = np.arange(
            len(Location)
        )
    alloc = Allocation(
        AllocKind.MANAGED, MAX_PAGE * page_size,
        SystemConfig(system_page_size=page_size),
    )
    for loc in list(Location)[1:]:
        alloc.set_location(PageSet.from_mask(state == loc), loc)
    assert np.array_equal(alloc.state, state)
    return alloc


@given(residency(), residency_sets)
def test_split_counts_match_bincount(alloc, ps):
    ps = ps.clip(alloc.n_pages)
    want = np.bincount(alloc.state[ps.indices()], minlength=len(Location))
    got = alloc.split_counts(ps)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


@given(residency(), residency_sets)
def test_touch_blocks_writes_exactly_the_touched_blocks(alloc, ps):
    ps = ps.clip(alloc.n_pages)
    alloc.touch_blocks(PageSet.full(alloc.n_pages), -1.0)
    alloc.touch_blocks(ps, 5.0)
    touched = np.flatnonzero(alloc.block_last_touch == 5.0).tolist()
    assert touched == oracle_blocks(oracle(ps), alloc.block_pages)
    assert np.count_nonzero(alloc.block_last_touch == -1.0) == (
        alloc.n_blocks - len(touched)
    )
    assert_touch_record(alloc)


# -- the residency run record against a dense int8 oracle ------------------


def maximal_runs(state: np.ndarray) -> tuple:
    """``(start, stop, location)`` of every maximal run of ``state``."""
    edges = (np.flatnonzero(state[1:] != state[:-1]) + 1).tolist()
    starts = [0, *edges]
    return tuple(zip(starts, [*edges, state.size], state[starts].tolist()))


def assert_matches_oracle(alloc, state: np.ndarray, probes) -> None:
    """Every tally and answer of ``alloc`` equals the one the dense
    oracle ``state`` gives, for each probe set and every location."""
    assert np.array_equal(alloc.state, state)
    want = np.bincount(state, minlength=len(Location))
    assert alloc._loc_counts.tolist() == want.tolist()
    gpu = np.flatnonzero(state == Location.GPU) // alloc.block_pages
    want = np.bincount(gpu, minlength=alloc.n_blocks)
    assert alloc._gpu_block_counts.tolist() == want.tolist()
    for ps in probes:
        ps = ps.clip(alloc.n_pages)
        want = np.bincount(state[ps.indices()], minlength=len(Location))
        assert alloc.split_counts(ps).tolist() == want.tolist()
        for loc in Location:
            got, want = alloc.subset(ps, loc), ps.where(state, loc)
            assert np.array_equal(got.indices(), want.indices())
            if not ps:
                # An empty query may come back as PageSet.empty() or as
                # itself; either is the empty set.
                continue
            assert (got.start, got.stop, got.runs) == (
                want.start, want.stop, want.runs,
            ), (ps, loc)
            if want.index is None:
                assert got.index is None
            else:
                assert np.array_equal(got.index, want.index)
    if alloc._runs:
        assert alloc._runs == maximal_runs(state)
    elif alloc._runs == ():
        assert len(maximal_runs(state)) > MAX_SYMBOLIC_RUNS


#: A chain of moves: the set moved, where it goes, and a set queried after.
move_chains = st.lists(
    st.tuples(residency_sets, st.sampled_from(list(Location)), residency_sets),
    min_size=1,
    max_size=12,
)


@settings(deadline=None)
@given(residency(), move_chains)
def test_move_chains_match_dense_oracle(alloc, chain):
    oracle_state = alloc.state.copy()
    full = PageSet.full(alloc.n_pages)
    for ps, loc, probe in chain:
        ps = ps.clip(alloc.n_pages)
        want = np.bincount(oracle_state[ps.indices()], minlength=len(Location))
        got = alloc.set_location(ps, loc)
        oracle_state[ps.indices()] = loc
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist(), (ps, loc)
        assert_matches_oracle(alloc, oracle_state, [probe, full])


def test_record_past_the_cap_and_back():
    """Single GPU pages spliced into a CPU allocation push the record past
    the cap, where it is forgotten; the next whole query finds the
    residency fragmented with one scan and later queries do not rescan.
    One range move over most of those pages brings it back below the cap,
    and the next whole query relearns it."""
    alloc = Allocation(
        AllocKind.MANAGED, MAX_PAGE * 4096, SystemConfig(system_page_size=4096)
    )
    full = PageSet.full(alloc.n_pages)
    alloc.set_location(full, Location.CPU)
    state = alloc.state.copy()
    scans = []
    learn = alloc._learn_runs
    alloc._learn_runs = lambda: scans.append(1) or learn()
    # Each GPU page adds two runs: 63 runs after 31 pages, 65 after 32.
    for k in range(MAX_SYMBOLIC_RUNS // 2):
        assert len(alloc._runs) == 2 * k + 1
        alloc.set_location(PageSet.range(2 * k + 1, 2 * k + 2), Location.GPU)
        state[2 * k + 1] = Location.GPU
    assert alloc._runs is None
    probes = [full, PageSet.range(0, 3 * MAX_SYMBOLIC_RUNS)]
    assert_matches_oracle(alloc, state, probes)
    assert alloc._runs == () and len(scans) == 1
    assert_matches_oracle(alloc, state, probes)
    assert len(scans) == 1
    # 12 GPU pages stay, at 41, 43, ..., 63: 25 runs.
    alloc.set_location(PageSet.range(0, 40), Location.CPU)
    state[:40] = Location.CPU
    assert alloc._runs is None
    assert_matches_oracle(alloc, state, probes)
    assert len(alloc._runs) == 25 and len(scans) == 2


# -- PageSet.of against the sort-and-unique path it replaced ---------------


def _unique_of(ids) -> PageSet:
    """The previous construction: numpy's unique, then ``_from_sorted``."""
    return PageSet._from_sorted(np.unique(np.asarray(ids, dtype=np.int64)))


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def assert_same_set(got: PageSet, want: PageSet) -> None:
    """Same pages in the same representation."""
    assert (got.start, got.stop, got.runs) == (want.start, want.stop, want.runs)
    if want.index is None:
        assert got.index is None
    else:
        assert got.index.dtype == np.int64
        assert np.array_equal(got.index, want.index)


page_ids = st.lists(st.integers(0, MAX_PAGE - 1), max_size=6 * MAX_SYMBOLIC_RUNS)


def _dense(t) -> np.ndarray:
    """Ids folded into a span no wider than their count, from ``base``,
    with the largest put first so that the input is unsorted."""
    values, base = t
    ids = _int64(values) % len(values) + base
    return np.concatenate(([ids.max()], ids))


#: Unsorted ids whose span is within :data:`MAP_SPAN_PER_ID` times their
#: count, starting anywhere from 1 up to 2^40: the occupancy-map side.
dense_ids = st.tuples(
    page_ids.filter(lambda v: len(v) >= 2), st.integers(1, 1 << 40)
).map(_dense)
#: A few unsorted ids across a span near 2^40: the sort side (a map over
#: that span would need a terabyte).
sparse_ids = st.lists(st.integers(0, 1 << 40), max_size=64).map(
    lambda v: _int64(v + [1 << 40, 3])
)
#: Unsorted, sorted with duplicates, strictly sorted, 2-D, sets past the
#: symbolic-run cap in sorted and shuffled order, dense and sparse
#: unsorted ids, and dense 2-D ids.
id_arrays = st.one_of(
    page_ids.map(_int64),
    page_ids.map(sorted).map(_int64),
    page_ids.map(lambda v: _int64(sorted(set(v)))),
    page_ids.map(lambda v: _int64(v[: len(v) // 2 * 2]).reshape(-1, 2)),
    overflow_sets.map(lambda ps: ps.indices().copy()),
    st.tuples(overflow_sets, st.randoms(use_true_random=False)).map(
        lambda t: _int64(t[1].sample(t[0].indices().tolist(), t[0].count))
    ),
    dense_ids,
    sparse_ids,
    dense_ids.map(lambda a: a[: a.size // 2 * 2].reshape(2, -1)),
)


@given(id_arrays)
def test_of_matches_unique_path_and_oracle(ids):
    got = PageSet.of(ids)
    assert oracle(got) == frozenset(ids.ravel().tolist())
    assert_same_set(got, _unique_of(ids))


@given(id_arrays)
def test_of_does_not_alias_its_input(ids):
    ps = PageSet.of(ids)
    before = oracle(ps)
    ids[...] = MAX_PAGE
    assert oracle(ps) == before


@given(id_arrays, st.integers(-MAX_PAGE, -1), st.booleans())
def test_of_rejects_negative_ids(ids, negative, first):
    """A negative id is refused whether it keeps the input sorted (first)
    or forces the sort (last)."""
    ids = ids.ravel()
    ids = np.concatenate(([negative], ids) if first else (ids, [negative]))
    with pytest.raises(ValueError, match="non-negative"):
        PageSet.of(ids)


@given(dense_ids, st.integers(-MAX_PAGE, -1), st.integers(0, 1 << 20))
def test_of_rejects_a_negative_id_among_dense_ids(ids, negative, at):
    """A negative id inside an unsorted array whose span would otherwise
    take the occupancy map is refused too."""
    ids = np.insert(ids - ids.min(), at % (ids.size + 1), negative)
    with pytest.raises(ValueError, match="non-negative"):
        PageSet.of(ids)


@pytest.mark.parametrize(
    "ids, by_map",
    [
        # A span of exactly MAP_SPAN_PER_ID pages per id: the map.
        (np.array([7, 7 + MAP_SPAN_PER_ID * 3 - 1, 12]), True),
        # One page wider: the sort.
        (np.array([7, 7 + MAP_SPAN_PER_ID * 3, 12]), False),
        # Non-decreasing: the linear dedup, whatever the span.
        (np.array([3, 3, 4, 1 << 40]), False),
        # More ids than one map chunk, unsorted within a 4096-page span.
        (np.arange(1 << 20, 0, -1) % 4096 + 9, True),
        (np.array([1 << 40, 5, 1 << 39, 5]), False),
    ],
)
def test_span_rule_picks_the_map_for_dense_unsorted_ids(monkeypatch, ids, by_map):
    calls = []
    real = pageset.pages_by_map

    def spy(a, itemsize=1, page_size=1):
        got = real(a, itemsize, page_size)
        if got is not None:
            lo, hi = (int(x) * itemsize // page_size for x in (a.min(), a.max()))
            calls.append(hi - lo + 1)
        return got

    monkeypatch.setattr(pageset, "pages_by_map", spy)
    got, want = PageSet.of(ids), _unique_of(ids)
    assert bool(calls) == by_map
    # The map holds one byte per page of the span: never more than the ids.
    assert all(span <= MAP_SPAN_PER_ID * ids.size for span in calls)
    assert_same_set(got, want)


# -- UnifiedArray.pages_of_indices against PageSet.of of the page ids ------


#: Element sizes on every page-mapping branch: a right shift (1, 4, 8,
#: 16), a multiply and a floor division (12), and items larger than a
#: page (8192 at 4 KB pages).
ITEMSIZES = (1, 4, 8, 12, 16, 8192)
GATHER_KINDS = (
    "unsorted", "sorted", "2-D", "covering", "striped", "sparse", "beyond",
)


@st.composite
def gathers(draw, kinds=GATHER_KINDS):
    """A ``MAX_PAGE``-page array and element ids into it, drawn from a
    seed: unsorted, sorted, 2-D, a shuffled element window that marks
    its whole span within the first map chunk followed by a chunk more of
    ids in it, two chunks of ids on even pages only (a span checked after
    each chunk and never covered), a few ids spread too wide for the map,
    or ids beyond the array's end. The ids are ``int64``, ``int32`` or
    ``uint64``."""
    page_size = draw(st.sampled_from([4096, 65536]))
    itemsize = draw(st.sampled_from(ITEMSIZES))
    alloc = Allocation(
        AllocKind.SYSTEM, MAX_PAGE * page_size,
        SystemConfig(system_page_size=page_size),
    )
    arr = UnifiedArray(alloc, f"V{itemsize}", (MAX_PAGE * page_size // itemsize,))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = min(draw(st.integers(1, 3000)), arr.size)
    if kind == "covering":
        lo = int(rng.integers(0, arr.size - n + 1))
        more = rng.integers(lo, lo + n, size=pageset._MAP_CHUNK)
        ids = np.concatenate((rng.permutation(np.arange(lo, lo + n)), more))
    elif kind == "striped":
        pages = 2 * rng.integers(0, MAX_PAGE // 2, size=2 * pageset._MAP_CHUNK)
        ids = -(-pages * page_size // itemsize)
    elif kind == "sparse":
        ids = np.concatenate((rng.integers(0, arr.size, n % 16), [arr.size - 1, 0]))
    elif kind == "beyond":
        ids = rng.integers(arr.size, 2 * arr.size, n)
    else:
        ids = rng.integers(0, arr.size, n)
        if kind == "sorted":
            ids.sort()
        elif kind == "2-D":
            ids = ids[: n // 2 * 2].reshape(-1, 2)
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint64]))
    return arr, ids.astype(dtype)


@given(gathers())
def test_pages_of_indices_matches_page_ids_through_of(gather):
    """The same set as the two-step construction (page ids, then
    :meth:`PageSet.of`), and as numpy's unique of the page ids, which
    shares no code with the map."""
    arr, ids = gather
    pages = (ids.astype(np.int64) * arr.itemsize) // arr.page_size
    got = arr.pages_of_indices(ids)
    assert_same_set(got, PageSet.of(pages))
    assert_same_set(got, _unique_of(pages))


@given(gathers())
def test_pages_of_indices_does_not_alias_its_input(gather):
    arr, ids = gather
    ps = arr.pages_of_indices(ids)
    before = oracle(ps)
    ids[...] = 0
    assert oracle(ps) == before


@given(gathers(kinds=["covering"]), st.integers(-MAX_PAGE, -1))
def test_pages_of_indices_rejects_a_negative_id_after_the_span_is_covered(
    gather, negative
):
    """The negative id comes last, a chunk after ids that mark every page
    of their span."""
    arr, ids = gather
    ids = np.concatenate((ids.astype(np.int64), [negative]))
    with pytest.raises(ValueError, match="non-negative"):
        arr.pages_of_indices(ids)
