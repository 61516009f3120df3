"""Compact, symbolic sets of page indices.

Every memory access the simulator processes is described at page
granularity by a :class:`PageSet`. Three representations share one
immutable interface, ordered from most to least symbolic:

* a dense ``[start, stop)`` **range** (the common case for streaming
  kernels — a full statevector sweep is one range);
* an **interval list** of sorted, non-overlapping, non-adjacent
  ``[start, stop)`` runs (a dense range with holes punched into it, the
  result of partial migrations and budget-capped actions);
* a sorted ``int64`` **index array** (irregular gathers such as BFS
  frontier expansion), the fallback when a set has too many runs to stay
  symbolic.

Ranges and interval lists are kept symbolic so that full-allocation
sweeps over tens of millions of pages — and holes, splits, and unions
thereof — never materialise an index array; the page-state machinery in
:mod:`repro.mem.pagetable` has slice-based fast paths for them. Set
algebra between any two symbolic sets is O(runs), vectorised over the
run boundaries rather than the pages. Results are re-symbolised
automatically: any operation that would produce at most
:data:`MAX_SYMBOLIC_RUNS` runs stays an interval list.

Index arrays are always ``int64``, sorted, and duplicate-free, which the
property-based tests in ``tests/property`` enforce as an invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Results with at most this many maximal runs are kept as symbolic
#: interval lists; beyond it the index-array representation is denser and
#: the O(runs) python-level bookkeeping stops paying for itself.
MAX_SYMBOLIC_RUNS = 64

#: :func:`pages_by_map` marks ids in a one-byte-per-page occupancy map
#: when their page span is at most this many times their count, so the
#: map never outweighs eight-byte ids.
MAP_SPAN_PER_ID = 8

#: Ids mapped per step while filling the occupancy map: one 256 KB
#: ``int64`` buffer, which stays in cache whatever the input size.
_MAP_CHUNK = 1 << 15


@dataclass(frozen=True)
class PageSet:
    """An immutable set of page indices within one allocation."""

    start: int = 0
    stop: int = 0
    #: Sorted unique indices; when present, ``start``/``stop`` hold the
    #: bounding interval for cheap range checks.
    index: np.ndarray | None = None
    #: Sorted, non-overlapping, non-adjacent ``(start, stop)`` runs; only
    #: present for multi-run symbolic sets (``len(runs) >= 2``).
    runs: tuple[tuple[int, int], ...] | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "PageSet":
        return PageSet(0, 0)

    @staticmethod
    def range(start: int, stop: int) -> "PageSet":
        if stop < start:
            raise ValueError(f"invalid page range [{start}, {stop})")
        if start < 0:
            raise ValueError("page indices must be non-negative")
        return PageSet(int(start), int(stop))

    @staticmethod
    def full(n_pages: int) -> "PageSet":
        return PageSet.range(0, n_pages)

    @staticmethod
    def of(indices: np.ndarray | list[int]) -> "PageSet":
        """Build from arbitrary indices (sorted and deduplicated here).

        Which dedup runs depends only on the input:

        * non-decreasing input (one linear compare) keeps each id that
          differs from the one before it;
        * unsorted input whose span ``[min, max]`` is at most
          :data:`MAP_SPAN_PER_ID` times the id count marks an occupancy
          map over the span (:func:`pages_by_map`), which takes no more
          bytes than the ids;
        * wider unsorted input is sorted, then deduped linearly.

        Each gives the same set in the same representation, never aliases
        the caller's array, and refuses negative ids.
        """
        idx = np.ravel(np.asarray(indices, dtype=np.int64))
        if idx.size == 0:
            return PageSet.empty()
        if np.any(idx[1:] < idx[:-1]):
            pages = pages_by_map(idx)
            if pages is not None:
                return pages
            idx = np.sort(idx)
        elif idx[0] < 0:
            raise ValueError("page indices must be non-negative")
        return PageSet._from_sorted(_dedup_sorted(idx))

    @staticmethod
    def from_runs(bounds) -> "PageSet":
        """Build from an iterable of ``(start, stop)`` intervals (any
        order, overlaps and adjacency merged)."""
        pairs = sorted((int(lo), int(hi)) for lo, hi in bounds if hi > lo)
        if not pairs:
            return PageSet.empty()
        if pairs[0][0] < 0:
            raise ValueError("page indices must be non-negative")
        starts = np.fromiter((p[0] for p in pairs), dtype=np.int64)
        stops = np.fromiter((p[1] for p in pairs), dtype=np.int64)
        return PageSet._from_bounds(starts, stops)

    @staticmethod
    def from_mask(mask: np.ndarray, base: int = 0) -> "PageSet":
        """The set ``{base + i : mask[i]}``, symbolic when the mask has
        few maximal runs of ``True``."""
        starts, stops = _mask_to_bounds(mask)
        if starts is None:
            return PageSet.empty()
        return PageSet._from_bounds(starts + base, stops + base)

    # -- basic queries ------------------------------------------------------

    @property
    def is_range(self) -> bool:
        return self.index is None and self.runs is None

    @property
    def run_count(self) -> int | None:
        """Number of maximal contiguous runs, or ``None`` for index-array
        sets (irregular; not tracked)."""
        if self.runs is not None:
            return len(self.runs)
        if self.index is not None:
            return None
        return 1 if self.stop > self.start else 0

    @property
    def count(self) -> int:
        if self.index is not None:
            return int(self.index.size)
        if self.runs is not None:
            return sum(hi - lo for lo, hi in self.runs)
        return self.stop - self.start

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def covers_all(self, n_pages: int) -> bool:
        return self.is_range and self.start == 0 and self.stop >= n_pages

    def indices(self) -> np.ndarray:
        """Materialise the indices (avoid on huge ranges where possible)."""
        if self.index is not None:
            return self.index
        if self.runs is not None:
            return np.concatenate(
                [np.arange(lo, hi, dtype=np.int64) for lo, hi in self.runs]
            )
        return np.arange(self.start, self.stop, dtype=np.int64)

    # -- internal representation helpers -----------------------------------

    @staticmethod
    def _from_sorted(idx: np.ndarray) -> "PageSet":
        """Internal: build from an already-sorted unique int64 array."""
        if idx.size == 0:
            return PageSet.empty()
        lo, hi = int(idx[0]), int(idx[-1])
        if hi - lo + 1 == idx.size:
            return PageSet(lo, hi + 1)
        # Re-symbolise: indices with few contiguous runs become an
        # interval list (run boundaries found vectorised, O(n)).
        brk = np.flatnonzero(np.diff(idx) != 1) + 1
        if brk.size < MAX_SYMBOLIC_RUNS:
            starts = idx[np.concatenate(([0], brk))]
            stops = idx[np.concatenate((brk - 1, [idx.size - 1]))] + 1
            return PageSet(
                lo,
                hi + 1,
                runs=tuple(zip(starts.tolist(), stops.tolist())),
            )
        return PageSet(lo, hi + 1, idx)

    @staticmethod
    def _from_bounds(starts: np.ndarray, stops: np.ndarray) -> "PageSet":
        """Internal: build from sorted, non-overlapping (possibly
        adjacent) interval bounds, choosing the densest representation."""
        k = int(starts.size)
        if k == 0:
            return PageSet.empty()
        if k > 1:
            # Merge adjacent/overlapping runs (vectorised).
            hi_cum = np.maximum.accumulate(stops)
            new_run = np.empty(k, dtype=bool)
            new_run[0] = True
            np.greater(starts[1:], hi_cum[:-1], out=new_run[1:])
            if not new_run.all():
                first = np.flatnonzero(new_run)
                last = np.concatenate((first[1:] - 1, [k - 1]))
                starts = starts[first]
                stops = hi_cum[last]
                k = int(starts.size)
        if k == 1:
            return PageSet(int(starts[0]), int(stops[0]))
        if k <= MAX_SYMBOLIC_RUNS:
            return PageSet(
                int(starts[0]),
                int(stops[-1]),
                runs=tuple(zip(starts.tolist(), stops.tolist())),
            )
        lens = stops - starts
        total = int(lens.sum())
        seg_off = np.concatenate(([0], np.cumsum(lens)[:-1]))
        idx = np.arange(total, dtype=np.int64) + np.repeat(starts - seg_off, lens)
        return PageSet(int(idx[0]), int(idx[-1]) + 1, idx)

    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """This set as sorted disjoint interval bounds ``(starts, stops)``.

        O(1)/O(runs) for the symbolic representations; index sets degrade
        to one run per gap-separated group.
        """
        if self.runs is not None:
            arr = np.asarray(self.runs, dtype=np.int64)
            return arr[:, 0], arr[:, 1]
        if self.index is not None:
            idx = self.index
            brk = np.flatnonzero(np.diff(idx) != 1) + 1
            starts = idx[np.concatenate(([0], brk))]
            stops = idx[np.concatenate((brk - 1, [idx.size - 1]))] + 1
            return starts, stops
        return (
            np.asarray([self.start], dtype=np.int64),
            np.asarray([self.stop], dtype=np.int64),
        )

    @staticmethod
    def _sweep(a: "PageSet", b: "PageSet", want: int) -> "PageSet":
        """Interval-list set algebra via a vectorised boundary sweep.

        ``a`` contributes coverage 1, ``b`` contributes coverage 2, so a
        segment's coverage is 1 (a only), 2 (b only), or 3 (both); it is
        kept when bit ``coverage`` of ``want`` is set (union: 0b1110,
        intersection: 0b1000, difference a-b: 0b0010).
        O((runs_a + runs_b) log) in the run counts, never the page count.
        """
        a_lo, a_hi = a._bounds()
        b_lo, b_hi = b._bounds()
        pos = np.concatenate((a_lo, a_hi, b_lo, b_hi))
        weight = np.concatenate(
            (
                np.full(a_lo.size, 1, dtype=np.int64),
                np.full(a_hi.size, -1, dtype=np.int64),
                np.full(b_lo.size, 2, dtype=np.int64),
                np.full(b_hi.size, -2, dtype=np.int64),
            )
        )
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        cov = np.cumsum(weight[order])
        keep = (pos[1:] > pos[:-1]) & (((want >> cov[:-1]) & 1) == 1)
        if not keep.any():
            return PageSet.empty()
        return PageSet._from_bounds(pos[:-1][keep], pos[1:][keep])

    # -- set algebra ---------------------------------------------------------

    def intersect(self, other: "PageSet") -> "PageSet":
        if not self or not other:
            return PageSet.empty()
        if self.is_range and other.is_range:
            lo, hi = max(self.start, other.start), min(self.stop, other.stop)
            return PageSet.range(lo, hi) if lo < hi else PageSet.empty()
        if self.is_range and other.index is not None:
            idx = other.index
            return PageSet._from_sorted(
                idx[(idx >= self.start) & (idx < self.stop)]
            )
        if other.is_range and self.index is not None:
            return other.intersect(self)
        return PageSet._sweep(self, other, want=0b1000)

    def union(self, other: "PageSet") -> "PageSet":
        if not self:
            return other
        if not other:
            return self
        if (
            self.is_range
            and other.is_range
            and self.start <= other.stop
            and other.start <= self.stop
        ):
            return PageSet.range(
                min(self.start, other.start), max(self.stop, other.stop)
            )
        return PageSet._sweep(self, other, want=0b1110)

    def difference(self, other: "PageSet") -> "PageSet":
        if not self or not other:
            return self
        if other.is_range and self.is_range:
            if other.start <= self.start and other.stop >= self.stop:
                return PageSet.empty()
            if other.stop <= self.start or other.start >= self.stop:
                return self
            if other.start <= self.start:
                return PageSet.range(other.stop, self.stop)
            if other.stop >= self.stop:
                return PageSet.range(self.start, other.start)
            # A hole punched mid-range: two symbolic runs, O(1).
            return PageSet(
                self.start,
                self.stop,
                runs=(
                    (self.start, int(other.start)),
                    (int(other.stop), self.stop),
                ),
            )
        if other.is_range and (self.stop <= other.start or other.stop <= self.start):
            return self
        return PageSet._sweep(self, other, want=0b0010)

    def take_first(self, k: int) -> "PageSet":
        """The ``k`` lowest-numbered pages (used by budget-capped actions)."""
        if k <= 0:
            return PageSet.empty()
        if k >= self.count:
            return self
        if self.runs is not None:
            out = []
            remaining = k
            for lo, hi in self.runs:
                n = min(hi - lo, remaining)
                out.append((lo, lo + n))
                remaining -= n
                if remaining == 0:
                    break
            return PageSet.from_runs(out)
        if self.is_range:
            return PageSet.range(self.start, self.start + k)
        return PageSet._from_sorted(self.index[:k])

    def select(self, mask: np.ndarray) -> "PageSet":
        """Subset of this set at the positions where ``mask`` is True.

        ``mask`` is positional, aligned with :meth:`view`'s element order
        (ascending page number). Stays symbolic when the matching pages
        form few runs.
        """
        if self.is_range:
            return PageSet.from_mask(mask, self.start)
        if self.runs is not None:
            bounds = []
            off = 0
            for lo, hi in self.runs:
                n = hi - lo
                starts, stops = _mask_to_bounds(mask[off : off + n])
                if starts is not None:
                    bounds.extend(zip((starts + lo).tolist(), (stops + lo).tolist()))
                off += n
            return PageSet.from_runs(bounds)
        return PageSet._from_sorted(self.index[mask])

    # -- vectorised views over per-page state arrays ---------------------------

    def view(self, state: np.ndarray) -> np.ndarray:
        """A (possibly writable) view/selection of ``state`` at these pages.

        Range page sets return a slice view (zero copy, writable in
        place); interval-list and index page sets return a copy — use
        :meth:`assign` for writes in those cases.
        """
        if self.runs is not None:
            return np.concatenate([state[lo:hi] for lo, hi in self.runs])
        if self.index is not None:
            return state[self.index]
        return state[self.start : self.stop]

    def assign(self, state: np.ndarray, value) -> None:
        """Write ``value`` into ``state`` at these pages, vectorised."""
        if self.runs is not None:
            for lo, hi in self.runs:
                state[lo:hi] = value
        elif self.index is not None:
            state[self.index] = value
        else:
            state[self.start : self.stop] = value

    def add_at(self, state: np.ndarray, value) -> None:
        """Add ``value`` to ``state`` at these pages, vectorised."""
        if self.runs is not None:
            for lo, hi in self.runs:
                state[lo:hi] += value
        elif self.index is not None:
            # One unbuffered pass, where fancy ``+=`` gathers, adds and
            # scatters (numpy >= 1.25 gave ``ufunc.at`` its fast path).
            np.add.at(state, self.index, value)
        else:
            state[self.start : self.stop] += value

    def where(self, state: np.ndarray, value) -> "PageSet":
        """Subset of these pages whose ``state`` equals ``value``."""
        mask = self.view(state) == value
        if mask.all():
            return self
        return self.select(mask)

    # -- misc ------------------------------------------------------------------

    def align_down(self, granule_pages: int) -> "PageSet":
        """Expand to cover whole ``granule_pages``-aligned blocks.

        Used to model 2 MB-granularity managed-memory migration: a fault on
        any system page of a block moves the whole block.
        """
        if granule_pages <= 1 or not self:
            return self
        g = granule_pages
        if self.is_range:
            lo = (self.start // g) * g
            hi = -(-self.stop // g) * g
            return PageSet.range(lo, hi)
        if self.runs is not None:
            starts = np.fromiter(
                ((lo // g) * g for lo, _ in self.runs), dtype=np.int64
            )
            stops = np.fromiter(
                (-(-hi // g) * g for _, hi in self.runs), dtype=np.int64
            )
            return PageSet._from_bounds(starts, stops)
        blocks = self.blocks(g)
        return PageSet._from_bounds(blocks * g, blocks * g + g)

    def blocks(self, granule_pages: int) -> np.ndarray:
        """Distinct ``granule_pages``-sized block ids touched by this set."""
        if not self:
            return np.empty(0, dtype=np.int64)
        g = granule_pages
        if self.is_range:
            lo = self.start // g
            hi = (self.stop - 1) // g
            return np.arange(lo, hi + 1, dtype=np.int64)
        # The block ids below come out non-decreasing: runs and indices
        # are sorted, and floor division keeps that order.
        if self.runs is not None:
            return _dedup_sorted(
                np.concatenate(
                    [
                        np.arange(lo // g, (hi - 1) // g + 1, dtype=np.int64)
                        for lo, hi in self.runs
                    ]
                )
            )
        return _dedup_sorted(self.indices() // g)

    def clip(self, n_pages: int) -> "PageSet":
        """Restrict to valid page numbers of an ``n_pages`` allocation."""
        if self.start >= 0 and self.stop <= n_pages:
            return self
        return self.intersect(PageSet.range(0, n_pages))

    def __repr__(self) -> str:
        if self.is_range:
            return f"PageSet[{self.start}:{self.stop}]"
        if self.runs is not None:
            return (
                f"PageSet({self.count} pages, {len(self.runs)} runs in "
                f"[{self.start}, {self.stop}))"
            )
        return f"PageSet({self.count} pages in [{self.start}, {self.stop}))"


def _dedup_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct values of a non-decreasing array, as a new array.

    Keeps the first element and every element that differs from the one
    before it: O(n). numpy's ``unique`` would sort again, or on numpy >=
    2.3 hash, which is many times slower on the page-id arrays built here.
    """
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def pages_by_map(
    ids: np.ndarray, itemsize: int = 1, page_size: int = 1
) -> PageSet | None:
    """The set of pages ``(i * itemsize) // page_size`` of the ids ``i``
    (the ids themselves by default), or ``None`` when their page span is
    wider than :data:`MAP_SPAN_PER_ID` times their count.

    The id-to-page map is monotone, so the pages of the ids' min and max
    bound the span exactly, and a negative id is refused before anything
    is marked. Chunks of :data:`_MAP_CHUNK` ids are mapped into one
    buffer (a right shift when ``page_size`` is a power-of-two multiple
    of ``itemsize``, else a multiply and a floor division) and marked in
    a one-byte-per-page map over the span, read back as runs: O(n +
    span), no sort, no array the size of the ids. Once the ids marked
    number at least the span, each chunk moves a cursor to the first
    unmarked page; a fully marked span returns as a range without reading
    the remaining ids.
    """
    lo, hi = int(ids.min()), int(ids.max())
    if lo < 0:
        raise ValueError("page indices must be non-negative")
    lo, hi = lo * itemsize // page_size, hi * itemsize // page_size
    span = hi - lo + 1
    if span > MAP_SPAN_PER_ID * ids.size:
        return None
    ratio, rem = divmod(page_size, itemsize)
    pow2 = rem == 0 and ratio & (ratio - 1) == 0
    shift = ratio.bit_length() - 1 if pow2 else None
    flat = np.ravel(ids)
    seen = np.zeros(span, dtype=bool)
    buf = np.empty(min(flat.size, _MAP_CHUNK), dtype=np.int64)
    covered = 0
    for i in range(0, flat.size, _MAP_CHUNK):
        part = flat[i : i + _MAP_CHUNK]
        out = buf[: part.size]
        if shift is None:
            np.multiply(part, itemsize, out=out, dtype=np.int64, casting="unsafe")
            out //= page_size
        else:
            np.right_shift(part, shift, out=out, dtype=np.int64, casting="unsafe")
        out -= lo
        seen[out] = True
        if i + part.size >= span:
            # argmin stops at the first False.
            covered += int(seen[covered:].argmin())
            if seen[covered]:
                return PageSet(lo, hi + 1)
    return PageSet.from_mask(seen, base=lo)


def _mask_to_bounds(
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """Run bounds (relative starts/stops) of the True runs of ``mask``.

    One boundary scan: every index where the mask flips value is either a
    run start or a run stop, strictly alternating; whether the even or odd
    positions are the starts depends only on ``mask[0]``. A single
    ``flatnonzero`` over the flip mask replaces the older diff + two
    flatnonzero passes (3 full-array sweeps -> 1, plus two boolean ops).
    """
    if mask.size == 0 or not mask.any():
        return None, None
    m = mask.view(np.int8) if mask.dtype == bool else mask.astype(np.int8)
    flips = np.flatnonzero(m[1:] != m[:-1]).astype(np.int64) + 1
    if m[0]:
        starts = np.concatenate(([0], flips[1::2]))
        stops = flips[0::2]
    else:
        starts = flips[0::2]
        stops = flips[1::2]
    if m[-1]:
        stops = np.concatenate((stops, [m.size]))
    return starts, stops


def pages_of_byte_range(
    byte_start: int, byte_stop: int, page_size: int
) -> PageSet:
    """Pages overlapped by the byte interval ``[byte_start, byte_stop)``."""
    if byte_stop <= byte_start:
        return PageSet.empty()
    return PageSet.range(byte_start // page_size, -(-byte_stop // page_size))
