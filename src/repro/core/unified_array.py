"""Typed array views over simulated allocations.

A :class:`UnifiedArray` couples an :class:`~repro.mem.pagetable.Allocation`
with a dtype/shape so applications can (a) express page-granularity access
descriptors in element terms, and (b) — when the allocation is
materialised — run the *real* computation on a numpy view, keeping the
functional results verifiable while the performance model runs alongside.
"""

from __future__ import annotations

import numpy as np

from ..mem.pagetable import Allocation
from ..mem.pageset import PageSet, pages_by_map, pages_of_byte_range


class UnifiedArray:
    """An ndarray-shaped window onto a simulated allocation."""

    def __init__(self, alloc: Allocation, dtype, shape):
        self.alloc = alloc
        self.dtype = np.dtype(dtype)
        self.shape = tuple(int(s) for s in shape)
        self.size = int(np.prod(self.shape)) if self.shape else 1
        nbytes_needed = self.size * self.dtype.itemsize
        if nbytes_needed > alloc.nbytes:
            raise ValueError(
                f"{alloc.name}: array of {nbytes_needed} bytes does not fit "
                f"allocation of {alloc.nbytes} bytes"
            )

    # -- identity -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.alloc.name

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def page_size(self) -> int:
        return self.alloc.page_size

    @property
    def n_pages(self) -> int:
        return self.alloc.n_pages

    @property
    def materialized(self) -> bool:
        return self.alloc.buffer is not None

    # -- data (functional fidelity) ----------------------------------------------

    @property
    def np(self) -> np.ndarray:
        """The backing numpy array (materialised allocations only)."""
        return self.alloc.array(self.dtype, self.shape)

    # -- element-range -> page-set mapping -----------------------------------------

    def all_pages(self) -> PageSet:
        return PageSet.full(self.alloc.n_pages)

    def pages_of_elements(self, start: int, stop: int) -> PageSet:
        """Pages backing the flat element interval ``[start, stop)``."""
        if stop < start:
            raise ValueError("stop must be >= start")
        start = max(0, min(start, self.size))
        stop = max(0, min(stop, self.size))
        return pages_of_byte_range(
            start * self.itemsize, stop * self.itemsize, self.page_size
        )

    def pages_of_rows(self, row_start: int, row_stop: int) -> PageSet:
        """Pages backing rows ``[row_start, row_stop)`` of a 2-D array."""
        if len(self.shape) < 2:
            raise ValueError("pages_of_rows requires a 2-D array")
        cols = self.shape[1]
        return self.pages_of_elements(row_start * cols, row_stop * cols)

    def pages_of_indices(self, element_indices: np.ndarray) -> PageSet:
        """Pages backing scattered flat element indices (gathers).

        Element ``i`` lies on page ``(i * itemsize) // page_size``. The
        ids are marked in one streaming pass with no array their size
        (:func:`~repro.mem.pageset.pages_by_map`); only a span wider than
        ``MAP_SPAN_PER_ID`` pages per id builds the page ids for
        :meth:`PageSet.of`.
        """
        ids = np.asarray(element_indices)
        if ids.size == 0:
            return PageSet.empty()
        pages = pages_by_map(ids, self.itemsize, self.page_size)
        if pages is None:
            page_ids = np.multiply(
                ids, self.itemsize, dtype=np.int64, casting="unsafe"
            )
            page_ids //= self.page_size
            pages = PageSet.of(page_ids)
        return pages

    def bytes_per_page(self, fraction: float = 1.0) -> int:
        """Useful bytes per page for a sweep touching ``fraction`` of each
        page's elements."""
        if not 0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        per = int(self.page_size * fraction)
        # The final page may be partial; the approximation is negligible
        # for the multi-page allocations the model cares about.
        return max(self.itemsize, min(per, self.page_size))

    def __repr__(self) -> str:
        return (
            f"<UnifiedArray {self.name} {self.dtype}{list(self.shape)} "
            f"over {self.alloc.kind.value} allocation>"
        )
