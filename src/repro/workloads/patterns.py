"""Access-pattern generators: regular, irregular, mixed (Table 2).

The paper classifies its applications by access pattern — *regular*
(dense accesses to contiguous VA ranges), *irregular* (sparse accesses
over a large VA range), and *mixed*. These generators produce
:class:`~repro.core.kernels.ArrayAccess` descriptors of each class over a
:class:`~repro.core.unified_array.UnifiedArray`, for microbenchmarks,
tests, and synthetic studies.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import ArrayAccess
from ..core.unified_array import UnifiedArray
from ..mem.pageset import PageSet


def regular_sweep(
    arr: UnifiedArray, *, write: bool = False, fraction: float = 1.0
) -> ArrayAccess:
    """Dense streaming access over the whole array."""
    maker = ArrayAccess.write_ if write else ArrayAccess.read
    return maker(arr, fraction=fraction)


def regular_window(
    arr: UnifiedArray, start_row: int, stop_row: int, *, write: bool = False
) -> ArrayAccess:
    """Dense access to a contiguous row window of a 2-D array."""
    maker = ArrayAccess.write_ if write else ArrayAccess.read
    return maker(arr, arr.pages_of_rows(start_row, stop_row))


def irregular_gather(
    arr: UnifiedArray,
    n_elements: int,
    *,
    rng: np.random.Generator,
    write: bool = False,
) -> ArrayAccess:
    """Sparse random gather of ``n_elements`` elements over the array.

    Element indices are drawn uniformly; the resulting density drives the
    cacheline read-amplification model of :mod:`repro.mem.coherence`.
    """
    if n_elements <= 0:
        raise ValueError("n_elements must be positive")
    idx = rng.integers(0, arr.size, size=min(n_elements, arr.size), dtype=np.int64)
    pages = arr.pages_of_indices(idx)
    elems_per_page = max(arr.page_size // arr.itemsize, 1)
    density = min(1.0, (n_elements / max(pages.count, 1)) / elems_per_page)
    maker = ArrayAccess.write_ if write else ArrayAccess.read
    touched_fraction = min(
        1.0, max(density, arr.itemsize / arr.page_size)
    )
    return maker(arr, pages, fraction=touched_fraction, density=max(density, 1e-3))


def mixed_pattern(
    dense: UnifiedArray,
    sparse: UnifiedArray,
    n_sparse_elements: int,
    *,
    rng: np.random.Generator,
) -> list[ArrayAccess]:
    """A mixed workload: one dense stream plus one sparse gather, the
    shape the paper attributes to BFS and the Quantum Volume simulation."""
    return [
        regular_sweep(dense),
        irregular_gather(sparse, n_sparse_elements, rng=rng),
    ]


def strided_sweep(
    arr: UnifiedArray, stride_pages: int, *, write: bool = False
) -> ArrayAccess:
    """Touch every ``stride_pages``-th page (butterfly-style statevector
    strides map to this at page granularity)."""
    if stride_pages < 1:
        raise ValueError("stride_pages must be positive")
    pages = PageSet.of(np.arange(0, arr.n_pages, stride_pages))
    maker = ArrayAccess.write_ if write else ArrayAccess.read
    return maker(arr, pages)
