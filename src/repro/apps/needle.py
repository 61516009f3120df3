"""Needle: Needleman-Wunsch sequence alignment (Rodinia).

An irregular-access application (Table 2, 32k x 32k input). The DP
matrix and the substitution-reference matrix are CPU-initialised; the
GPU then processes anti-diagonal block waves. Each wave touches a
scattered set of blocks — pages from many distant rows — which is what
makes needle's pattern irregular despite the dense per-block math.

The functional path computes the real alignment score with a vectorised
anti-diagonal DP, verified against a plain O(n^2) reference in tests.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import ArrayAccess
from ..core.porting import MemoryMode
from ..core.runtime import GraceHopperSystem
from ..mem.pageset import PageSet
from .base import Application, AppResult, register_application


def needleman_wunsch_reference(
    seq1: np.ndarray, seq2: np.ndarray, penalty: int
) -> int:
    """Plain DP reference; returns the alignment score."""
    n, m = len(seq1) + 1, len(seq2) + 1
    score = np.zeros((n, m), dtype=np.int64)
    score[0, :] = -penalty * np.arange(m)
    score[:, 0] = -penalty * np.arange(n)
    match = (seq1[:, None] == seq2[None, :]).astype(np.int64) * 2 - 1
    for i in range(1, n):
        for j in range(1, m):
            score[i, j] = max(
                score[i - 1, j - 1] + match[i - 1, j - 1],
                score[i - 1, j] - penalty,
                score[i, j - 1] - penalty,
            )
    return int(score[n - 1, m - 1])


def needleman_wunsch_antidiagonal(
    seq1: np.ndarray, seq2: np.ndarray, penalty: int
) -> int:
    """Vectorised anti-diagonal DP (the GPU algorithm's data flow)."""
    n, m = len(seq1) + 1, len(seq2) + 1
    score = np.zeros((n, m), dtype=np.int64)
    score[0, :] = -penalty * np.arange(m)
    score[:, 0] = -penalty * np.arange(n)
    match = (seq1[:, None] == seq2[None, :]).astype(np.int64) * 2 - 1
    for d in range(2, n + m - 1):
        i = np.arange(max(1, d - m + 1), min(n, d))
        j = d - i
        valid = (j >= 1) & (j < m)
        i, j = i[valid], j[valid]
        score[i, j] = np.maximum(
            score[i - 1, j - 1] + match[i - 1, j - 1],
            np.maximum(score[i - 1, j] - penalty, score[i, j - 1] - penalty),
        )
    return int(score[n - 1, m - 1])


@register_application
class Needle(Application):
    """Needleman-Wunsch algorithm."""

    name = "needle"
    pattern = "irregular"
    paper_input = "32k x 32k"

    PAPER_DIM = 32 * 1024

    def __init__(self, scale: float = 1.0, block: int = 256, penalty: int = 10,
                 seed: int = 3):
        super().__init__(scale)
        self.n = self.dim(self.PAPER_DIM, minimum=8)
        self.block = max(4, min(block, self.n))
        self.penalty = penalty
        self.seed = seed

    def working_set_bytes(self) -> int:
        return 2 * (self.n + 1) * (self.n + 1) * 4

    def setup(self, gh: GraceHopperSystem, mode: MemoryMode, materialize: bool):
        shape = ((self.n + 1), (self.n + 1))
        self.itemsets = self.buffer(
            gh, mode, "itemsets", np.int32, shape, materialize=materialize
        )
        self.reference = self.buffer(
            gh, mode, "reference", np.int32, shape, materialize=materialize
        )

    def cpu_init(self, gh: GraceHopperSystem, mode: MemoryMode) -> None:
        def fill():
            if self.itemsets.cpu_target.materialized:
                rng = np.random.default_rng(self.seed)
                self._seq1 = rng.integers(1, 5, size=self.n, dtype=np.int64)
                self._seq2 = rng.integers(1, 5, size=self.n, dtype=np.int64)
                its = self.itemsets.cpu_target.np
                its[:] = 0
                its[0, :] = -self.penalty * np.arange(self.n + 1)
                its[:, 0] = -self.penalty * np.arange(self.n + 1)
                ref = self.reference.cpu_target.np
                ref[1:, 1:] = (
                    self._seq1[:, None] == self._seq2[None, :]
                ).astype(np.int32) * 2 - 1

        # Rodinia zero-fills the itemsets (calloc-equivalent CPU touch)
        # and fully initialises the reference matrix on the CPU.
        self.chunked_cpu_init(
            gh,
            [self.itemsets.cpu_target, self.reference.cpu_target],
            compute=fill,
        )

    def _diagonal_pages(self, arr, d: int, nblocks: int) -> PageSet:
        """Pages touched by the anti-diagonal wave ``d`` of blocks.

        Each block covers a short row segment (``block * 4`` bytes) in each
        of its rows, so it touches one or two pages per row, scattered
        across distant rows — the irregular signature of needle.

        The wave's blocks sit on consecutive block rows, so its rows form
        one range, and block row ``i`` falls in block column ``d - i``.
        Each row's first byte is the row's offset plus its block row's
        column offset, spread over the block's rows with ``np.repeat``;
        its last byte follows, and a right shift (page sizes are powers
        of two) turns both into pages in place. The matrix is row-major,
        so the ends are non-decreasing row by row. When no row starts on
        the page the row before it ended on (every full-scale wave), each
        row's first page, followed by its last page where the row
        straddles two, is strictly increasing and goes to
        :meth:`PageSet._from_sorted` as it is. Rows shorter than a page
        can share pages; their interleaved ends go through
        :meth:`PageSet.of`, which drops the repeats.
        """
        lo, hi = max(0, d - nblocks + 1), min(nblocks, d + 1)
        cols, block = self.n + 1, self.block
        r0 = lo * block
        rows = min(hi * block, cols) - r0
        row_bytes = 4 * cols
        # Byte offset of each row's first element in the wave.
        col0 = (d - np.arange(lo, hi, dtype=np.int64)) * block
        first = np.repeat(4 * col0, block)[:rows]
        first += np.arange(r0 * row_bytes, (r0 + rows) * row_bytes, row_bytes)
        last = first + 4 * (block - 1)
        edge = nblocks * block - cols
        if edge > 0 and d >= nblocks - 1:
            # Only the last block column runs past the matrix edge, and
            # a wave meets it in its first block row.
            last[:block] -= 4 * edge
        shift = arr.page_size.bit_length() - 1
        first >>= shift
        last >>= shift
        if not (first[1:] > last[:-1]).all():
            return PageSet.of(np.stack((first, last), axis=1).ravel())
        straddles = last != first
        if not straddles.any():
            return PageSet._from_sorted(first)
        # Each straddling row's last page follows its first.
        keep = np.stack((np.ones_like(straddles), straddles), axis=1)
        return PageSet._from_sorted(np.stack((first, last), axis=1)[keep])

    def compute(self, gh: GraceHopperSystem, mode: MemoryMode, result: AppResult):
        self.itemsets.h2d()
        self.reference.h2d()
        its = self.itemsets.gpu_target
        ref = self.reference.gpu_target
        materialized = its.materialized

        nblocks = -(-self.n // self.block)

        for d in range(2 * nblocks - 1):
            pages = self._diagonal_pages(its, d, nblocks)
            # Useful bytes of the wave spread over the touched pages; a
            # page only carries one block-row segment of useful data.
            wave_blocks = min(d + 1, nblocks, 2 * nblocks - 1 - d)
            wave_bytes = wave_blocks * self.block * self.block * 4
            frac = min(1.0, max(wave_bytes / (pages.count * its.page_size),
                                its.itemsize / its.page_size))
            t0 = gh.now
            gh.launch_kernel(
                f"needle-diag-{d}",
                [
                    # Within one page the touched block-row segment is
                    # contiguous; the irregularity is the page-level
                    # scatter across distant rows, not element scatter.
                    ArrayAccess.read(its, pages, fraction=frac),
                    ArrayAccess.read(ref, pages, fraction=frac),
                    ArrayAccess.write_(its, pages, fraction=frac),
                ],
                flops=6.0 * min(d + 1, nblocks) * self.block * self.block,
                compute=None,
            )
            result.iteration_times.append(gh.now - t0)

        if materialized:
            rng = np.random.default_rng(self.seed)
            seq1 = rng.integers(1, 5, size=self.n, dtype=np.int64)
            seq2 = rng.integers(1, 5, size=self.n, dtype=np.int64)
            final = needleman_wunsch_antidiagonal(seq1, seq2, self.penalty)
            flat = self.itemsets.gpu_target.np
            flat[self.n, self.n] = final
        self.itemsets.d2h()
        result.correctness["score"] = (
            int(self.itemsets.cpu_target.np[self.n, self.n])
            if materialized
            else None
        )

    def verify(self, result: AppResult) -> None:
        got = result.correctness.get("score")
        if got is None:
            return
        rng = np.random.default_rng(self.seed)
        seq1 = rng.integers(1, 5, size=self.n, dtype=np.int64)
        seq2 = rng.integers(1, 5, size=self.n, dtype=np.int64)
        expect = needleman_wunsch_reference(seq1, seq2, self.penalty)
        if got != expect:
            raise AssertionError(f"needle score {got} != reference {expect}")
