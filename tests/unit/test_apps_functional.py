"""Functional correctness of the six applications.

Every application runs at small scale with materialised buffers under all
three memory modes and verifies its result against an independent
reference implementation — the functional half of the reproduction.
"""

import numpy as np
import pytest

from repro.apps import (
    application_names,
    applications_table,
    get_application,
    needle,
)
from repro.apps.bfs import bfs_reference, build_random_csr
from repro.apps.hotspot import stencil_reference
from repro.apps.needle import (
    Needle,
    needleman_wunsch_antidiagonal,
    needleman_wunsch_reference,
)
from repro.apps.pathfinder import pathfinder_reference
from repro.core.porting import MemoryMode
from repro.core.runtime import GraceHopperSystem
from repro.mem.pageset import PageSet
from repro.sim.config import SystemConfig

SMALL = {
    "hotspot": dict(scale=4e-7),
    "pathfinder": dict(scale=2e-7),
    "needle": dict(scale=1e-7, block=8),
    "bfs": dict(scale=2e-5),
    "srad": dict(scale=4e-7, iterations=3),
    "qiskit": dict(qubits=5),
}


def fresh_system():
    return GraceHopperSystem(SystemConfig.paper_gh200(page_size=4096))


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("mode", list(MemoryMode))
def test_application_verifies_in_every_mode(name, mode):
    app = get_application(name, **SMALL[name])
    gh = fresh_system()
    result = app.run(gh, mode, materialize=True, verify=True)
    assert result.phases.total > 0
    assert result.mode is mode


@pytest.mark.parametrize("name", sorted(SMALL))
def test_results_identical_across_modes(name):
    if name == "qiskit":
        pytest.skip("qiskit explicit path is chunk-structured; norm checked above")
    payloads = []
    for mode in MemoryMode:
        app = get_application(name, **SMALL[name])
        result = app.run(fresh_system(), mode, materialize=True)
        payloads.append(result.correctness)
    first = payloads[0]
    for other in payloads[1:]:
        for key, val in first.items():
            if isinstance(val, np.ndarray):
                assert np.allclose(val, other[key], rtol=1e-4, atol=1e-4)
            else:
                assert val == other[key]


class TestRegistry:
    def test_all_six_registered(self):
        assert application_names() == [
            "bfs", "hotspot", "needle", "pathfinder", "qiskit", "srad",
        ]

    def test_unknown_application(self):
        with pytest.raises(KeyError, match="unknown application"):
            get_application("doom")

    def test_table2_rows_complete(self):
        rows = applications_table()
        for row in rows:
            assert row["pattern"] in ("regular", "irregular", "mixed")
            assert row["input"]


class TestReferences:
    def test_needle_antidiagonal_equals_plain_dp(self):
        rng = np.random.default_rng(0)
        s1 = rng.integers(1, 5, size=24)
        s2 = rng.integers(1, 5, size=24)
        assert needleman_wunsch_antidiagonal(s1, s2, 10) == (
            needleman_wunsch_reference(s1, s2, 10)
        )

    def test_bfs_reference_matches_networkx(self):
        import networkx as nx

        rng = np.random.default_rng(4)
        row_ptr, edges = build_random_csr(200, 4, rng)
        dist = bfs_reference(row_ptr, edges, 0)
        g = nx.DiGraph()
        g.add_nodes_from(range(200))
        for u in range(200):
            for e in edges[row_ptr[u] : row_ptr[u + 1]]:
                g.add_edge(u, int(e))
        lengths = nx.single_source_shortest_path_length(g, 0)
        for node in range(200):
            assert dist[node] == lengths.get(node, -1)

    def test_hotspot_reference_converges_to_ambient(self):
        temp = np.full((16, 16), 400.0, dtype=np.float32)
        power = np.zeros((16, 16), dtype=np.float32)
        out = stencil_reference(temp, power, 2000)
        # With no power input, temperatures relax toward the 80-ambient
        # sink term of the Rodinia update.
        assert out.mean() < 395.0
        assert out.std() < 1.0

    def test_pathfinder_reference_lower_bound(self):
        wall = np.ones((10, 8), dtype=np.int32)
        dist = pathfinder_reference(wall)
        assert (dist == 10).all()  # all-ones grid: cost = number of rows


class TestPhaseProtocol:
    def test_cpu_init_excluded_from_reported_total(self):
        app = get_application("hotspot", **SMALL["hotspot"])
        result = app.run(fresh_system(), MemoryMode.SYSTEM, materialize=True)
        assert result.reported_total < result.phases.total

    def test_iteration_times_recorded(self):
        app = get_application("srad", **SMALL["srad"])
        result = app.run(fresh_system(), MemoryMode.SYSTEM, materialize=True)
        assert len(result.iteration_times) == 3
        assert len(result.iteration_traffic) == 3

    def test_profile_collected_on_request(self):
        app = get_application("hotspot", **SMALL["hotspot"])
        result = app.run(
            fresh_system(), MemoryMode.MANAGED, materialize=True, profile=True
        )
        assert result.profile is not None
        assert result.peak_gpu_bytes > 0

    def test_qiskit_sub_phases(self):
        app = get_application("qiskit", qubits=5)
        result = app.run(fresh_system(), MemoryMode.SYSTEM, materialize=True)
        assert set(result.sub_phases) == {"initialization", "computation"}


def _per_block_wave(app, arr, d: int, nblocks: int) -> PageSet:
    """The per-block loop that built needle's waves before they were
    vectorised, kept as the oracle."""
    i = np.arange(max(0, d - nblocks + 1), min(nblocks, d + 1))
    cols = app.n + 1
    chunks = []
    for bi, bj in zip(i.tolist(), (d - i).tolist()):
        r0, r1 = bi * app.block, min((bi + 1) * app.block, cols)
        c0, c1 = bj * app.block, min((bj + 1) * app.block, cols)
        r = np.arange(r0, r1, dtype=np.int64)
        chunks.append((r * cols + c0) * 4 // arr.page_size)
        chunks.append((r * cols + (c1 - 1)) * 4 // arr.page_size)
    pages = np.unique(np.concatenate(chunks))
    return PageSet._from_sorted(pages[pages < arr.n_pages])


class TestNeedleWaves:
    """Every wave of :meth:`Needle._diagonal_pages` against the per-block
    loop, in set and representation, and the route each wave takes."""

    @staticmethod
    def check_waves(n, block, page_size, waves, monkeypatch) -> list:
        """Check ``waves`` of an ``n`` x ``n`` needle; returns which
        constructor each took ("sorted" or "of")."""
        app = Needle(scale=(n / Needle.PAPER_DIM) ** 2, block=block)
        assert app.n == n
        gh = GraceHopperSystem(SystemConfig.paper_gh200(page_size=page_size))
        app.setup(gh, MemoryMode.SYSTEM, materialize=False)
        arr = app.itemsets.gpu_target
        seen = []

        class Recorder:
            @staticmethod
            def of(pages):
                seen.append(("of", pages.copy()))
                return PageSet.of(pages)

            @staticmethod
            def _from_sorted(pages):
                seen.append(("sorted", pages.copy()))
                return PageSet._from_sorted(pages)

        monkeypatch.setattr(needle, "PageSet", Recorder)
        nblocks = -(-n // app.block)
        routes = []
        for d in waves(2 * nblocks - 1):
            seen.clear()
            got = app._diagonal_pages(arr, d, nblocks)
            want = _per_block_wave(app, arr, d, nblocks)
            assert (got.start, got.stop, got.runs) == (
                want.start, want.stop, want.runs,
            ), f"wave {d}"
            assert (got.index is None) == (want.index is None)
            if want.index is not None:
                assert np.array_equal(got.index, want.index), f"wave {d}"
            # One constructor per wave: strictly increasing ids go to
            # _from_sorted as they are; ids with a page shared between
            # rows reach PageSet.of non-decreasing, so it skips the sort.
            ((route, ids),) = seen
            steps = np.diff(ids)
            if route == "sorted":
                assert np.all(steps > 0), f"wave {d}"
            else:
                assert np.all(steps >= 0) and not np.all(steps > 0), f"wave {d}"
            routes.append(route)
        return routes

    @pytest.mark.parametrize("page_size", [4096, 65536])
    @pytest.mark.parametrize("block", [24, 256])
    @pytest.mark.parametrize("n", [8, 9, 17, 255, 256, 257, 513, 2048])
    def test_every_wave_matches_per_block_loop(
        self, n, block, page_size, monkeypatch
    ):
        self.check_waves(n, block, page_size, range, monkeypatch)

    def test_rows_sharing_pages_take_pageset_of(self, monkeypatch):
        # 2049 columns of int32 are 8 KB a row: at 64 KB pages a page
        # holds eight rows, so consecutive rows share pages.
        routes = self.check_waves(2048, 256, 65536, range, monkeypatch)
        assert set(routes) == {"of"}

    @pytest.mark.parametrize("page_size", [4096, 65536])
    def test_full_scale_waves_skip_pageset_of(self, page_size, monkeypatch):
        # Every 5th wave, plus every wave whose rows straddle two pages
        # (d = 3 mod 4 at 4 KB, d = 63 mod 64 at 64 KB).
        routes = self.check_waves(
            Needle.PAPER_DIM, 256, page_size,
            lambda n: [d for d in range(n) if d % 5 == 0 or d % 4 == 3],
            monkeypatch,
        )
        assert set(routes) == {"sorted"}
